// Package tensor provides shapes, regions and partitioning math for the
// SOAP search space. A tensor shape is an ordered list of named
// dimensions, each classified as a Sample, Attribute or Parameter
// dimension (Section 4 of the paper). Parallelization configurations
// partition the output tensor of an operation into a grid of regions;
// this package owns all of the interval arithmetic that the task-graph
// builder and the numeric executor rely on.
package tensor

import (
	"fmt"
	"strings"
)

// ElemBytes is the size of one tensor element. The paper's workloads are
// float32 throughout.
const ElemBytes = 4

// DimKind classifies a dimension of an operation's output tensor for the
// purposes of parallelization (Table 1 of the paper).
type DimKind uint8

const (
	// Sample indexes independent training samples (the batch dimension).
	// Partitioning it is data parallelism.
	Sample DimKind = iota
	// Attribute indexes positions within a sample (length, height,
	// width). Partitioning it does not split model parameters but may
	// require halo exchanges.
	Attribute
	// Parameter marks dimensions whose partitioning splits the model
	// parameters (e.g. output channels of a convolution or the output
	// features of a matrix multiplication).
	Parameter
	// Unsplittable marks dimensions that must not be partitioned (e.g.
	// the reduction depth of an attention score, or dimensions the op's
	// kernel cannot tile).
	Unsplittable
)

// String names the dimension kind.
func (k DimKind) String() string {
	switch k {
	case Sample:
		return "sample"
	case Attribute:
		return "attribute"
	case Parameter:
		return "parameter"
	case Unsplittable:
		return "unsplittable"
	default:
		return fmt.Sprintf("DimKind(%d)", uint8(k))
	}
}

// Dim is one dimension of a shape.
type Dim struct {
	Name string
	Size int
	Kind DimKind
}

// Shape is an ordered list of dimensions.
type Shape struct {
	Dims []Dim
}

// MakeShape builds a shape from dims. It panics on non-positive sizes,
// which always indicate a programming error in a model builder.
func MakeShape(dims ...Dim) Shape {
	for _, d := range dims {
		if d.Size <= 0 {
			panic(fmt.Sprintf("tensor: dimension %q has non-positive size %d", d.Name, d.Size))
		}
	}
	return Shape{Dims: dims}
}

// D is shorthand for constructing a Dim.
func D(name string, size int, kind DimKind) Dim { return Dim{Name: name, Size: size, Kind: kind} }

// Rank returns the number of dimensions.
func (s Shape) Rank() int { return len(s.Dims) }

// Volume returns the number of elements in the shape.
func (s Shape) Volume() int64 {
	v := int64(1)
	for _, d := range s.Dims {
		v *= int64(d.Size)
	}
	return v
}

// Bytes returns the storage size of the shape in bytes.
func (s Shape) Bytes() int64 { return s.Volume() * ElemBytes }

// Size returns the size of dimension i.
func (s Shape) Size(i int) int { return s.Dims[i].Size }

// Kind returns the classification of dimension i.
func (s Shape) Kind(i int) DimKind { return s.Dims[i].Kind }

// DimIndex returns the index of the dimension with the given name, or -1.
func (s Shape) DimIndex(name string) int {
	for i, d := range s.Dims {
		if d.Name == name {
			return i
		}
	}
	return -1
}

// Sizes returns the sizes of all dimensions as a slice.
func (s Shape) Sizes() []int {
	out := make([]int, len(s.Dims))
	for i, d := range s.Dims {
		out[i] = d.Size
	}
	return out
}

// FullRegion returns the region covering the entire shape.
func (s Shape) FullRegion() Region {
	iv := make([]Interval, len(s.Dims))
	for i, d := range s.Dims {
		iv[i] = Interval{0, d.Size}
	}
	return Region{Iv: iv}
}

// ParallelizableDims returns the indices of dimensions that may be
// partitioned (everything except Unsplittable dims and size-1 dims).
func (s Shape) ParallelizableDims() []int {
	var out []int
	for i, d := range s.Dims {
		if d.Kind != Unsplittable && d.Size > 1 {
			out = append(out, i)
		}
	}
	return out
}

// Equal reports whether two shapes have identical dims.
func (s Shape) Equal(o Shape) bool {
	if len(s.Dims) != len(o.Dims) {
		return false
	}
	for i := range s.Dims {
		if s.Dims[i] != o.Dims[i] {
			return false
		}
	}
	return true
}

// String renders the shape as name=size pairs in dimension order.
func (s Shape) String() string {
	parts := make([]string, len(s.Dims))
	for i, d := range s.Dims {
		parts[i] = fmt.Sprintf("%s=%d", d.Name, d.Size)
	}
	return "(" + strings.Join(parts, ", ") + ")"
}

// Interval is a half-open index range [Lo, Hi).
type Interval struct {
	Lo, Hi int
}

// Len returns the number of indices in the interval.
func (iv Interval) Len() int { return iv.Hi - iv.Lo }

// Empty reports whether the interval contains no indices.
func (iv Interval) Empty() bool { return iv.Hi <= iv.Lo }

// Intersect returns the intersection of two intervals (possibly empty).
func (iv Interval) Intersect(o Interval) Interval {
	lo, hi := iv.Lo, iv.Hi
	if o.Lo > lo {
		lo = o.Lo
	}
	if o.Hi < hi {
		hi = o.Hi
	}
	if hi < lo {
		hi = lo
	}
	return Interval{lo, hi}
}

// Clamp restricts the interval to [0, size).
func (iv Interval) Clamp(size int) Interval {
	return iv.Intersect(Interval{0, size})
}

// String renders the interval in half-open notation.
func (iv Interval) String() string { return fmt.Sprintf("[%d,%d)", iv.Lo, iv.Hi) }

// Region is a hyper-rectangular sub-tensor: one interval per dimension.
type Region struct {
	Iv []Interval
}

// Rank returns the number of dimensions of the region.
func (r Region) Rank() int { return len(r.Iv) }

// Volume returns the number of elements in the region.
func (r Region) Volume() int64 {
	if len(r.Iv) == 0 {
		return 0
	}
	v := int64(1)
	for _, iv := range r.Iv {
		n := iv.Len()
		if n <= 0 {
			return 0
		}
		v *= int64(n)
	}
	return v
}

// Bytes returns the storage size of the region in bytes.
func (r Region) Bytes() int64 { return r.Volume() * ElemBytes }

// Empty reports whether the region contains no elements.
func (r Region) Empty() bool { return r.Volume() == 0 }

// Intersect returns the element-wise intersection of two regions of the
// same rank. It panics on rank mismatch: regions from different tensor
// spaces must never be intersected.
func (r Region) Intersect(o Region) Region {
	if len(r.Iv) != len(o.Iv) {
		panic(fmt.Sprintf("tensor: intersecting regions of rank %d and %d", len(r.Iv), len(o.Iv)))
	}
	out := Region{Iv: make([]Interval, len(r.Iv))}
	for i := range r.Iv {
		out.Iv[i] = r.Iv[i].Intersect(o.Iv[i])
	}
	return out
}

// IntersectVolume returns Intersect(o).Volume() without materializing
// the intersection: the allocation-free way to price an overlap. Like
// Intersect, it panics on rank mismatch.
func (r Region) IntersectVolume(o Region) int64 {
	if len(r.Iv) != len(o.Iv) {
		panic(fmt.Sprintf("tensor: intersecting regions of rank %d and %d", len(r.Iv), len(o.Iv)))
	}
	if len(r.Iv) == 0 {
		return 0
	}
	v := int64(1)
	for i := range r.Iv {
		n := r.Iv[i].Intersect(o.Iv[i]).Len()
		if n <= 0 {
			return 0
		}
		v *= int64(n)
	}
	return v
}

// Overlaps reports whether two regions share at least one element.
func (r Region) Overlaps(o Region) bool { return r.IntersectVolume(o) > 0 }

// Contains reports whether o is entirely inside r.
func (r Region) Contains(o Region) bool {
	if len(r.Iv) != len(o.Iv) {
		return false
	}
	for i := range r.Iv {
		if o.Iv[i].Empty() {
			continue
		}
		if o.Iv[i].Lo < r.Iv[i].Lo || o.Iv[i].Hi > r.Iv[i].Hi {
			return false
		}
	}
	return true
}

// Equal reports whether two regions are identical.
func (r Region) Equal(o Region) bool {
	if len(r.Iv) != len(o.Iv) {
		return false
	}
	for i := range r.Iv {
		if r.Iv[i] != o.Iv[i] {
			return false
		}
	}
	return true
}

// Clone returns a deep copy of the region.
func (r Region) Clone() Region {
	out := Region{Iv: make([]Interval, len(r.Iv))}
	copy(out.Iv, r.Iv)
	return out
}

// String renders the region as one half-open interval per dimension.
func (r Region) String() string {
	parts := make([]string, len(r.Iv))
	for i, iv := range r.Iv {
		parts[i] = iv.String()
	}
	return strings.Join(parts, "x")
}

// SplitInterval splits [0,size) into deg balanced pieces and returns the
// k-th piece (0-based). Pieces differ in length by at most one, with the
// longer pieces first, matching the paper's "equal size partitions in
// each dimension to guarantee well-balanced workload distributions".
func SplitInterval(size, deg, k int) Interval {
	if deg <= 0 || k < 0 || k >= deg {
		panic(fmt.Sprintf("tensor: SplitInterval(size=%d, deg=%d, k=%d) out of range", size, deg, k))
	}
	q, rem := size/deg, size%deg
	var lo int
	if k < rem {
		lo = k * (q + 1)
	} else {
		lo = rem*(q+1) + (k-rem)*q
	}
	n := q
	if k < rem {
		n = q + 1
	}
	return Interval{lo, lo + n}
}

// GridVolume returns the product of the degrees.
func GridVolume(degrees []int) int {
	v := 1
	for _, d := range degrees {
		v *= d
	}
	return v
}

// GridRegion returns the region owned by the task at flat index k within
// the degree grid applied to shape (row-major order over the grid).
func GridRegion(s Shape, degrees []int, k int) Region {
	if len(degrees) != s.Rank() {
		panic(fmt.Sprintf("tensor: GridRegion degrees rank %d != shape rank %d", len(degrees), s.Rank()))
	}
	return Region{Iv: gridIntervals(make([]Interval, len(degrees)), s, degrees, k)}
}

// gridIntervals fills iv (one entry per dimension) with the intervals
// of grid cell k, decoding the flat index row-major as GridCoords does
// but without allocating the coordinates.
func gridIntervals(iv []Interval, s Shape, degrees []int, k int) []Interval {
	for i := len(degrees) - 1; i >= 0; i-- {
		iv[i] = SplitInterval(s.Size(i), degrees[i], k%degrees[i])
		k /= degrees[i]
	}
	if k != 0 {
		panic("tensor: GridCoords flat index out of range")
	}
	return iv
}

// GridCoords converts flat index k into per-dimension grid coordinates
// (row-major: the last dimension varies fastest).
func GridCoords(degrees []int, k int) []int {
	coords := make([]int, len(degrees))
	for i := len(degrees) - 1; i >= 0; i-- {
		coords[i] = k % degrees[i]
		k /= degrees[i]
	}
	if k != 0 {
		panic("tensor: GridCoords flat index out of range")
	}
	return coords
}

// GridIndex converts per-dimension grid coordinates into a flat index.
func GridIndex(degrees, coords []int) int {
	k := 0
	for i := range degrees {
		if coords[i] < 0 || coords[i] >= degrees[i] {
			panic("tensor: GridIndex coordinate out of range")
		}
		k = k*degrees[i] + coords[i]
	}
	return k
}

// Partition returns all grid regions for the degree grid, in flat order.
// The regions share one backing array (two allocations in all), each
// cut with its capacity pinned to its rank so an append to one region
// never writes into its neighbour.
func Partition(s Shape, degrees []int) []Region {
	if len(degrees) != s.Rank() {
		panic(fmt.Sprintf("tensor: Partition degrees rank %d != shape rank %d", len(degrees), s.Rank()))
	}
	n, r := GridVolume(degrees), len(degrees)
	out := make([]Region, n)
	iv := make([]Interval, n*r)
	for k := range out {
		out[k] = Region{Iv: gridIntervals(iv[k*r:(k+1)*r:(k+1)*r], s, degrees, k)}
	}
	return out
}
