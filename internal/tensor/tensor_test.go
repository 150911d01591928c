package tensor

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestMakeShapeAndAccessors(t *testing.T) {
	s := MakeShape(D("sample", 64, Sample), D("channel", 256, Parameter), D("h", 28, Attribute), D("w", 28, Attribute))
	if got := s.Rank(); got != 4 {
		t.Fatalf("Rank = %d, want 4", got)
	}
	if got := s.Volume(); got != 64*256*28*28 {
		t.Fatalf("Volume = %d, want %d", got, 64*256*28*28)
	}
	if got := s.Bytes(); got != 64*256*28*28*4 {
		t.Fatalf("Bytes = %d, want %d", got, 64*256*28*28*4)
	}
	if got := s.DimIndex("h"); got != 2 {
		t.Fatalf("DimIndex(h) = %d, want 2", got)
	}
	if got := s.DimIndex("missing"); got != -1 {
		t.Fatalf("DimIndex(missing) = %d, want -1", got)
	}
	if got := s.Kind(1); got != Parameter {
		t.Fatalf("Kind(1) = %v, want Parameter", got)
	}
	if got := s.Size(3); got != 28 {
		t.Fatalf("Size(3) = %d, want 28", got)
	}
}

func TestMakeShapePanicsOnBadSize(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("MakeShape with size 0 did not panic")
		}
	}()
	MakeShape(D("bad", 0, Sample))
}

func TestDimKindString(t *testing.T) {
	cases := map[DimKind]string{
		Sample: "sample", Attribute: "attribute", Parameter: "parameter",
		Unsplittable: "unsplittable", DimKind(99): "DimKind(99)",
	}
	for k, want := range cases {
		if got := k.String(); got != want {
			t.Errorf("DimKind(%d).String() = %q, want %q", k, got, want)
		}
	}
}

func TestShapeString(t *testing.T) {
	s := MakeShape(D("sample", 2, Sample), D("c", 3, Parameter))
	if got := s.String(); got != "(sample=2, c=3)" {
		t.Fatalf("String = %q", got)
	}
}

func TestShapeEqual(t *testing.T) {
	a := MakeShape(D("s", 2, Sample), D("c", 3, Parameter))
	b := MakeShape(D("s", 2, Sample), D("c", 3, Parameter))
	c := MakeShape(D("s", 2, Sample), D("c", 4, Parameter))
	d := MakeShape(D("s", 2, Sample))
	if !a.Equal(b) {
		t.Error("a should equal b")
	}
	if a.Equal(c) {
		t.Error("a should not equal c")
	}
	if a.Equal(d) {
		t.Error("a should not equal d")
	}
}

func TestParallelizableDims(t *testing.T) {
	s := MakeShape(
		D("sample", 64, Sample),
		D("one", 1, Attribute),
		D("len", 40, Attribute),
		D("depth", 32, Unsplittable),
		D("channel", 512, Parameter),
	)
	got := s.ParallelizableDims()
	want := []int{0, 2, 4}
	if len(got) != len(want) {
		t.Fatalf("ParallelizableDims = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("ParallelizableDims = %v, want %v", got, want)
		}
	}
}

func TestIntervalBasics(t *testing.T) {
	iv := Interval{3, 10}
	if iv.Len() != 7 {
		t.Fatalf("Len = %d", iv.Len())
	}
	if iv.Empty() {
		t.Fatal("non-empty interval reported Empty")
	}
	if !(Interval{5, 5}).Empty() {
		t.Fatal("empty interval not reported Empty")
	}
	got := iv.Intersect(Interval{8, 20})
	if got != (Interval{8, 10}) {
		t.Fatalf("Intersect = %v", got)
	}
	disjoint := iv.Intersect(Interval{20, 30})
	if !disjoint.Empty() {
		t.Fatalf("disjoint Intersect = %v, want empty", disjoint)
	}
	if got := iv.Clamp(5); got != (Interval{3, 5}) {
		t.Fatalf("Clamp = %v", got)
	}
	if s := iv.String(); s != "[3,10)" {
		t.Fatalf("String = %q", s)
	}
}

func TestRegionVolumeAndIntersect(t *testing.T) {
	a := Region{Iv: []Interval{{0, 4}, {0, 6}}}
	b := Region{Iv: []Interval{{2, 8}, {3, 9}}}
	if a.Volume() != 24 {
		t.Fatalf("Volume = %d", a.Volume())
	}
	if a.Bytes() != 96 {
		t.Fatalf("Bytes = %d", a.Bytes())
	}
	x := a.Intersect(b)
	if x.Volume() != 2*3 {
		t.Fatalf("Intersect volume = %d, want 6", x.Volume())
	}
	if !a.Overlaps(b) {
		t.Fatal("a and b should overlap")
	}
	c := Region{Iv: []Interval{{4, 8}, {0, 6}}}
	if a.Overlaps(c) {
		t.Fatal("a and c should not overlap")
	}
	if (Region{}).Volume() != 0 {
		t.Fatal("rank-0 region should have volume 0")
	}
}

func TestRegionIntersectRankMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("rank-mismatched Intersect did not panic")
		}
	}()
	a := Region{Iv: []Interval{{0, 4}}}
	b := Region{Iv: []Interval{{0, 4}, {0, 4}}}
	a.Intersect(b)
}

func TestRegionContainsEqualClone(t *testing.T) {
	outer := Region{Iv: []Interval{{0, 10}, {0, 10}}}
	inner := Region{Iv: []Interval{{2, 5}, {0, 10}}}
	if !outer.Contains(inner) {
		t.Fatal("outer should contain inner")
	}
	if inner.Contains(outer) {
		t.Fatal("inner should not contain outer")
	}
	if !outer.Contains(outer) {
		t.Fatal("region should contain itself")
	}
	if outer.Contains(Region{Iv: []Interval{{0, 10}}}) {
		t.Fatal("rank mismatch Contains should be false")
	}
	cl := inner.Clone()
	if !cl.Equal(inner) {
		t.Fatal("clone not equal")
	}
	cl.Iv[0] = Interval{0, 1}
	if cl.Equal(inner) {
		t.Fatal("mutating clone affected original comparison")
	}
	if inner.Equal(Region{Iv: []Interval{{2, 5}}}) {
		t.Fatal("rank mismatch Equal should be false")
	}
}

func TestRegionString(t *testing.T) {
	r := Region{Iv: []Interval{{0, 2}, {3, 7}}}
	if got := r.String(); got != "[0,2)x[3,7)" {
		t.Fatalf("String = %q", got)
	}
}

func TestSplitIntervalBalanced(t *testing.T) {
	// 10 split 3 ways: 4,3,3.
	want := []Interval{{0, 4}, {4, 7}, {7, 10}}
	for k, w := range want {
		if got := SplitInterval(10, 3, k); got != w {
			t.Fatalf("SplitInterval(10,3,%d) = %v, want %v", k, got, w)
		}
	}
	// Exact division.
	if got := SplitInterval(8, 4, 2); got != (Interval{4, 6}) {
		t.Fatalf("SplitInterval(8,4,2) = %v", got)
	}
	// Degree 1 is identity.
	if got := SplitInterval(5, 1, 0); got != (Interval{0, 5}) {
		t.Fatalf("SplitInterval(5,1,0) = %v", got)
	}
}

func TestSplitIntervalPanics(t *testing.T) {
	for _, c := range []struct{ size, deg, k int }{{10, 0, 0}, {10, 3, 3}, {10, 3, -1}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("SplitInterval(%d,%d,%d) did not panic", c.size, c.deg, c.k)
				}
			}()
			SplitInterval(c.size, c.deg, c.k)
		}()
	}
}

// Property: splitting any size into any degree yields a disjoint exact
// cover with piece lengths differing by at most one.
func TestSplitIntervalCoverProperty(t *testing.T) {
	f := func(sizeRaw, degRaw uint16) bool {
		size := int(sizeRaw%5000) + 1
		deg := int(degRaw%64) + 1
		if deg > size {
			deg = size
		}
		prevHi := 0
		minLen, maxLen := size+1, 0
		for k := 0; k < deg; k++ {
			iv := SplitInterval(size, deg, k)
			if iv.Lo != prevHi {
				return false // gap or overlap
			}
			prevHi = iv.Hi
			if iv.Len() < minLen {
				minLen = iv.Len()
			}
			if iv.Len() > maxLen {
				maxLen = iv.Len()
			}
		}
		return prevHi == size && maxLen-minLen <= 1
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

func TestGridCoordsRoundTrip(t *testing.T) {
	degrees := []int{2, 3, 4}
	for k := 0; k < 24; k++ {
		coords := GridCoords(degrees, k)
		if got := GridIndex(degrees, coords); got != k {
			t.Fatalf("round trip %d -> %v -> %d", k, coords, got)
		}
	}
}

func TestGridCoordsRowMajor(t *testing.T) {
	degrees := []int{2, 3}
	// Flat index 4 should be row 1, col 1 (last dim fastest).
	coords := GridCoords(degrees, 4)
	if coords[0] != 1 || coords[1] != 1 {
		t.Fatalf("GridCoords = %v, want [1 1]", coords)
	}
}

func TestGridPanics(t *testing.T) {
	func() {
		defer func() {
			if recover() == nil {
				t.Error("GridCoords out of range did not panic")
			}
		}()
		GridCoords([]int{2, 2}, 4)
	}()
	func() {
		defer func() {
			if recover() == nil {
				t.Error("GridIndex out of range did not panic")
			}
		}()
		GridIndex([]int{2, 2}, []int{2, 0})
	}()
	func() {
		defer func() {
			if recover() == nil {
				t.Error("GridRegion rank mismatch did not panic")
			}
		}()
		GridRegion(MakeShape(D("s", 4, Sample)), []int{2, 2}, 0)
	}()
}

// Property: IntersectVolume prices exactly what Intersect materializes —
// Intersect(o).Volume() — on random regions, overlapping, touching,
// disjoint and empty alike, and it allocates nothing.
func TestIntersectVolumeProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	randRegion := func(rank int) Region {
		r := Region{Iv: make([]Interval, rank)}
		for i := range r.Iv {
			lo := rng.Intn(12) - 2
			r.Iv[i] = Interval{lo, lo + rng.Intn(10) - 1}
		}
		return r
	}
	for trial := 0; trial < 2000; trial++ {
		rank := rng.Intn(5)
		a, b := randRegion(rank), randRegion(rank)
		want := a.Intersect(b).Volume()
		if got := a.IntersectVolume(b); got != want {
			t.Fatalf("trial %d: %v.IntersectVolume(%v) = %d, want %d", trial, a, b, got, want)
		}
		if got := b.IntersectVolume(a); got != want {
			t.Fatalf("trial %d: IntersectVolume not symmetric: %d vs %d", trial, got, want)
		}
		if a.Overlaps(b) != (want > 0) {
			t.Fatalf("trial %d: Overlaps = %v with intersection volume %d", trial, a.Overlaps(b), want)
		}
	}
	a := Region{Iv: []Interval{{0, 4}, {0, 6}}}
	b := Region{Iv: []Interval{{2, 8}, {3, 9}}}
	if n := testing.AllocsPerRun(100, func() { a.IntersectVolume(b) }); n != 0 {
		t.Fatalf("IntersectVolume allocates %v times per call", n)
	}
}

func TestRegionIntersectVolumeRankMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("rank-mismatched IntersectVolume did not panic")
		}
	}()
	a := Region{Iv: []Interval{{0, 4}}}
	b := Region{Iv: []Interval{{0, 4}, {0, 4}}}
	a.IntersectVolume(b)
}

// Partition is GridRegion at every flat index, with each region's
// capacity pinned so appending to one cannot overwrite the next.
func TestPartitionMatchesGridRegion(t *testing.T) {
	s := MakeShape(D("n", 7, Sample), D("c", 5, Parameter), D("h", 3, Attribute))
	degrees := []int{3, 2, 3}
	regions := Partition(s, degrees)
	for k, r := range regions {
		if want := GridRegion(s, degrees, k); !r.Equal(want) {
			t.Fatalf("Partition[%d] = %v, want GridRegion %v", k, r, want)
		}
		if cap(r.Iv) != len(r.Iv) {
			t.Fatalf("Partition[%d] capacity %d not pinned to rank %d", k, cap(r.Iv), len(r.Iv))
		}
	}
	_ = append(regions[0].Iv, Interval{})
	if !regions[1].Equal(GridRegion(s, degrees, 1)) {
		t.Fatal("appending to one partition region clobbered its neighbour")
	}
}

// Property: Partition produces a disjoint cover of the full shape.
func TestPartitionDisjointCoverProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 200; trial++ {
		rank := 1 + rng.Intn(4)
		dims := make([]Dim, rank)
		degrees := make([]int, rank)
		for i := range dims {
			size := 1 + rng.Intn(20)
			dims[i] = D("d", size, Sample)
			degrees[i] = 1 + rng.Intn(size)
		}
		s := MakeShape(dims...)
		regions := Partition(s, degrees)
		if len(regions) != GridVolume(degrees) {
			t.Fatalf("got %d regions, want %d", len(regions), GridVolume(degrees))
		}
		var total int64
		for i, a := range regions {
			if a.Empty() {
				t.Fatalf("trial %d: empty region %v (degrees %v, shape %v)", trial, a, degrees, s)
			}
			total += a.Volume()
			if !s.FullRegion().Contains(a) {
				t.Fatalf("region %v escapes shape %v", a, s)
			}
			for j := i + 1; j < len(regions); j++ {
				if a.Overlaps(regions[j]) {
					t.Fatalf("regions %d and %d overlap: %v vs %v", i, j, a, regions[j])
				}
			}
		}
		if total != s.Volume() {
			t.Fatalf("partition volumes sum to %d, want %d", total, s.Volume())
		}
	}
}

func TestGridVolume(t *testing.T) {
	if got := GridVolume([]int{2, 3, 4}); got != 24 {
		t.Fatalf("GridVolume = %d", got)
	}
	if got := GridVolume(nil); got != 1 {
		t.Fatalf("GridVolume(nil) = %d", got)
	}
}

func TestFullRegion(t *testing.T) {
	s := MakeShape(D("a", 3, Sample), D("b", 5, Parameter))
	r := s.FullRegion()
	if r.Volume() != s.Volume() {
		t.Fatalf("FullRegion volume = %d, want %d", r.Volume(), s.Volume())
	}
}
