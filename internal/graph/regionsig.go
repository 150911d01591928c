package graph

import "flexflow/internal/tensor"

const (
	sigOffset64 uint64 = 14695981039346656037
	sigPrime64  uint64 = 1099511628211
)

// InputRegionsSig hashes the per-dimension lengths of InputRegions(op,
// out) — the exact sequence the estimator cache key folds in, one
// separator byte after each region — with FNV-1a. It sits on the
// estimator's cache-hit path, queried once per task on every task-graph
// build, so it walks the regions through InputRegion into a stack
// buffer instead of materializing them: the walk never allocates
// (TestInputRegionsSigAllocFree).
func InputRegionsSig(op *Op, out tensor.Region) uint64 {
	var buf [8]tensor.Interval
	s := sigOffset64
	for i := range numInputRegions(op) {
		for _, iv := range InputRegion(op, out, i, buf[:0]).Iv {
			s = (s ^ uint64(iv.Len())) * sigPrime64
		}
		s = (s ^ 0xff) * sigPrime64
	}
	return s
}
