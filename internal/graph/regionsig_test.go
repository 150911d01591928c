package graph

import (
	"math/rand"
	"testing"

	"flexflow/internal/tensor"
)

// sigFromRegions is the reference signature: the same FNV-1a fold over
// the regions InputRegions materializes.
func sigFromRegions(op *Op, out tensor.Region) uint64 {
	const offset64, prime64 = 14695981039346656037, 1099511628211
	h := uint64(offset64)
	for _, r := range InputRegions(op, out) {
		for i := 0; i < r.Rank(); i++ {
			h = (h ^ uint64(r.Iv[i].Len())) * prime64
		}
		h = (h ^ 0xff) * prime64
	}
	return h
}

// sigTestGraph exercises every op kind InputRegion infers regions for:
// Conv2D, Pool2D, Flatten, MatMul (Dense), Softmax, Embedding, LSTM
// (with and without a previous step), Stack, Attention, Concat, Add,
// Activation.
func sigTestGraph() *Graph {
	g := New("sig")
	x := g.Input4D("x", 8, 3, 16, 16)
	c1 := g.Conv2D("c1", x, 8, 3, 3, 1, 1, 1, 1)
	c2 := g.Conv2D("c2", c1, 8, 1, 1, 1, 1, 0, 0)
	add := g.Add("add", c1, c2)
	act := g.Activation("act", add)
	p := g.Pool2D("p", act, 2, 2, 2, 2, 0, 0)
	cat := g.ConcatChannels("cat", p, p)
	f := g.Flatten("f", cat)
	d := g.Dense("fc", f, 32)
	g.SoftmaxClassifier("sm", d, 10)

	ids := g.InputSeq("tok", 8, 3)
	emb := g.Embedding("emb", ids, 40, 12)
	l0 := g.LSTMStep("l.t0", emb, nil, 0, 16)
	l1 := g.LSTMStep("l.t1", emb, l0, 1, 16)
	l2 := g.LSTMStep("l.t2", emb, l1, 2, 16)
	stack := g.StackSteps("stack", l0, l1, l2)
	g.AttentionStep("attn", l2, stack)
	return g
}

// randomSubRegion picks a random grid cell of op.Out under random
// per-dimension split degrees — the same region shapes the task-graph
// builder queries the estimator with.
func randomSubRegion(op *Op, rng *rand.Rand) tensor.Region {
	degrees := make([]int, op.Out.Rank())
	for i := range degrees {
		max := op.Out.Size(i)
		if max > 4 {
			max = 4
		}
		degrees[i] = 1 + rng.Intn(max)
	}
	n := 1
	for _, d := range degrees {
		n *= d
	}
	return tensor.GridRegion(op.Out, degrees, rng.Intn(n))
}

// TestInputRegionsSigMatchesMaterialized pins the buffered walk to the
// materializing reference for every op kind, over full outputs and
// random grid-cell sub-regions.
func TestInputRegionsSigMatchesMaterialized(t *testing.T) {
	g := sigTestGraph()
	rng := rand.New(rand.NewSource(42))
	covered := map[OpKind]bool{}
	for _, op := range g.Ops {
		covered[op.Kind] = true
		full := op.Out.FullRegion()
		if got, want := InputRegionsSig(op, full), sigFromRegions(op, full); got != want {
			t.Errorf("%s (%v) full region: sig %#x != reference %#x", op.Name, op.Kind, got, want)
		}
		for trial := 0; trial < 200; trial++ {
			r := randomSubRegion(op, rng)
			if got, want := InputRegionsSig(op, r), sigFromRegions(op, r); got != want {
				t.Fatalf("%s (%v) region %v: sig %#x != reference %#x", op.Name, op.Kind, r, got, want)
			}
		}
	}
	for _, kind := range []OpKind{Input, Conv2D, Pool2D, MatMul, Softmax, Embedding,
		LSTM, Attention, Stack, Concat, Add, Activation, Flatten} {
		if !covered[kind] {
			t.Errorf("op kind %v not covered by the signature test graph", kind)
		}
	}
}

// TestInputRegionsSigAllocFree asserts the walk itself never allocates:
// it sits on the estimator's cache-hit path.
func TestInputRegionsSigAllocFree(t *testing.T) {
	g := sigTestGraph()
	rng := rand.New(rand.NewSource(7))
	for _, op := range g.Ops {
		if op.Kind == Input {
			continue
		}
		r := randomSubRegion(op, rng)
		allocs := testing.AllocsPerRun(100, func() {
			InputRegionsSig(op, r)
		})
		if allocs != 0 {
			t.Errorf("%s (%v): InputRegionsSig allocates %.1f per run", op.Name, op.Kind, allocs)
		}
	}
}

// TestInputRegionReusesBuffer pins InputRegion, the builder's per-input
// query, to InputRegions for every op kind and input, with one buffer
// reused across every call (as the builder reuses it): same regions,
// and no allocation once the buffer covers the rank.
func TestInputRegionReusesBuffer(t *testing.T) {
	g := sigTestGraph()
	rng := rand.New(rand.NewSource(9))
	buf := make([]tensor.Interval, 0, 8)
	for _, op := range g.Ops {
		if op.Kind == Input {
			continue
		}
		for trial := 0; trial < 50; trial++ {
			r := randomSubRegion(op, rng)
			for i, want := range InputRegions(op, r) {
				got := InputRegion(op, r, i, buf)
				if !got.Equal(want) {
					t.Fatalf("%s (%v) region %v input %d: InputRegion %v != InputRegions %v", op.Name, op.Kind, r, i, got, want)
				}
				if allocs := testing.AllocsPerRun(10, func() { InputRegion(op, r, i, buf) }); allocs != 0 {
					t.Fatalf("%s (%v): InputRegion with a buffer allocates %.1f per run", op.Name, op.Kind, allocs)
				}
			}
		}
	}
}
