package perfmodel

import (
	"sync"
	"testing"
	"time"

	"flexflow/internal/device"
	"flexflow/internal/graph"
	"flexflow/internal/tensor"
)

func testOp(t *testing.T) (*graph.Graph, *graph.Op) {
	t.Helper()
	g := graph.New("perf")
	x := g.Input4D("x", 16, 8, 32, 32)
	conv := g.Conv2D("conv", x, 32, 3, 3, 1, 1, 1, 1)
	return g, conv
}

func p100() device.Device {
	return device.Device{Model: "P100", PeakGFLOPS: 9300, MemBWGBs: 732}
}

func k80() device.Device {
	return device.Device{Model: "K80", PeakGFLOPS: 2800, MemBWGBs: 240}
}

func TestPassString(t *testing.T) {
	if Forward.String() != "fwd" || Backward.String() != "bwd" || Update.String() != "upd" {
		t.Fatal("Pass.String mismatch")
	}
	if Pass(9).String() != "Pass(9)" {
		t.Fatal("unknown Pass.String mismatch")
	}
}

func TestAnalyticModelScaling(t *testing.T) {
	_, conv := testOp(t)
	m := NewAnalyticModel()
	dev := p100()

	full := m.ExecTime(conv, conv.Out.FullRegion(), dev, Forward)
	half := conv.Out.FullRegion()
	half.Iv[0] = tensor.Interval{Lo: 0, Hi: 8}
	halfT := m.ExecTime(conv, half, dev, Forward)

	if full <= 0 || halfT <= 0 {
		t.Fatalf("non-positive times: %v, %v", full, halfT)
	}
	if halfT >= full {
		t.Fatalf("half region (%v) should be faster than full (%v)", halfT, full)
	}
	// Backward is more expensive than forward.
	bwd := m.ExecTime(conv, conv.Out.FullRegion(), dev, Backward)
	if bwd <= full {
		t.Fatalf("backward (%v) should exceed forward (%v)", bwd, full)
	}
	// Slower device takes longer.
	slow := m.ExecTime(conv, conv.Out.FullRegion(), k80(), Forward)
	if slow <= full {
		t.Fatalf("K80 (%v) should be slower than P100 (%v)", slow, full)
	}
}

func TestAnalyticModelDeterminism(t *testing.T) {
	_, conv := testOp(t)
	m := NewAnalyticModel()
	dev := p100()
	a := m.ExecTime(conv, conv.Out.FullRegion(), dev, Forward)
	b := m.ExecTime(conv, conv.Out.FullRegion(), dev, Forward)
	if a != b {
		t.Fatalf("analytic model is not deterministic: %v vs %v", a, b)
	}
}

func TestAnalyticUpdatePass(t *testing.T) {
	_, conv := testOp(t)
	m := NewAnalyticModel()
	// Update cost scales with weight shard size (region = shard extent).
	small := tensor.Region{Iv: []tensor.Interval{{Lo: 0, Hi: 1000}}}
	large := tensor.Region{Iv: []tensor.Interval{{Lo: 0, Hi: 100000000}}}
	a := m.ExecTime(conv, small, p100(), Update)
	b := m.ExecTime(conv, large, p100(), Update)
	if b <= a {
		t.Fatalf("larger update (%v) should cost more than smaller (%v)", b, a)
	}
}

func TestAnalyticZeroFlopsOps(t *testing.T) {
	g := graph.New("z")
	x := g.Input4D("x", 2, 3, 8, 8)
	m := NewAnalyticModel()
	if d := m.ExecTime(x, x.Out.FullRegion(), p100(), Forward); d != 0 {
		t.Fatalf("input op time = %v, want 0", d)
	}
}

func TestAnalyticPanicsOnNilOp(t *testing.T) {
	m := NewAnalyticModel()
	defer func() {
		if recover() == nil {
			t.Fatal("nil op did not panic")
		}
	}()
	m.ExecTime(nil, tensor.Region{}, p100(), Forward)
}

func TestMemoryBoundOps(t *testing.T) {
	g := graph.New("mem")
	x := g.Input4D("x", 64, 64, 56, 56)
	a := g.Activation("relu", x)
	m := &AnalyticModel{} // no launch overhead for a clean ratio
	dev := p100()
	got := m.ExecTime(a, a.Out.FullRegion(), dev, Forward)
	// Element-wise ops should be memory-bound: time ~ 2*bytes/bw, far
	// above flops/peak.
	bytes := float64(2 * a.Out.Bytes())
	memSec := bytes / (dev.MemBWGBs * 1e9)
	if got < time.Duration(memSec*float64(time.Second)) {
		t.Fatalf("activation %v is faster than memory bound %v", got, time.Duration(memSec*float64(time.Second)))
	}
}

func TestMeasuringEstimatorCaches(t *testing.T) {
	_, conv := testOp(t)
	calls := 0
	meas := func(op *graph.Op, out tensor.Region, dev device.Device, pass Pass) time.Duration {
		calls++
		return time.Duration(calls) * time.Millisecond // drifting clock
	}
	e := NewMeasuringEstimator(meas, 3)
	dev := p100()

	first := e.ExecTime(conv, conv.Out.FullRegion(), dev, Forward)
	if calls != 3 {
		t.Fatalf("measurer called %d times, want 3 (repeats)", calls)
	}
	if first != 2*time.Millisecond { // avg of 1,2,3 ms
		t.Fatalf("first = %v, want 2ms", first)
	}
	second := e.ExecTime(conv, conv.Out.FullRegion(), dev, Forward)
	if calls != 3 {
		t.Fatalf("cache miss on identical signature (calls=%d)", calls)
	}
	if second != first {
		t.Fatalf("cached value changed: %v vs %v", second, first)
	}
	hits, misses := e.Stats()
	if hits != 1 || misses != 1 {
		t.Fatalf("stats = %d hits, %d misses", hits, misses)
	}
	if e.DistinctSignatures() != 1 {
		t.Fatalf("signatures = %d", e.DistinctSignatures())
	}
}

func TestMeasuringEstimatorKeying(t *testing.T) {
	_, conv := testOp(t)
	e := NewMeasuringEstimator(func(op *graph.Op, out tensor.Region, dev device.Device, pass Pass) time.Duration {
		return time.Millisecond
	}, 1)
	dev := p100()
	full := conv.Out.FullRegion()
	e.ExecTime(conv, full, dev, Forward)

	// Different pass -> new signature.
	e.ExecTime(conv, full, dev, Backward)
	// Different device model -> new signature.
	e.ExecTime(conv, full, k80(), Forward)
	// Different output size -> new signature.
	half := conv.Out.FullRegion()
	half.Iv[0] = tensor.Interval{Lo: 0, Hi: 8}
	e.ExecTime(conv, half, dev, Forward)
	// Same size but different offset -> same signature (A1).
	shifted := conv.Out.FullRegion()
	shifted.Iv[0] = tensor.Interval{Lo: 8, Hi: 16}
	before := e.DistinctSignatures()
	e.ExecTime(conv, shifted, dev, Forward)
	if e.DistinctSignatures() != before {
		t.Fatal("offset-only change created a new signature")
	}
	if e.DistinctSignatures() != 4 {
		t.Fatalf("signatures = %d, want 4", e.DistinctSignatures())
	}
}

func TestMeasuringEstimatorRepeatsFloor(t *testing.T) {
	e := NewMeasuringEstimator(func(op *graph.Op, out tensor.Region, dev device.Device, pass Pass) time.Duration {
		return time.Millisecond
	}, 0)
	if e.repeats != 1 {
		t.Fatalf("repeats = %d, want 1", e.repeats)
	}
}

func TestMeasuringEstimatorConcurrency(t *testing.T) {
	_, conv := testOp(t)
	e := NewMeasuringEstimator(func(op *graph.Op, out tensor.Region, dev device.Device, pass Pass) time.Duration {
		return time.Millisecond
	}, 1)
	dev := p100()
	var wg sync.WaitGroup
	for i := 0; i < 16; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 100; j++ {
				if d := e.ExecTime(conv, conv.Out.FullRegion(), dev, Forward); d != time.Millisecond {
					t.Errorf("got %v", d)
					return
				}
			}
		}()
	}
	wg.Wait()
	if e.DistinctSignatures() != 1 {
		t.Fatalf("signatures = %d", e.DistinctSignatures())
	}
}

// The paper's observation: an NMT-scale model with hundreds of ops uses
// only a handful of distinct signatures per device, so profiling is
// cheap. Verify the cache collapses repeated LSTM steps.
func TestFewDistinctSignaturesAcrossUnrolledSteps(t *testing.T) {
	g := graph.New("rnn")
	ids := g.InputSeq("tok", 16, 20)
	emb := g.Embedding("emb", ids, 1000, 64)
	var prev *graph.Op
	for s := 0; s < 20; s++ {
		prev = g.LSTMStep("l", emb, prev, s, 128)
	}
	e := NewMeasuringEstimator(func(op *graph.Op, out tensor.Region, dev device.Device, pass Pass) time.Duration {
		return time.Millisecond
	}, 1)
	dev := p100()
	for _, op := range g.ComputeOps() {
		e.ExecTime(op, op.Out.FullRegion(), dev, Forward)
	}
	// The 20 LSTM steps collapse to two signatures: step 0 has no prev
	// state input, so it reads different input bytes than steps 1-19
	// and must not alias their cached measurement (the signature folds
	// input-region extents in precisely so that every task mapping to a
	// key measures the same value — the property the concurrent search
	// chains' determinism rests on). Expect 3 signatures total:
	// embedding + first LSTM step + the 19 steady-state steps.
	if got := e.DistinctSignatures(); got != 3 {
		t.Fatalf("distinct signatures = %d, want 3", got)
	}
}

// TestExecTimeCacheHitAllocFree guards the ROADMAP fix this cache key
// exists for: a MeasuringEstimator hit — the overwhelmingly common case
// during a search, ~3.5% of whole-search time before the
// non-materializing input signature — must not allocate. A regression here (e.g. keyFor
// materializing graph.InputRegions again) fails this test rather than
// silently slowing every task-graph build.
func TestExecTimeCacheHitAllocFree(t *testing.T) {
	g, conv := testOp(t)
	_ = g
	e := NewMeasuringEstimator(NewAnalyticModel().ExecTime, 1)
	dev := p100()
	region := conv.Out.FullRegion()
	for _, pass := range []Pass{Forward, Backward, Update} {
		e.ExecTime(conv, region, dev, pass) // warm the cache
		allocs := testing.AllocsPerRun(200, func() {
			e.ExecTime(conv, region, dev, pass)
		})
		if allocs != 0 {
			t.Errorf("%v cache hit allocates %.1f per op, want 0", pass, allocs)
		}
	}
}
