package search

import (
	"context"
	"math"
	"math/rand"
	"sort"
	"strings"
	"testing"

	"flexflow/internal/config"
	"flexflow/internal/device"
	"flexflow/internal/graph"
	"flexflow/internal/perfmodel"
	"flexflow/internal/sim"
	"flexflow/internal/taskgraph"
)

// TestParseLocality pins the policy-name surface: the empty string
// normalizes to uniform, every listed policy round-trips, and unknown
// names error mentioning the alternatives.
func TestParseLocality(t *testing.T) {
	if loc, err := ParseLocality(""); err != nil || loc != LocalityUniform {
		t.Fatalf(`ParseLocality("") = %q, %v; want uniform`, loc, err)
	}
	for _, want := range Localities() {
		got, err := ParseLocality(string(want))
		if err != nil || got != want {
			t.Fatalf("ParseLocality(%q) = %q, %v", want, got, err)
		}
	}
	for _, name := range []string{"spatial", "late-biased", "stratified"} {
		_, err := ParseLocality(name)
		if err == nil || !strings.Contains(err.Error(), "(have uniform, measured)") {
			t.Fatalf("ParseLocality(%q) error = %v; want an error listing uniform, measured", name, err)
		}
	}
}

// localityTestState compiles tinyMLP at 4 GPUs and returns its op
// list, simulated base state, and instance graph — the fixture the
// picker tests score hints against.
func localityTestState(t *testing.T) ([]*graph.Op, *taskgraph.TaskGraph, *sim.State) {
	t.Helper()
	g := tinyMLP()
	topo := device.NewSingleNode(4, "P100")
	est := perfmodel.NewAnalyticModel()
	plan := taskgraph.Compile(g, topo, config.DataParallel(g, topo), est, taskgraph.Options{})
	base := sim.NewState(plan.Base())
	base.Simulate()
	tg := plan.Instance()
	return g.ComputeOps(), tg, base.CloneFor(tg)
}

// TestLocalityWeightsStrictlyPositive asserts the ergodicity invariant
// over every EMA extreme: after a rebuild from degenerate EMAs (zero
// suffix everywhere, all equal, a spread wide enough to hit the
// exponent clamp, one cheap op among dear ones) every selection weight
// is strictly positive, so no op is unreachable.
func TestLocalityWeightsStrictlyPositive(t *testing.T) {
	ops, _, st := localityTestState(t)
	emaSets := map[string][]float64{
		"all-zero":  make([]float64, len(ops)),
		"all-equal": make([]float64, len(ops)),
		"huge":      make([]float64, len(ops)),
		"one-cheap": make([]float64, len(ops)),
	}
	for i := range ops {
		emaSets["all-equal"][i] = 100
		emaSets["huge"][i] = math.Pow(1e6, float64(i))
		emaSets["one-cheap"][i] = 1e4
	}
	emaSets["one-cheap"][0] = 1
	for name, ema := range emaSets {
		p := newLocalityPicker(ops, st)
		copy(p.ema, ema)
		p.rebuild()
		for i, w := range p.weight {
			if !(w > 0) {
				t.Fatalf("%s: weight[%d] = %v is not strictly positive", name, i, w)
			}
		}
	}

	// Single-op graphs degenerate to "always that op" without panicking.
	p := newLocalityPicker(ops[:1], st)
	rng := rand.New(rand.NewSource(3))
	for i := 0; i < 50; i++ {
		if got := p.pick(rng); got != 0 {
			t.Fatalf("single-op pick returned %d", got)
		}
	}
}

// TestLocalitySamplerDistribution draws from a fixed weight vector at a
// fixed seed and asserts the empirical selection frequencies match the
// weights within tolerance — the sampler really is a weighted sampler,
// not an argmax or a biased binary search.
func TestLocalitySamplerDistribution(t *testing.T) {
	weights := []float64{1, 2, 3, 4, 0.5}
	cum, total := buildCum(weights, nil)
	const draws = 200000
	rng := rand.New(rand.NewSource(42))
	counts := make([]int, len(weights))
	for i := 0; i < draws; i++ {
		counts[weightedIndex(cum, rng.Float64()*total)]++
	}
	for i, w := range weights {
		want := w / total
		got := float64(counts[i]) / draws
		if diff := got - want; diff < -0.01 || diff > 0.01 {
			t.Errorf("index %d: empirical frequency %.4f vs weight share %.4f", i, got, want)
		}
	}
}

// TestLocalityPickerEnumerationOrderIndependent asserts the sampler's
// draw sequence depends only on (weights per op, RNG stream), never on
// the order the caller enumerated the ops: pickers built over permuted
// copies of the op slice produce the identical op-ID sequence from
// equal-seed RNGs. This is what makes a locality walk reproducible no
// matter how ComputeOps orders the graph.
func TestLocalityPickerEnumerationOrderIndependent(t *testing.T) {
	ops, _, st := localityTestState(t)
	shuffled := append([]*graph.Op(nil), ops...)
	rand.New(rand.NewSource(99)).Shuffle(len(shuffled), func(i, j int) {
		shuffled[i], shuffled[j] = shuffled[j], shuffled[i]
	})
	reference := newLocalityPicker(ops, st)
	permuted := newLocalityPicker(shuffled, st)

	rngA := rand.New(rand.NewSource(7))
	rngB := rand.New(rand.NewSource(7))
	for i := 0; i < 500; i++ {
		a := ops[reference.pick(rngA)].ID
		b := shuffled[permuted.pick(rngB)].ID
		if a != b {
			t.Fatalf("draw %d differs under permuted enumeration: op %d vs %d", i, a, b)
		}
	}
}

// FuzzLocalitySampler fuzzes the cumulative-weight sampler over random
// weight vectors — including the degenerate shapes (single entry,
// all-equal, huge spread, near-zero weights) seeded below — checking
// the structural invariants on every draw: the index is in range, its
// weight is strictly positive, and the binary-searched bucket agrees
// with a linear scan over the half-open bucket bounds.
func FuzzLocalitySampler(f *testing.F) {
	f.Add(int64(1), uint8(1))   // single op
	f.Add(int64(2), uint8(4))   // all-equal (seed 2 path below)
	f.Add(int64(3), uint8(32))  // mid-size random
	f.Add(int64(4), uint8(255)) // large vector
	f.Fuzz(func(t *testing.T, seed int64, n uint8) {
		if n == 0 {
			n = 1
		}
		rng := rand.New(rand.NewSource(seed))
		weights := make([]float64, int(n))
		for i := range weights {
			switch seed % 3 {
			case 0:
				weights[i] = 1 // all-equal
			case 1:
				weights[i] = 1e-9 + rng.Float64()*1e9 // huge spread
			default:
				weights[i] = 0.05 + rng.Float64()
			}
		}
		cum, total := buildCum(weights, nil)
		if total <= 0 {
			t.Fatalf("total %v not positive", total)
		}
		for draw := 0; draw < 64; draw++ {
			x := rng.Float64() * total
			i := weightedIndex(cum, x)
			if i < 0 || i >= len(weights) {
				t.Fatalf("index %d out of range [0,%d)", i, len(weights))
			}
			if !(weights[i] > 0) {
				t.Fatalf("selected zero-width bucket %d (weight %v)", i, weights[i])
			}
			// Linear reference: the bucket is the first i with x < cum[i].
			want := sort.Search(len(cum), func(j int) bool { return x < cum[j] })
			if want == len(cum) {
				want = len(cum) - 1
			}
			if i != want {
				t.Fatalf("weightedIndex(%v) = %d, linear scan says %d", x, i, want)
			}
		}
	})
}

// TestMCMCLocalityContract pins the Locality API: the zero value and
// "uniform" are the same classic walk — bit-identical to the
// pre-locality optimizer, whose RNG consumption (one Intn per proposal)
// the uniform path preserves verbatim — the measured policy is
// deterministic run to run and non-degenerate, actually changes the
// walk, reports the evaluated-suffix stat, and FullSim mode ignores the
// knob.
func TestMCMCLocalityContract(t *testing.T) {
	g := tinyMLP()
	topo := device.NewSingleNode(4, "P100")
	est := perfmodel.NewAnalyticModel()
	opts := DefaultOptions()
	opts.MaxIters = 150
	opts.Seed = 5
	initials := Initials(g, topo, 5, true)

	run := func(loc Locality, fullSim bool) Result {
		o := opts
		o.Locality = loc
		o.FullSim = fullSim
		return MCMC(context.Background(), g, topo, est, initials, o)
	}
	same := func(a, b Result) bool {
		if a.BestCost != b.BestCost || !a.Best.Equal(b.Best) ||
			a.Iters != b.Iters || a.Accepted != b.Accepted ||
			a.SimStats != b.SimStats || len(a.Trace) != len(b.Trace) {
			return false
		}
		for i := range a.Trace {
			if a.Trace[i] != b.Trace[i] {
				return false
			}
		}
		return true
	}

	uniform := run(LocalityUniform, false)
	if !same(run("", false), uniform) {
		t.Error(`Locality "" and "uniform" are not the same walk`)
	}
	if uniform.SimStats.SuffixTasks <= 0 {
		t.Errorf("delta-mode walk reported SuffixTasks=%d; the suffix stat must accumulate", uniform.SimStats.SuffixTasks)
	}
	for _, loc := range []Locality{LocalityMeasured} {
		a, b := run(loc, false), run(loc, false)
		if !same(a, b) {
			t.Errorf("Locality=%s is not deterministic run to run", loc)
		}
		if a.Iters == 0 || a.Accepted == 0 || a.Best == nil || a.BestCost <= 0 {
			t.Errorf("Locality=%s degenerate search: %+v", loc, a)
		}
		if a.SimStats.SuffixTasks <= 0 {
			t.Errorf("Locality=%s reported SuffixTasks=%d", loc, a.SimStats.SuffixTasks)
		}
		if same(a, uniform) {
			t.Errorf("Locality=%s walks identically to uniform; the policy is not steering", loc)
		}
	}
	if fa, fb := run(LocalityUniform, true), run(LocalityMeasured, true); !same(fa, fb) {
		t.Error("FullSim walk changed with Locality set")
	}

	defer func() {
		if recover() == nil {
			t.Error("MCMC accepted an unknown Locality without panicking")
		}
	}()
	run("spatial", false)
}
