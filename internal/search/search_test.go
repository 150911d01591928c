package search

import (
	"context"
	"math/rand"
	"testing"
	"time"

	"flexflow/internal/config"
	"flexflow/internal/device"
	"flexflow/internal/graph"
	"flexflow/internal/perfmodel"
	"flexflow/internal/taskgraph"
)

// tinyMLP is small enough for fast searches but compute-heavy enough
// that parallelizing beats per-kernel overhead and transfer costs.
func tinyMLP() *graph.Graph {
	g := graph.New("mlp")
	x := g.Input4D("x", 64, 32, 32, 32)
	c := g.Conv2D("conv", x, 64, 3, 3, 1, 1, 1, 1)
	p := g.Pool2D("pool", c, 2, 2, 2, 2, 0, 0)
	f := g.Flatten("flat", p)
	h := g.Dense("fc1", f, 1024)
	g.Dense("fc2", h, 64)
	return g
}

func TestAccept(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	// Improvements are always accepted.
	for i := 0; i < 100; i++ {
		if !accept(time.Second, time.Second-time.Millisecond, 15, rng) {
			t.Fatal("improvement rejected")
		}
		if !accept(time.Second, time.Second, 15, rng) {
			t.Fatal("equal cost rejected")
		}
	}
	// Large regressions are almost always rejected at high beta.
	rejected := 0
	for i := 0; i < 1000; i++ {
		if !accept(time.Second, 2*time.Second, 15, rng) {
			rejected++
		}
	}
	if rejected < 990 {
		t.Fatalf("2x regression rejected only %d/1000 at beta=15", rejected)
	}
	// Small regressions are sometimes accepted (escape local minima).
	acceptedSmall := 0
	for i := 0; i < 1000; i++ {
		if accept(time.Second, time.Second+10*time.Millisecond, 15, rng) {
			acceptedSmall++
		}
	}
	if acceptedSmall < 500 {
		t.Fatalf("1%% regression accepted only %d/1000 at beta=15 (want ~exp(-0.15)=86%%)", acceptedSmall)
	}
	// Degenerate current cost.
	if accept(0, time.Second, 15, rng) {
		t.Fatal("regression from zero cost accepted")
	}
}

// Statistical check of the Metropolis rule: acceptance frequency of a
// fixed regression should match exp(-beta * relative increase).
func TestAcceptMatchesMetropolisRate(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	beta := 10.0
	rel := 0.1 // 10% worse -> exp(-1) ~ 36.8%
	n, acc := 20000, 0
	for i := 0; i < n; i++ {
		if accept(time.Second, time.Duration(float64(time.Second)*(1+rel)), beta, rng) {
			acc++
		}
	}
	got := float64(acc) / float64(n)
	want := 0.3679
	if got < want-0.02 || got > want+0.02 {
		t.Fatalf("acceptance rate = %.4f, want ~%.4f", got, want)
	}
}

func TestMCMCImprovesOverDataParallelism(t *testing.T) {
	g := tinyMLP()
	topo := device.NewSingleNode(4, "P100")
	est := perfmodel.NewAnalyticModel()

	dpCost, _ := Evaluate(g, topo, est, config.DataParallel(g, topo), taskgraph.Options{})
	opts := DefaultOptions()
	opts.MaxIters = 600
	res := MCMC(context.Background(), g, topo, est, Initials(g, topo, 1, true), opts)

	if res.BestCost > dpCost {
		t.Fatalf("search result %v worse than data parallelism %v", res.BestCost, dpCost)
	}
	if res.Best == nil || res.Iters == 0 {
		t.Fatalf("degenerate result %+v", res)
	}
	if err := res.Best.Validate(g, topo); err != nil {
		t.Fatalf("best strategy invalid: %v", err)
	}
	// Verify the reported cost is reproducible from the strategy.
	check, _ := Evaluate(g, topo, est, res.Best, taskgraph.Options{})
	if check != res.BestCost {
		t.Fatalf("reported cost %v != re-evaluated %v", res.BestCost, check)
	}
}

func TestMCMCDeterministicGivenSeed(t *testing.T) {
	g := tinyMLP()
	topo := device.NewSingleNode(2, "P100")
	est := perfmodel.NewAnalyticModel()
	opts := DefaultOptions()
	opts.MaxIters = 150
	a := MCMC(context.Background(), g, topo, est, Initials(g, topo, 3, false), opts)
	b := MCMC(context.Background(), g, topo, est, Initials(g, topo, 3, false), opts)
	if a.BestCost != b.BestCost || !a.Best.Equal(b.Best) {
		t.Fatalf("same seed produced different results: %v vs %v", a.BestCost, b.BestCost)
	}
}

func TestMCMCTraceMonotone(t *testing.T) {
	g := tinyMLP()
	topo := device.NewSingleNode(4, "P100")
	opts := DefaultOptions()
	opts.MaxIters = 300
	res := MCMC(context.Background(), g, topo, perfmodel.NewAnalyticModel(), Initials(g, topo, 2, false), opts)
	if len(res.Trace) == 0 {
		t.Fatal("no trace")
	}
	// Within each chain the best-found cost never increases; chains are
	// concatenated, so only check per-chain monotonicity via iter resets.
	prev := res.Trace[0]
	for _, p := range res.Trace[1:] {
		if p.Iter > prev.Iter && p.BestCost > prev.BestCost {
			t.Fatalf("best cost increased within a chain: %+v -> %+v", prev, p)
		}
		prev = p
	}
}

func TestMCMCFullSimMatchesDelta(t *testing.T) {
	g := tinyMLP()
	topo := device.NewSingleNode(2, "P100")
	est := perfmodel.NewAnalyticModel()
	opts := DefaultOptions()
	opts.MaxIters = 100
	delta := MCMC(context.Background(), g, topo, est, []*config.Strategy{config.DataParallel(g, topo)}, opts)
	opts.FullSim = true
	full := MCMC(context.Background(), g, topo, est, []*config.Strategy{config.DataParallel(g, topo)}, opts)
	// The two algorithms time identical strategies identically up to
	// ready-time tie-breaking (the full algorithm rebuilds the task
	// graph, renumbering tasks), so the walks may diverge slightly; the
	// search outcomes must still land in the same neighbourhood.
	lo, hi := delta.BestCost, full.BestCost
	if lo > hi {
		lo, hi = hi, lo
	}
	if float64(hi-lo) > 0.15*float64(hi) {
		t.Fatalf("delta search best %v and full search best %v diverge", delta.BestCost, full.BestCost)
	}
	if delta.SimStats.Fallbacks != 0 {
		t.Fatalf("delta fallbacks = %d", delta.SimStats.Fallbacks)
	}
}

func TestMCMCGreedyAtHighBeta(t *testing.T) {
	g := tinyMLP()
	topo := device.NewSingleNode(2, "P100")
	opts := DefaultOptions()
	opts.MaxIters = 200
	opts.Beta = 1e9 // effectively greedy: never accept regressions
	res := MCMC(context.Background(), g, topo, perfmodel.NewAnalyticModel(), []*config.Strategy{config.DataParallel(g, topo)}, opts)
	// With greedy acceptance, the chain cost equals the best cost at
	// every accepted step; final best must be <= initial.
	if res.BestCost > res.Trace[0].BestCost {
		t.Fatal("greedy chain ended worse than it started")
	}
}

func TestSpaceRestrictions(t *testing.T) {
	g := tinyMLP()
	topo := device.NewSingleNode(4, "P100")
	if SpaceSOAP.allowed() != nil {
		t.Fatal("SOAP space should be unrestricted")
	}
	sm := SpaceSample.allowed()
	if !sm[0] || len(sm) != 1 {
		t.Fatalf("sample space = %v", sm)
	}
	opts := DefaultOptions()
	opts.MaxIters = 120
	opts.Space = SpaceSample
	res := MCMC(context.Background(), g, topo, perfmodel.NewAnalyticModel(), []*config.Strategy{config.DataParallel(g, topo)}, opts)
	// Every config in the result must have degree 1 outside the sample dim.
	for _, op := range g.ComputeOps() {
		c := res.Best.Config(op.ID)
		for i := 1; i < len(c.Degrees); i++ {
			if c.Degrees[i] != 1 {
				t.Fatalf("sample-restricted search partitioned dim %d of %q", i, op.Name)
			}
		}
	}
}

func TestExhaustiveFindsOptimumAndMCMCMatches(t *testing.T) {
	// Scaled-down Section 8.4: a small linear model on 2 devices with a
	// restricted candidate set; DFS+bound finds the global optimum and
	// MCMC over the same space must reach it.
	g := graph.New("lenet-ish")
	x := g.Input4D("x", 8, 1, 12, 12)
	c := g.Conv2D("conv", x, 4, 3, 3, 1, 1, 1, 1)
	p := g.Pool2D("pool", c, 2, 2, 2, 2, 0, 0)
	f := g.Flatten("flat", p)
	g.Dense("fc", f, 10)
	topo := device.NewSingleNode(2, "P100")
	est := perfmodel.NewAnalyticModel()

	ex := Exhaustive(context.Background(), g, topo, est, ExhaustiveOptions{
		Enum:               config.EnumOptions{MaxDegree: 2},
		MaxCandidatesPerOp: 8,
	})
	if ex.Best == nil {
		t.Fatal("exhaustive found nothing")
	}
	if ex.Explored == 0 {
		t.Fatal("no leaves explored")
	}
	if ex.SpaceSize <= 1 {
		t.Fatalf("space size = %g", ex.SpaceSize)
	}
	if err := ex.Best.Validate(g, topo); err != nil {
		t.Fatal(err)
	}

	// MCMC (unrestricted proposals) should find a strategy at least as
	// good as the optimum of the restricted space.
	opts := DefaultOptions()
	opts.MaxIters = 1500
	res := MCMC(context.Background(), g, topo, est, Initials(g, topo, 5, false), opts)
	if res.BestCost > ex.BestCost {
		t.Fatalf("MCMC best %v worse than restricted-space optimum %v", res.BestCost, ex.BestCost)
	}
}

func TestExhaustivePruningSound(t *testing.T) {
	// With and without pruning must agree; disable pruning by removing
	// the bound via a huge initial best: instead compare two runs with
	// different candidate orders... simplest: assert explored+pruned
	// covers work and optimum is locally optimal.
	g := graph.New("chain")
	x := g.Input4D("x", 4, 2, 8, 8)
	c := g.Conv2D("conv", x, 4, 3, 3, 1, 1, 1, 1)
	f := g.Flatten("flat", c)
	g.Dense("fc", f, 8)
	topo := device.NewSingleNode(2, "P100")
	est := perfmodel.NewAnalyticModel()
	enum := config.EnumOptions{MaxDegree: 2}

	ex := Exhaustive(context.Background(), g, topo, est, ExhaustiveOptions{Enum: enum, MaxCandidatesPerOp: 6})
	// The global optimum of the space has no improving neighbour within
	// the same space.
	best, improving, checked := Neighborhood(g, topo, est, ex.Best, enum, 1)
	if checked == 0 {
		t.Fatal("no neighbours checked")
	}
	if improving != nil && best < ex.BestCost {
		// Neighborhood enumerates the full per-op candidate list, which
		// can exceed MaxCandidatesPerOp; only flag genuine violations
		// within the truncated candidate set.
		t.Fatalf("exhaustive optimum has improving neighbour: %v < %v", best, ex.BestCost)
	}
}

func TestPolishReachesLocalOptimum(t *testing.T) {
	g := tinyMLP()
	topo := device.NewSingleNode(2, "P100")
	est := perfmodel.NewAnalyticModel()
	bad := config.NewStrategy(g)
	for _, op := range g.ComputeOps() {
		bad.Set(op.ID, config.OnDevice(op, 0))
	}
	base, _ := Evaluate(g, topo, est, bad, taskgraph.Options{})
	enum := config.EnumOptions{}
	polished, cost := Polish(context.Background(), g, topo, est, bad, PolishOptions{Enum: enum})
	if cost >= base {
		t.Fatalf("polish did not improve all-on-one-device: %v vs %v", cost, base)
	}
	// The polished strategy has no improving neighbour (local optimum).
	best, improving, _ := Neighborhood(g, topo, est, polished, enum, 1)
	if improving != nil && best < cost {
		t.Fatalf("polished strategy has improving neighbour: %v < %v", best, cost)
	}
	// Polishing a local optimum is a no-op.
	again, cost2 := Polish(context.Background(), g, topo, est, polished, PolishOptions{Enum: enum, MaxRounds: 3})
	if cost2 != cost || !again.Equal(polished) {
		t.Fatalf("re-polish changed the strategy: %v vs %v", cost2, cost)
	}
}

func TestNeighborhoodFindsImprovement(t *testing.T) {
	// A deliberately bad strategy (everything on one device) must have
	// an improving neighbour on a 2-GPU node.
	g := tinyMLP()
	topo := device.NewSingleNode(2, "P100")
	est := perfmodel.NewAnalyticModel()
	bad := config.NewStrategy(g)
	for _, op := range g.ComputeOps() {
		bad.Set(op.ID, config.OnDevice(op, 0))
	}
	base, _ := Evaluate(g, topo, est, bad, taskgraph.Options{})
	best, improving, _ := Neighborhood(g, topo, est, bad, config.EnumOptions{}, 1)
	if improving == nil || best >= base {
		t.Fatalf("no improving neighbour found for all-on-one-device (base %v, best %v)", base, best)
	}
}

func TestOptCNNLinearChain(t *testing.T) {
	g := graph.New("linear")
	x := g.Input4D("x", 64, 16, 32, 32)
	c1 := g.Conv2D("c1", x, 32, 3, 3, 1, 1, 1, 1)
	c2 := g.Conv2D("c2", c1, 32, 3, 3, 1, 1, 1, 1)
	f := g.Flatten("f", c2)
	g.Dense("fc", f, 256)
	topo := device.NewSingleNode(2, "P100")
	est := perfmodel.NewAnalyticModel()

	s, err := OptCNN(context.Background(), g, topo, est, config.EnumOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Validate(g, topo); err != nil {
		t.Fatalf("OptCNN strategy invalid: %v", err)
	}
	cost, _ := Evaluate(g, topo, est, s, taskgraph.Options{})
	// OptCNN should beat the trivial single-device strategy.
	single := config.NewStrategy(g)
	for _, op := range g.ComputeOps() {
		single.Set(op.ID, config.OnDevice(op, 0))
	}
	singleCost, _ := Evaluate(g, topo, est, single, taskgraph.Options{})
	if cost >= singleCost {
		t.Fatalf("OptCNN %v not better than single device %v", cost, singleCost)
	}
}

func TestOptCNNNonLinearGraph(t *testing.T) {
	g := graph.New("branchy")
	x := g.Input4D("x", 8, 4, 16, 16)
	a := g.Conv2D("a", x, 8, 1, 1, 1, 1, 0, 0)
	b := g.Conv2D("b", x, 8, 3, 3, 1, 1, 1, 1)
	g.ConcatChannels("cat", a, b)
	if g.IsLinear() {
		t.Fatal("test graph should be non-linear")
	}
	topo := device.NewSingleNode(2, "P100")
	s, err := OptCNN(context.Background(), g, topo, perfmodel.NewAnalyticModel(), config.EnumOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Validate(g, topo); err != nil {
		t.Fatalf("OptCNN (greedy) strategy invalid: %v", err)
	}
}

func TestReinforcePlacement(t *testing.T) {
	g := tinyMLP()
	topo := device.NewSingleNode(4, "P100")
	est := perfmodel.NewAnalyticModel()
	opts := DefaultReinforceOptions()
	opts.Episodes = 150
	opts.Seed = 2
	res := Reinforce(context.Background(), g, topo, est, opts)
	if res.Best == nil || res.Episodes != 150 {
		t.Fatalf("result %+v", res)
	}
	if err := res.Best.Validate(g, topo); err != nil {
		t.Fatal(err)
	}
	// Every op is placed whole (model parallelism only).
	for _, op := range g.ComputeOps() {
		if res.Best.Config(op.ID).NumTasks() != 1 {
			t.Fatalf("REINFORCE split op %q", op.Name)
		}
	}
	// FlexFlow's broader space should match or beat it (Figure 10a).
	mopts := DefaultOptions()
	mopts.MaxIters = 800
	ff := MCMC(context.Background(), g, topo, est, Initials(g, topo, 1, false), mopts)
	if ff.BestCost > res.BestCost {
		t.Fatalf("FlexFlow %v worse than REINFORCE %v", ff.BestCost, res.BestCost)
	}
}

// TestMCMCInputOnlyGraph runs MCMC on a graph with no compute ops, as
// an imported graph may be: there is nothing to propose, so every chain
// returns its start after no draws instead of panicking on an empty
// op draw.
func TestMCMCInputOnlyGraph(t *testing.T) {
	g := graph.New("inputs")
	g.Input4D("x", 8, 3, 4, 4)
	topo := device.NewSingleNode(2, "P100")
	var final []ProgressEvent
	opts := DefaultOptions()
	opts.Workers = 1
	opts.OnEvent = func(ev ProgressEvent) {
		if ev.Final {
			final = append(final, ev)
		}
	}
	res := MCMC(context.Background(), g, topo, perfmodel.NewAnalyticModel(), Initials(g, topo, 1, false), opts)
	if res.Best == nil || res.Iters != 0 || res.BestCost != 0 {
		t.Fatalf("got Best %v, %d proposals, cost %v; want the empty start, none, 0", res.Best, res.Iters, res.BestCost)
	}
	for _, ev := range final {
		if ev.Iter != 0 {
			t.Errorf("chain %d: final event after %d draws, want 0", ev.Chain, ev.Iter)
		}
	}
}

func TestSoftmaxHelpers(t *testing.T) {
	p := softmax([]float64{0, 0, 0})
	for _, pi := range p {
		if pi < 0.33 || pi > 0.34 {
			t.Fatalf("uniform softmax = %v", p)
		}
	}
	p = softmax([]float64{100, 0, 0})
	if p[0] < 0.99 {
		t.Fatalf("peaked softmax = %v", p)
	}
	rng := rand.New(rand.NewSource(1))
	counts := make([]int, 3)
	for i := 0; i < 3000; i++ {
		counts[sampleSoftmax([]float64{0, 0, 0}, rng)]++
	}
	for i, c := range counts {
		if c < 800 || c > 1200 {
			t.Fatalf("sampleSoftmax skewed: counts[%d] = %d", i, c)
		}
	}
}

func TestEvaluateMetrics(t *testing.T) {
	g := tinyMLP()
	topo := device.NewSingleNode(2, "P100")
	cost, m := Evaluate(g, topo, perfmodel.NewAnalyticModel(), config.DataParallel(g, topo), taskgraph.Options{})
	if cost <= 0 || m.NumTasks == 0 {
		t.Fatalf("cost %v, metrics %+v", cost, m)
	}
}
