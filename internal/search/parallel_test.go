package search

import (
	"context"
	"runtime"
	"sync"
	"testing"
	"time"

	"flexflow/internal/calib"
	"flexflow/internal/config"
	"flexflow/internal/device"
	"flexflow/internal/graph"
	"flexflow/internal/models"
	"flexflow/internal/perfmodel"
)

// parallelCases are the models of the Workers=1 vs Workers=N
// differential; three distinct architectures (issue requirement: >= 3).
func parallelCases() []struct {
	name string
	g    *graph.Graph
} {
	return []struct {
		name string
		g    *graph.Graph
	}{
		{"tinyMLP", tinyMLP()},
		{"lenet", models.LeNet(16)},
		{"rnnlm-2step", models.RNNLM(16, 2)},
	}
}

// TestMCMCParallelMatchesSerial is the determinism differential of the
// concurrent runtime: for a fixed seed and iteration budget the search
// must return bit-identical results no matter how many workers execute
// the chain pool. Run under -race this also certifies the fan-out shares
// no unsynchronized state.
func TestMCMCParallelMatchesSerial(t *testing.T) {
	t.Parallel()
	for _, c := range parallelCases() {
		for _, seed := range []int64{1, 7} {
			topo := device.NewSingleNode(4, "P100")
			est := perfmodel.NewAnalyticModel()
			opts := DefaultOptions()
			opts.MaxIters = 200
			opts.Seed = seed
			initials := Initials(c.g, topo, seed, true)

			opts.Workers = 1
			serial := MCMC(context.Background(), c.g, topo, est, initials, opts)
			for _, workers := range []int{runtime.NumCPU(), 3} {
				opts.Workers = workers
				pl := MCMC(context.Background(), c.g, topo, est, initials, opts)
				if pl.BestCost != serial.BestCost {
					t.Errorf("%s seed %d workers %d: BestCost %v != serial %v", c.name, seed, workers, pl.BestCost, serial.BestCost)
				}
				if !pl.Best.Equal(serial.Best) {
					t.Errorf("%s seed %d workers %d: Best strategy differs from serial", c.name, seed, workers)
				}
				if pl.Iters != serial.Iters || pl.Accepted != serial.Accepted {
					t.Errorf("%s seed %d workers %d: Iters/Accepted %d/%d != serial %d/%d",
						c.name, seed, workers, pl.Iters, pl.Accepted, serial.Iters, serial.Accepted)
				}
				if pl.SimStats != serial.SimStats {
					t.Errorf("%s seed %d workers %d: SimStats %+v != serial %+v", c.name, seed, workers, pl.SimStats, serial.SimStats)
				}
			}
		}
	}
}

// TestMCMCVirtualBudgetDeterministic pins the virtual-time budget
// contract: a Budget > 0 run stops on the chains' deterministic virtual
// clocks, so everything but the wall-clock SearchTime — including the
// proposal count at which each chain stopped and the full trace — is
// bit-identical across invocations and across Workers values.
func TestMCMCVirtualBudgetDeterministic(t *testing.T) {
	t.Parallel()
	g := tinyMLP()
	topo := device.NewSingleNode(4, "P100")
	est := perfmodel.NewAnalyticModel()
	opts := DefaultOptions()
	opts.MaxIters = 1 << 20 // budget, not MaxIters, must stop the chains
	opts.Budget = 10 * time.Millisecond
	opts.Seed = 3
	initials := Initials(g, topo, 3, true)

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

	opts.Workers = 1
	ref := MCMC(context.Background(), g, topo, est, initials, opts)
	if ref.Iters == 0 || ref.Iters >= opts.MaxIters {
		t.Fatalf("budget did not bind: %d proposals", ref.Iters)
	}
	replay := MCMC(context.Background(), g, topo, est, initials, opts)
	if !same(ref, replay) {
		t.Fatalf("two budgeted invocations diverged: %d/%d iters", ref.Iters, replay.Iters)
	}
	for _, workers := range []int{2, runtime.NumCPU()} {
		opts.Workers = workers
		pl := MCMC(context.Background(), g, topo, est, initials, opts)
		if !same(ref, pl) {
			t.Fatalf("workers=%d budgeted run diverged from serial: %d vs %d iters, %v vs %v",
				workers, pl.Iters, ref.Iters, pl.BestCost, ref.BestCost)
		}
	}

	// The same contract holds under a fixed calibration profile: the
	// profile reprices proposals (so the budget binds at a different
	// proposal count than the built-in constants), and for that fixed
	// profile the run stays bit-identical across invocations and
	// Workers values.
	prof := &calib.Profile{
		Version: calib.Version,
		Modes: map[calib.Mode]calib.Params{
			calib.ModeDelta: {BaseNS: 4_000, PerTaskNS: 37},
			calib.ModeFull:  {BaseNS: 4_000, PerTaskNS: 410},
		},
	}
	opts.Cost = prof
	opts.Workers = 1
	profRef := MCMC(context.Background(), g, topo, est, initials, opts)
	if profRef.Iters == 0 || profRef.Iters >= opts.MaxIters {
		t.Fatalf("budget did not bind under the profile: %d proposals", profRef.Iters)
	}
	if profRef.Iters == ref.Iters {
		t.Fatalf("profile did not change the proposal pricing: %d iters either way", ref.Iters)
	}
	for _, workers := range []int{1, 2, runtime.NumCPU()} {
		opts.Workers = workers
		pl := MCMC(context.Background(), g, topo, est, initials, opts)
		if !same(profRef, pl) {
			t.Fatalf("workers=%d fixed-profile budgeted run diverged: %d vs %d iters, %v vs %v",
				workers, pl.Iters, profRef.Iters, pl.BestCost, profRef.BestCost)
		}
	}

	// The FullSim walk has its own deterministic stopping point: the
	// budget charges it the full-mode price per proposal, so it binds
	// at another proposal count than the delta walk's, and it too
	// replays bit-identically across invocations and Workers values,
	// checked against its own Workers=1 reference.
	opts.Cost = nil
	opts.FullSim = true
	opts.Workers = 1
	fullRef := MCMC(context.Background(), g, topo, est, initials, opts)
	if fullRef.Iters == 0 || fullRef.Iters >= opts.MaxIters {
		t.Fatalf("fullsim: budget did not bind: %d proposals", fullRef.Iters)
	}
	if fullRef.Iters == ref.Iters {
		t.Fatalf("fullsim: budget bound at the delta walk's %d proposals; the mode did not change the pricing", ref.Iters)
	}
	for _, workers := range []int{1, 2, runtime.NumCPU()} {
		opts.Workers = workers
		pl := MCMC(context.Background(), g, topo, est, initials, opts)
		if !same(fullRef, pl) {
			t.Fatalf("fullsim workers=%d budgeted run diverged: %d vs %d iters, %v vs %v",
				workers, pl.Iters, fullRef.Iters, pl.BestCost, fullRef.BestCost)
		}
	}
}

// Shared estimator caches must not perturb the walk either: the
// MeasuringEstimator resolves concurrent misses to the same value, so
// parallel chains sharing one cache still reproduce the serial result.
func TestMCMCParallelSharedMeasuringEstimator(t *testing.T) {
	t.Parallel()
	g := tinyMLP()
	topo := device.NewSingleNode(4, "P100")
	opts := DefaultOptions()
	opts.MaxIters = 150
	initials := Initials(g, topo, 1, true)

	run := func(workers int) Result {
		est := perfmodel.NewMeasuringEstimator(perfmodel.NewAnalyticModel().ExecTime, 1)
		opts.Workers = workers
		return MCMC(context.Background(), g, topo, est, initials, opts)
	}
	serial := run(1)
	parallel := run(runtime.NumCPU())
	if serial.BestCost != parallel.BestCost || !serial.Best.Equal(parallel.Best) || serial.Iters != parallel.Iters {
		t.Fatalf("shared-estimator parallel run diverged: %v/%d vs %v/%d",
			parallel.BestCost, parallel.Iters, serial.BestCost, serial.Iters)
	}
}

func TestMCMCContextAlreadyCancelled(t *testing.T) {
	t.Parallel()
	g := tinyMLP()
	topo := device.NewSingleNode(4, "P100")
	ctx, cancel := context.WithCancel(context.Background())
	cancel() // cancelled before it starts: every chain returns after its initial sim
	opts := DefaultOptions()
	opts.MaxIters = 100000
	res := MCMC(ctx, g, topo, perfmodel.NewAnalyticModel(), Initials(g, topo, 1, false), opts)
	if res.Iters != 0 {
		t.Fatalf("cancelled search still ran %d proposals", res.Iters)
	}
	if res.Best == nil || res.BestCost <= 0 {
		t.Fatalf("cancelled search lost the initial evaluation: %+v", res)
	}
}

func TestMCMCCancelMidFlight(t *testing.T) {
	t.Parallel()
	g := tinyMLP()
	topo := device.NewSingleNode(4, "P100")
	ctx, cancel := context.WithCancel(context.Background())
	opts := DefaultOptions()
	opts.MaxIters = 1 << 30 // effectively unbounded: only ctx can stop it
	opts.Workers = 2
	done := make(chan Result, 1)
	go func() {
		done <- MCMC(ctx, g, topo, perfmodel.NewAnalyticModel(), Initials(g, topo, 1, false), opts)
	}()
	time.Sleep(50 * time.Millisecond)
	cancel()
	select {
	case res := <-done:
		if res.Best == nil {
			t.Fatal("cancelled search returned no strategy")
		}
	case <-time.After(30 * time.Second):
		t.Fatal("search did not stop after cancel")
	}
}

// TestMCMCProgressEvents checks the streaming contract: a per-chain
// iter-0 event, events on improvements, and one Final event per chain,
// with BestCost matching the returned result.
func TestMCMCProgressEvents(t *testing.T) {
	t.Parallel()
	g := tinyMLP()
	topo := device.NewSingleNode(4, "P100")
	opts := DefaultOptions()
	opts.MaxIters = 200
	var mu sync.Mutex
	var events []ProgressEvent
	opts.OnEvent = func(ev ProgressEvent) {
		mu.Lock()
		events = append(events, ev)
		mu.Unlock()
	}
	initials := Initials(g, topo, 1, true)
	res := MCMC(context.Background(), g, topo, perfmodel.NewAnalyticModel(), initials, opts)

	finals := 0
	var finalBest time.Duration = 1<<62 - 1
	for _, ev := range events {
		if ev.Algorithm != "mcmc" {
			t.Fatalf("wrong algorithm %q", ev.Algorithm)
		}
		if ev.Chain < 0 || ev.Chain >= len(initials) {
			t.Fatalf("chain %d out of range", ev.Chain)
		}
		if ev.Final {
			finals++
			if ev.BestCost < finalBest {
				finalBest = ev.BestCost
			}
		}
	}
	if finals != len(initials) {
		t.Fatalf("final events = %d, want one per chain (%d)", finals, len(initials))
	}
	if finalBest != res.BestCost {
		t.Fatalf("best final event %v != result %v", finalBest, res.BestCost)
	}
}

// TestExhaustiveParallelMatchesSerial pins the parallel DFS contract:
// the optimum cost is worker-count independent (the shared bound can
// only prune subtrees that cannot contain a strictly better leaf), and
// every explored+pruned accounting still covers the space.
func TestExhaustiveParallelMatchesSerial(t *testing.T) {
	t.Parallel()
	g := models.LeNet(32)
	topo := device.NewSingleNode(2, "P100")
	est := perfmodel.NewAnalyticModel()
	base := ExhaustiveOptions{
		Enum:               config.EnumOptions{MaxDegree: 2},
		MaxCandidatesPerOp: 4,
	}

	base.Workers = 1
	serial := Exhaustive(context.Background(), g, topo, est, base)
	if serial.Best == nil {
		t.Fatal("serial exhaustive found nothing")
	}
	for _, workers := range []int{2, runtime.NumCPU()} {
		opts := base
		opts.Workers = workers
		pl := Exhaustive(context.Background(), g, topo, est, opts)
		if pl.BestCost != serial.BestCost {
			t.Errorf("workers=%d: BestCost %v != serial %v", workers, pl.BestCost, serial.BestCost)
		}
		if pl.Best == nil {
			t.Errorf("workers=%d: no strategy returned", workers)
		} else if err := pl.Best.Validate(g, topo); err != nil {
			t.Errorf("workers=%d: invalid strategy: %v", workers, err)
		}
		if pl.SpaceSize != serial.SpaceSize {
			t.Errorf("workers=%d: space size %g != %g", workers, pl.SpaceSize, serial.SpaceSize)
		}
	}
}

func TestExhaustiveCancelled(t *testing.T) {
	t.Parallel()
	g := models.LeNet(32)
	topo := device.NewSingleNode(2, "P100")
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	res := Exhaustive(ctx, g, topo, perfmodel.NewAnalyticModel(), ExhaustiveOptions{
		Enum:               config.EnumOptions{MaxDegree: 2},
		MaxCandidatesPerOp: 4,
	})
	if res.Explored != 0 {
		t.Fatalf("pre-cancelled DFS still simulated %d leaves", res.Explored)
	}
}

// TestReinforceParallelMatchesSerial is the episode-rollout analogue of
// the MCMC differential (ROADMAP item): per-episode derived seeds plus
// batch-snapshot sampling make the learner bit-identical for every
// Workers value. Run under -race this certifies the rollout fan-out.
func TestReinforceParallelMatchesSerial(t *testing.T) {
	t.Parallel()
	for _, c := range parallelCases() {
		topo := device.NewSingleNode(4, "P100")
		est := perfmodel.NewAnalyticModel()
		opts := DefaultReinforceOptions()
		opts.Episodes = 60
		opts.Seed = 5

		opts.Workers = 1
		serial := Reinforce(context.Background(), c.g, topo, est, opts)
		if serial.Best == nil || serial.Episodes != 60 {
			t.Fatalf("%s: degenerate serial result %+v", c.name, serial)
		}
		for _, workers := range []int{3, runtime.NumCPU()} {
			opts.Workers = workers
			pl := Reinforce(context.Background(), c.g, topo, est, opts)
			if pl.BestCost != serial.BestCost || !pl.Best.Equal(serial.Best) || pl.Episodes != serial.Episodes {
				t.Errorf("%s workers %d: %v/%d episodes != serial %v/%d",
					c.name, workers, pl.BestCost, pl.Episodes, serial.BestCost, serial.Episodes)
			}
		}
	}
}

func TestReinforceCancelled(t *testing.T) {
	t.Parallel()
	g := tinyMLP()
	topo := device.NewSingleNode(2, "P100")
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	res := Reinforce(ctx, g, topo, perfmodel.NewAnalyticModel(), DefaultReinforceOptions())
	if res.Episodes != 0 {
		t.Fatalf("pre-cancelled learner still ran %d episodes", res.Episodes)
	}
}

// TestNeighborhoodParallelMatchesSerial pins the parallel Polish inner
// loop: the per-op candidate sweep fans out over the worker pool with a
// private Plan.Instance + cloned State per op, so the best neighbour,
// its cost and the checked count are bit-identical for every Workers
// value. Run under -race this also certifies that workers share only
// the immutable plan and base timeline.
func TestNeighborhoodParallelMatchesSerial(t *testing.T) {
	t.Parallel()
	for _, c := range parallelCases() {
		topo := device.NewSingleNode(4, "P100")
		est := perfmodel.NewAnalyticModel()
		// Sweep from two starting points: data parallelism (often locally
		// optimal) and everything-on-one-device (always improvable).
		starts := map[string]*config.Strategy{
			"data-parallel": config.DataParallel(c.g, topo),
		}
		single := config.NewStrategy(c.g)
		for _, op := range c.g.ComputeOps() {
			single.Set(op.ID, config.OnDevice(op, 0))
		}
		starts["single-device"] = single

		for name, s := range starts {
			enum := config.EnumOptions{MaxDegree: 4}
			serialCost, serialBest, serialChecked := Neighborhood(c.g, topo, est, s, enum, 1)
			if serialChecked == 0 {
				t.Fatalf("%s/%s: no neighbours checked", c.name, name)
			}
			for _, workers := range []int{2, 3, runtime.NumCPU()} {
				cost, best, checked := Neighborhood(c.g, topo, est, s, enum, workers)
				if cost != serialCost || checked != serialChecked {
					t.Errorf("%s/%s workers=%d: (cost %v, checked %d) != serial (%v, %d)",
						c.name, name, workers, cost, checked, serialCost, serialChecked)
				}
				switch {
				case (best == nil) != (serialBest == nil):
					t.Errorf("%s/%s workers=%d: improving nil-ness differs from serial", c.name, name, workers)
				case best != nil && !best.Equal(serialBest):
					t.Errorf("%s/%s workers=%d: improving strategy differs from serial", c.name, name, workers)
				}
			}
		}
	}
}

// TestPolishParallelMatchesSerial runs the full descent on top of the
// parallel Neighborhood: identical local optimum for every Workers
// value.
func TestPolishParallelMatchesSerial(t *testing.T) {
	t.Parallel()
	g := tinyMLP()
	topo := device.NewSingleNode(4, "P100")
	est := perfmodel.NewAnalyticModel()
	bad := config.NewStrategy(g)
	for _, op := range g.ComputeOps() {
		bad.Set(op.ID, config.OnDevice(op, 0))
	}
	opts := PolishOptions{Enum: config.EnumOptions{MaxDegree: 4}}
	opts.Workers = 1
	serialBest, serialCost := Polish(context.Background(), g, topo, est, bad, opts)
	for _, workers := range []int{2, runtime.NumCPU()} {
		opts.Workers = workers
		best, cost := Polish(context.Background(), g, topo, est, bad, opts)
		if cost != serialCost || !best.Equal(serialBest) {
			t.Errorf("workers=%d: polish (%v) != serial (%v)", workers, cost, serialCost)
		}
	}
}

func TestChainSeedsDecorrelated(t *testing.T) {
	t.Parallel()
	seen := map[int64]bool{}
	for master := int64(0); master < 4; master++ {
		for chain := 0; chain < 64; chain++ {
			s := chainSeed(master, chain)
			if seen[s] {
				t.Fatalf("duplicate chain seed %d (master %d, chain %d)", s, master, chain)
			}
			seen[s] = true
		}
	}
}
