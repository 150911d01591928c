package search

import (
	"context"
	"sync"
	"testing"
	"time"

	"flexflow/internal/calib"
	"flexflow/internal/config"
	"flexflow/internal/device"
	"flexflow/internal/models"
	"flexflow/internal/perfmodel"
	"flexflow/internal/taskgraph"
)

func TestProposalCostScaling(t *testing.T) {
	cm := calib.Default()
	small := cm.ProposalCost("mlp", 100, false)
	big := cm.ProposalCost("mlp", 10000, false)
	if big <= small {
		t.Fatalf("delta proposal cost must grow with graph size: %v vs %v", big, small)
	}
	if full := cm.ProposalCost("mlp", 10000, true); full <= big {
		t.Fatalf("full-sim proposal (%v) must cost more than delta (%v)", full, big)
	}
}

// TestSetCostProfile pins the process-wide default: a nil-Cost search
// is priced by the installed profile, nil restores the built-in
// constants, and the previous profile is returned for scoped swaps.
func TestSetCostProfile(t *testing.T) {
	fixed := &calib.Profile{
		Version: calib.Version,
		Modes: map[calib.Mode]calib.Params{
			calib.ModeDelta: {BaseNS: 1000, PerTaskNS: 10},
			calib.ModeFull:  {BaseNS: 1000, PerTaskNS: 100},
		},
	}
	g := tinyMLP()
	topo := device.NewSingleNode(4, "P100")
	initials := Initials(g, topo, 5, false)
	// iters is how many proposals a budgeted search priced by cost
	// (nil = the installed profile) gets through.
	iters := func(cost *calib.Profile) int {
		opts := DefaultOptions()
		opts.MaxIters = 400
		opts.Budget = 2 * time.Millisecond
		opts.Cost = cost
		return MCMC(context.Background(), g, topo, perfmodel.NewAnalyticModel(), initials, opts).Iters
	}
	if iters(fixed) == iters(calib.Default()) {
		t.Fatal("the two profiles buy the same proposal count, so the test cannot tell them apart")
	}
	prev := SetCostProfile(fixed)
	defer SetCostProfile(prev)
	if got, want := iters(nil), iters(fixed); got != want {
		t.Fatalf("installed profile not active: %d proposals, want %d", got, want)
	}
	if restored := SetCostProfile(nil); restored != fixed {
		t.Fatalf("SetCostProfile did not return the previous profile")
	}
	if got, want := iters(nil), iters(calib.Default()); got != want {
		t.Fatalf("nil did not restore the built-in constants: %d proposals, want %d", got, want)
	}
	SetCostProfile(fixed) // leave as found for the deferred restore
}

// TestVirtualTimeDriftReport closes the calibration loop: it fits a
// cost profile on this machine (internal/calib, the same measurement
// `flexflow -calibrate` runs), drives a single-worker micro-search with
// the fitted profile as its Cost, and compares the wall clock
// against the virtual clock the budget machinery charged. The built-in
// order-of-magnitude constants are logged alongside for comparison; the
// *fitted* profile must price proposals within 10x of measured reality
// — calibration just ran on this very machine, so a persistent larger
// gap means the fit, not the machine, is wrong. Wall-clock measurement
// on a shared CI box is still noisy (another test binary can saturate
// the CPU during one window but not the other), so an out-of-bounds
// attempt re-calibrates and re-measures before it counts as a failure.
func TestVirtualTimeDriftReport(t *testing.T) {
	if testing.Short() {
		t.Skip("wall-clock micro-benchmark; skipped in -short")
	}
	const model, scale = "lenet", 16
	spec, err := models.Get(model)
	if err != nil {
		t.Fatal(err)
	}
	g := spec.BuildScaled(scale)
	topo := device.NewSingleNode(4, "P100")
	est := perfmodel.NewMeasuringEstimator(perfmodel.NewAnalyticModel().ExecTime, 1)
	init := config.DataParallel(g, topo)
	tg := taskgraph.Build(g, topo, init.Clone(), est, taskgraph.Options{})
	numTasks := len(tg.Tasks)

	modes := []struct {
		name    string
		fullSim bool
		iters   int
	}{{"delta", false, 1500}, {"full", true, 300}}

	// attempt calibrates and measures once, reporting each mode's
	// wall-vs-fitted-virtual drift ratio.
	attempt := func() map[string]float64 {
		prof, err := calib.Calibrate(context.Background(), calib.Options{
			Models:         []string{model},
			Scale:          scale,
			Batches:        2,
			DeltaProposals: 200,
			FullProposals:  25,
		})
		if err != nil {
			t.Fatal(err)
		}
		drifts := map[string]float64{}
		for _, mode := range modes {
			opts := DefaultOptions()
			opts.MaxIters = mode.iters
			opts.Workers = 1
			opts.FullSim = mode.fullSim
			opts.Cost = prof
			charged := prof.ProposalCost(model, numTasks, mode.fullSim)
			builtin := calib.Default().ProposalCost(model, numTasks, mode.fullSim)

			start := time.Now()
			res := MCMC(context.Background(), g, topo, est, []*config.Strategy{init.Clone()}, opts)
			wall := time.Since(start)
			if res.Iters == 0 {
				t.Fatalf("%s: no proposals executed", mode.name)
			}
			virtual := time.Duration(res.Iters) * charged
			measured := wall / time.Duration(res.Iters)
			drift := float64(wall) / float64(virtual)
			drifts[mode.name] = drift
			t.Logf("%s-sim drift: wall %v vs virtual %v over %d proposals "+
				"(measured %v/proposal; fitted charges %v, drift %.2fx; builtin would charge %v, drift %.2fx; %d tasks)",
				mode.name, wall.Round(time.Microsecond), virtual, res.Iters,
				measured.Round(time.Nanosecond), charged, drift,
				builtin, float64(measured)/float64(builtin), numTasks)
		}
		return drifts
	}

	inBounds := func(d float64) bool { return d >= 0.1 && d <= 10 }
	const maxAttempts = 3
	for try := 1; try <= maxAttempts; try++ {
		drifts := attempt()
		ok := true
		for _, d := range drifts {
			if !inBounds(d) {
				ok = false
			}
		}
		if ok {
			return
		}
		if try < maxAttempts {
			t.Logf("drift out of bounds (%v) on attempt %d — transient load? re-calibrating", drifts, try)
			continue
		}
		for name, d := range drifts {
			if !inBounds(d) {
				t.Errorf("%s-sim: fitted profile persistently drifts %.2fx from wall clock across %d calibrate+measure attempts (want within 10x of unity)",
					name, d, maxAttempts)
			}
		}
	}
}

// flatCost is a profile charging every proposal price, whatever the
// graph size or simulation mode.
func flatCost(price time.Duration) *calib.Profile {
	flat := calib.Params{BaseNS: float64(price)}
	return &calib.Profile{
		Version: calib.Version,
		Modes:   map[calib.Mode]calib.Params{calib.ModeDelta: flat, calib.ModeFull: flat},
	}
}

// TestMCMCFinalEventClock pins MCMC's progress events to one clock, the
// chain's draws: on tinyMLP over 2 GPUs, sample-dimension proposals
// from data parallelism redraw the current config often enough that
// some draws are skipped as no-ops, yet each still advances the virtual
// clock, so each chain's final event must report the draws taken and
// their virtual time, at least as far as any earlier event of the
// chain.
func TestMCMCFinalEventClock(t *testing.T) {
	const price = time.Millisecond
	g := tinyMLP()
	topo := device.NewSingleNode(2, "P100")
	init := config.DataParallel(g, topo)
	for _, tc := range []struct {
		name   string
		budget time.Duration
		draws  int
	}{
		{"unbudgeted", 0, 150},
		{"budgeted", 40 * price, 40},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var mu sync.Mutex
			events := map[int][]ProgressEvent{}
			opts := DefaultOptions()
			opts.MaxIters = 150
			opts.Seed = 5
			opts.Space = SpaceSample
			opts.Budget = tc.budget
			opts.Cost = flatCost(price)
			opts.OnEvent = func(ev ProgressEvent) {
				mu.Lock()
				events[ev.Chain] = append(events[ev.Chain], ev)
				mu.Unlock()
			}
			res := MCMC(context.Background(), g, topo, perfmodel.NewAnalyticModel(), []*config.Strategy{init}, opts)
			if res.Iters >= tc.draws {
				t.Fatalf("%d priced proposals in %d draws: the run skips none, so it cannot tell the clocks apart", res.Iters, tc.draws)
			}
			if len(events) == 0 {
				t.Fatal("no progress events")
			}
			for chain, evs := range events {
				final := evs[len(evs)-1]
				if !final.Final {
					t.Fatalf("chain %d: last event %+v is not final", chain, final)
				}
				if final.Iter != tc.draws || final.Elapsed != time.Duration(tc.draws)*price {
					t.Errorf("chain %d: final event at Iter %d, Elapsed %v; the chain stopped after %d draws, %v",
						chain, final.Iter, final.Elapsed, tc.draws, time.Duration(tc.draws)*price)
				}
				for _, ev := range evs[:len(evs)-1] {
					if ev.Final || ev.Iter > final.Iter || ev.Elapsed > final.Elapsed {
						t.Errorf("chain %d: event %+v comes before the final one %+v", chain, ev, final)
					}
				}
			}
		})
	}
}
