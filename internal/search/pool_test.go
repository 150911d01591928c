package search

import (
	"context"
	"fmt"
	"os"
	"runtime"
	"testing"

	"flexflow/internal/config"
	"flexflow/internal/device"
	"flexflow/internal/par"
	"flexflow/internal/perfmodel"
)

// TestMain widens the process-wide pool for the whole test binary: the
// dev/CI machines can be single-core, and with the default bound of
// NumCPU the Workers differentials would silently compare serial runs
// to serial runs. A floor of four keeps every fan-out in this package
// genuinely concurrent under -race regardless of the host.
func TestMain(m *testing.M) {
	if runtime.NumCPU() < 4 {
		par.SetWorkers(4)
	}
	os.Exit(m.Run())
}

// TestMCMCPoolSizeDifferential is the pool-size analogue of the
// Workers differentials: resizing the process-wide pool itself (not a
// per-search cap) between 1, 2 and NumCPU must leave the MCMC result —
// strategy, cost, proposal counts, stats, trace — bit-identical. The
// contract holds per walk (delta and FullSim), so the differential
// sweeps both, crossed with the per-search Workers cap; the reference
// is always (pool=1, Workers=1), the strictest serialization. It does
// not call t.Parallel: it owns the global pool knob while it runs
// (non-parallel tests execute alone), and restores it before the
// parallel phase starts.
func TestMCMCPoolSizeDifferential(t *testing.T) {
	prev := par.WorkerBound()
	defer par.SetWorkers(prev)

	g := tinyMLP()
	topo := device.NewSingleNode(4, "P100")
	est := perfmodel.NewAnalyticModel()
	opts := DefaultOptions()
	opts.MaxIters = 150
	opts.Seed = 11
	initials := Initials(g, topo, 11, true)

	for _, fullSim := range []bool{false, true} {
		opts.FullSim = fullSim
		opts.Workers = 1
		par.SetWorkers(1)
		ref := MCMC(context.Background(), g, topo, est, initials, opts)
		if ref.Iters == 0 || ref.Best == nil {
			t.Fatalf("fullsim=%t: degenerate reference result: %+v", fullSim, ref)
		}
		type cell struct{ pool, workers int }
		tried := map[cell]bool{{1, 1}: true}
		for _, c := range []cell{
			{2, 0}, {runtime.NumCPU(), 0}, {4, 0},
			{1, 0}, {4, 2}, {4, 1},
		} {
			if tried[c] {
				continue
			}
			tried[c] = true
			par.SetWorkers(c.pool)
			opts.Workers = c.workers
			got := MCMC(context.Background(), g, topo, est, initials, opts)
			label := func() string {
				return fmt.Sprintf("fullsim=%t pool=%d workers=%d", fullSim, c.pool, c.workers)
			}
			if got.BestCost != ref.BestCost || !got.Best.Equal(ref.Best) {
				t.Errorf("%s: Best/BestCost %v differ from reference %v", label(), got.BestCost, ref.BestCost)
			}
			if got.Iters != ref.Iters || got.Accepted != ref.Accepted {
				t.Errorf("%s: Iters/Accepted %d/%d != reference %d/%d",
					label(), got.Iters, got.Accepted, ref.Iters, ref.Accepted)
			}
			if got.SimStats != ref.SimStats {
				t.Errorf("%s: SimStats %+v != reference %+v", label(), got.SimStats, ref.SimStats)
			}
			if len(got.Trace) != len(ref.Trace) {
				t.Errorf("%s: trace length %d != reference %d", label(), len(got.Trace), len(ref.Trace))
				continue
			}
			for i := range ref.Trace {
				if got.Trace[i] != ref.Trace[i] {
					t.Errorf("%s: trace[%d] = %+v != reference %+v", label(), i, got.Trace[i], ref.Trace[i])
					break
				}
			}
		}
	}
}

// TestPolishNestedOnPoolOfOne pins the deadlock-freedom the shared
// pool promises at its degenerate size: Polish (whose Neighborhood
// sweeps fan out) still completes on a pool of one, where every level
// runs inline on the calling goroutine.
func TestPolishNestedOnPoolOfOne(t *testing.T) {
	prev := par.WorkerBound()
	defer par.SetWorkers(prev)
	par.SetWorkers(1)

	g := tinyMLP()
	topo := device.NewSingleNode(4, "P100")
	est := perfmodel.NewAnalyticModel()
	bad := config.NewStrategy(g)
	for _, op := range g.ComputeOps() {
		bad.Set(op.ID, config.OnDevice(op, 0))
	}
	best, cost := Polish(context.Background(), g, topo, est, bad, PolishOptions{})
	if best == nil || cost <= 0 {
		t.Fatalf("pool-of-one Polish degenerate: cost %v", cost)
	}
}
