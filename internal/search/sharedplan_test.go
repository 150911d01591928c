package search

import (
	"context"
	"fmt"
	"math/rand"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"flexflow/internal/config"
	"flexflow/internal/device"
	"flexflow/internal/graph"
	"flexflow/internal/par"
	"flexflow/internal/perfmodel"
	"flexflow/internal/taskgraph"
	"flexflow/internal/tensor"
)

// The shared-plan tests pin MCMC's compile-on-the-chain's-worker path:
// one plan slot per distinct initial, filled by whichever chain gets
// there first. Their names carry "SharedPlan" so CI's concurrency-
// contract step runs them under the race detector.

// sameResult reports the first difference between two MCMC results
// over everything the determinism contract covers (all but SearchTime).
func sameResult(got, ref Result) string {
	switch {
	case got.BestCost != ref.BestCost || !got.Best.Equal(ref.Best):
		return fmt.Sprintf("Best/BestCost %v differ from reference %v", got.BestCost, ref.BestCost)
	case got.Iters != ref.Iters || got.Accepted != ref.Accepted:
		return fmt.Sprintf("Iters/Accepted %d/%d != reference %d/%d", got.Iters, got.Accepted, ref.Iters, ref.Accepted)
	case got.SimStats != ref.SimStats:
		return fmt.Sprintf("SimStats %+v != reference %+v", got.SimStats, ref.SimStats)
	case len(got.Trace) != len(ref.Trace):
		return fmt.Sprintf("trace length %d != reference %d", len(got.Trace), len(ref.Trace))
	}
	for i := range ref.Trace {
		if got.Trace[i] != ref.Trace[i] {
			return fmt.Sprintf("trace[%d] = %+v != reference %+v", i, got.Trace[i], ref.Trace[i])
		}
	}
	return ""
}

// TestMCMCSharedPlanPoolSizeDifferential runs MCMC from duplicated
// initials — [DP, random, DP], where two chains share one plan slot,
// and the paper's default candidates with the expert strategy — and
// requires results bit-identical to the strictest serialization
// (pool=1, Workers=1) for pools of 1, 2, 4 and NumCPU crossed with the
// per-search Workers caps. Whichever chain compiles a shared slot, and
// whichever order the chains run in, the walks must not move.
func TestMCMCSharedPlanPoolSizeDifferential(t *testing.T) {
	prev := par.WorkerBound()
	defer par.SetWorkers(prev)

	g := tinyMLP()
	topo := device.NewSingleNode(4, "P100")
	est := perfmodel.NewAnalyticModel()
	opts := DefaultOptions()
	opts.MaxIters = 120
	opts.Seed = 13
	dp := config.DataParallel(g, topo)
	random := config.Random(g, topo, rand.New(rand.NewSource(13)))
	sets := map[string][]*config.Strategy{
		"dp-random-dp": {dp, random, dp.Clone()},
		"initials":     Initials(g, topo, 13, true),
	}
	for name, initials := range sets {
		opts.Workers = 1
		par.SetWorkers(1)
		ref := MCMC(context.Background(), g, topo, est, initials, opts)
		if ref.Iters == 0 || ref.Best == nil {
			t.Fatalf("%s: degenerate reference result: %+v", name, ref)
		}
		for _, pool := range []int{1, 2, 4, runtime.NumCPU()} {
			for _, workers := range []int{0, 1, 2} {
				par.SetWorkers(pool)
				opts.Workers = workers
				got := MCMC(context.Background(), g, topo, est, initials, opts)
				if diff := sameResult(got, ref); diff != "" {
					t.Errorf("%s pool=%d workers=%d: %s", name, pool, workers, diff)
				}
			}
		}
	}
}

// TestMCMCSharedPlanCompilePanic passes an invalid strategy straight to
// MCMC (bypassing the optimizers' validation): the compile panics on a
// pool worker, and the panic must reach the caller — with the
// builder's own message, not a nil dereference from a chain that found
// its shared slot empty — while the chains waiting on the same slot
// neither hang nor run.
func TestMCMCSharedPlanCompilePanic(t *testing.T) {
	prev := par.WorkerBound()
	defer par.SetWorkers(prev)

	g := tinyMLP()
	topo := device.NewSingleNode(4, "P100")
	bad := config.DataParallel(g, topo)
	bad.Set(g.ComputeOps()[0].ID, &config.Config{Degrees: []int{1, 1, 1, 1}, Devices: []int{99}})
	good := config.DataParallel(g, topo)
	for _, pool := range []int{1, 2, runtime.NumCPU()} {
		par.SetWorkers(pool)
		for _, initials := range [][]*config.Strategy{
			{bad, bad.Clone(), bad.Clone()},
			{good, bad, bad.Clone(), good.Clone()},
		} {
			done := make(chan any, 1)
			go func() {
				defer func() { done <- recover() }()
				MCMC(context.Background(), g, topo, perfmodel.NewAnalyticModel(), initials, Options{MaxIters: 20})
			}()
			select {
			case r := <-done:
				msg := fmt.Sprint(r)
				if r == nil || !strings.Contains(msg, "taskgraph") || !strings.Contains(msg, "unknown device 99") {
					t.Fatalf("pool=%d chains=%d: recovered %q, want the builder's invalid-strategy panic", pool, len(initials), msg)
				}
			case <-time.After(30 * time.Second):
				t.Fatalf("pool=%d chains=%d: MCMC hung after a compile panic", pool, len(initials))
			}
		}
	}
}

// gatedEstimator blocks every query for an op's full output region on
// one device until gate closes — a compile that waits for another
// chain's progress — or, failing that, for one timeout in all. Data parallelism never asks for a full region
// (it splits the sample dimension), so only the gated initial blocks.
type gatedEstimator struct {
	perfmodel.Estimator
	dev     int
	gate    chan struct{}
	expired atomic.Bool
}

func (e *gatedEstimator) ExecTime(op *graph.Op, out tensor.Region, dev device.Device, pass perfmodel.Pass) time.Duration {
	if dev.ID == e.dev && out.Equal(op.Out.FullRegion()) && !e.expired.Load() {
		select {
		case <-e.gate:
		case <-time.After(10 * time.Second):
			e.expired.Store(true)
		}
	}
	return e.Estimator.ExecTime(op, out, dev, pass)
}

// TestMCMCSharedPlanFirstEventBeforeAllCompiles pins the start-up
// overlap: chain 0's Iter-0 event must not wait for chain 1's plan.
// Chain 1's compile is held until chain 0 reports, which only an MCMC
// that compiles each plan on its own chain's worker can satisfy — one
// that compiled every plan before starting any chain would stall until
// the gate's timeout.
func TestMCMCSharedPlanFirstEventBeforeAllCompiles(t *testing.T) {
	prev := par.WorkerBound()
	defer par.SetWorkers(prev)
	par.SetWorkers(2)

	g := tinyMLP()
	topo := device.NewSingleNode(4, "P100")
	onOne := config.NewStrategy(g)
	for _, op := range g.ComputeOps() {
		onOne.Set(op.ID, config.OnDevice(op, 3))
	}
	est := &gatedEstimator{Estimator: perfmodel.NewAnalyticModel(), dev: 3, gate: make(chan struct{})}
	var open sync.Once
	opts := DefaultOptions()
	opts.MaxIters = 30
	opts.OnEvent = func(ev ProgressEvent) {
		if ev.Chain == 0 && ev.Iter == 0 {
			open.Do(func() { close(est.gate) })
		}
	}
	res := MCMC(context.Background(), g, topo, est, []*config.Strategy{config.DataParallel(g, topo), onOne}, opts)
	if est.expired.Load() {
		t.Fatal("chain 1's compile waited out the gate: chain 0 did not start before every plan was compiled")
	}
	if res.Best == nil {
		t.Fatal("no result")
	}
}

// countingEstimator counts queries, so a test can tell one Compile
// from several.
type countingEstimator struct {
	perfmodel.Estimator
	calls atomic.Int64
}

func (e *countingEstimator) ExecTime(op *graph.Op, out tensor.Region, dev device.Device, pass perfmodel.Pass) time.Duration {
	e.calls.Add(1)
	return e.Estimator.ExecTime(op, out, dev, pass)
}

// TestMCMCSharedPlanSlotCompilesOnce races many chains on one slot:
// every caller gets the same plan and base timeline, and the estimator
// sees exactly one Build's worth of queries.
func TestMCMCSharedPlanSlotCompilesOnce(t *testing.T) {
	g := tinyMLP()
	topo := device.NewSingleNode(4, "P100")
	init := config.DataParallel(g, topo)
	one := &countingEstimator{Estimator: perfmodel.NewAnalyticModel()}
	taskgraph.Build(g, topo, init.Clone(), one, taskgraph.Options{})

	est := &countingEstimator{Estimator: perfmodel.NewAnalyticModel()}
	slot := &planSlot{init: init}
	const callers = 8
	starts := make([]chainStart, callers)
	var wg sync.WaitGroup
	for i := range starts {
		wg.Add(1)
		go func() {
			defer wg.Done()
			starts[i] = slot.get(context.Background(), g, topo, est)
		}()
	}
	wg.Wait()
	for i, s := range starts {
		if s.plan == nil || s.plan != starts[0].plan || s.base != starts[0].base {
			t.Fatalf("caller %d got a different chainStart", i)
		}
	}
	if got, want := est.calls.Load(), one.calls.Load(); got != want {
		t.Fatalf("%d callers made %d estimator queries, want one compile's %d", callers, got, want)
	}
}
