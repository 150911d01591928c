package flexflow

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// registryProblem is a model small enough that even the exhaustive
// optimizer (and VerifyStrategy's real float32 kernels) finish fast.
func registryProblem() Problem {
	g := NewGraph("registry-cnn")
	x := g.Input4D("x", 8, 2, 8, 8)
	c := g.Conv2D("conv", x, 4, 3, 3, 1, 1, 1, 1)
	f := g.Flatten("flat", c)
	g.Dense("fc", f, 8)
	return Problem{Graph: g, Topology: NewSingleNode(2, "P100")}
}

// TestOptimizerRegistry drives every registered algorithm through the
// unified API: each must return a valid, numerically correct strategy,
// and each must honor an already-cancelled context by returning
// promptly with an error or a best-so-far strategy.
func TestOptimizerRegistry(t *testing.T) {
	names := Optimizers()
	if len(names) < 5 {
		t.Fatalf("registered optimizers = %v, want at least the five built-ins", names)
	}
	for _, name := range names {
		name := name
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			opt, err := GetOptimizer(name)
			if err != nil {
				t.Fatal(err)
			}
			if opt.Name() != name {
				t.Fatalf("Name() = %q, registered as %q", opt.Name(), name)
			}
			p := registryProblem()
			res, err := opt.Optimize(context.Background(), p, OptimizeOptions{MaxIters: 80, Seed: 1})
			if err != nil {
				t.Fatalf("Optimize: %v", err)
			}
			if res.Algorithm != name {
				t.Fatalf("Result.Algorithm = %q", res.Algorithm)
			}
			if res.Best == nil || res.BestCost <= 0 {
				t.Fatalf("degenerate result %+v", res)
			}
			if err := res.Best.Validate(p.Graph, p.Topology); err != nil {
				t.Fatalf("invalid strategy: %v", err)
			}
			if err := VerifyStrategy(p.Graph, res.Best); err != nil {
				t.Fatalf("strategy not numerically equivalent: %v", err)
			}

			// An already-cancelled context must return promptly, with
			// an error or a usable best-so-far strategy.
			ctx, cancel := context.WithCancel(context.Background())
			cancel()
			start := time.Now()
			res, err = opt.Optimize(ctx, p, OptimizeOptions{MaxIters: 1 << 20, Seed: 1})
			if err == nil && res.Best == nil {
				t.Fatal("cancelled Optimize returned neither error nor strategy")
			}
			if elapsed := time.Since(start); elapsed > 10*time.Second {
				t.Fatalf("cancelled Optimize took %v", elapsed)
			}
		})
	}
}

func TestGetOptimizerUnknown(t *testing.T) {
	if _, err := GetOptimizer("simulated-annealing"); err == nil {
		t.Fatal("unknown optimizer did not error")
	}
}

func TestOptimizeRejectsEmptyProblem(t *testing.T) {
	for _, name := range Optimizers() {
		opt, err := GetOptimizer(name)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := opt.Optimize(context.Background(), Problem{}, OptimizeOptions{}); err == nil {
			t.Fatalf("%s: empty problem did not error", name)
		}
	}
}

// TestOptimizeRejectsInvalidInitial pins the API boundary for seeded
// searches: an Initial that does not fit the problem — a task on a
// device the topology lacks, or a degree vector of the wrong rank — is
// an error from Optimize, never a panic from the task-graph builder.
func TestOptimizeRejectsInvalidInitial(t *testing.T) {
	p := registryProblem()
	conv := p.Graph.ComputeOps()[0]
	wrongDevice := DataParallel(p.Graph, p.Topology)
	wrongDevice.Set(conv.ID, &Config{Degrees: []int{1, 1, 1, 1}, Devices: []int{7}})
	wrongDegree := DataParallel(p.Graph, p.Topology)
	wrongDegree.Set(conv.ID, &Config{Degrees: []int{2, 1}, Devices: []int{0, 1}})
	for _, name := range []string{"mcmc", "polish"} {
		opt, err := GetOptimizer(name)
		if err != nil {
			t.Fatal(err)
		}
		for label, initial := range map[string]*Strategy{"wrong device": wrongDevice, "wrong degree": wrongDegree} {
			res, err := opt.Optimize(context.Background(), p, OptimizeOptions{MaxIters: 20, Initial: initial})
			if err == nil || !strings.Contains(err.Error(), "invalid initial strategy") {
				t.Errorf("%s, %s initial: err = %v, want an invalid-initial error", name, label, err)
			}
			if res.Algorithm != name || res.Best != nil {
				t.Errorf("%s, %s initial: result %+v, want an empty %s result", name, label, res, name)
			}
		}
	}
}

// TestOptimizerProgressStreaming exercises the OnEvent path through the
// facade: events must arrive, carry the right algorithm, and end with
// the returned best cost on a Final event.
func TestOptimizerProgressStreaming(t *testing.T) {
	p := registryProblem()
	opt, err := GetOptimizer("mcmc")
	if err != nil {
		t.Fatal(err)
	}
	var mu sync.Mutex
	var events []ProgressEvent
	res, err := opt.Optimize(context.Background(), p, OptimizeOptions{
		MaxIters: 100, Seed: 1,
		OnEvent: func(ev ProgressEvent) {
			mu.Lock()
			events = append(events, ev)
			mu.Unlock()
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(events) == 0 {
		t.Fatal("no progress events")
	}
	bestSeen := time.Duration(1<<62 - 1)
	finals := 0
	for _, ev := range events {
		if ev.Algorithm != "mcmc" {
			t.Fatalf("event algorithm %q", ev.Algorithm)
		}
		if ev.Final {
			finals++
			if ev.BestCost < bestSeen {
				bestSeen = ev.BestCost
			}
		}
	}
	if finals == 0 {
		t.Fatal("no final events")
	}
	if bestSeen != res.BestCost {
		t.Fatalf("best final event %v != result %v", bestSeen, res.BestCost)
	}
}

// exampleProblem is the tiny model the Example functions share: small
// enough that every optimizer finishes in milliseconds, large enough
// that the search space is non-trivial.
func exampleProblem() Problem {
	g := NewGraph("mlp")
	x := g.Input4D("images", 8, 2, 8, 8)
	c := g.Conv2D("conv", x, 4, 3, 3, 1, 1, 1, 1)
	f := g.Flatten("flat", c)
	g.Dense("fc", f, 8)
	return Problem{Graph: g, Topology: NewSingleNode(2, "P100")}
}

// ExampleGetOptimizer runs the paper's MCMC execution optimizer on a
// small model. The search seeds its initial candidates with data
// parallelism, so the result is never worse than the data-parallel
// baseline — and for a fixed Seed it is bit-identical run to run,
// regardless of the worker-pool size.
func ExampleGetOptimizer() {
	p := exampleProblem()
	opt, err := GetOptimizer("mcmc")
	if err != nil {
		fmt.Println(err)
		return
	}
	res, err := opt.Optimize(context.Background(), p, OptimizeOptions{MaxIters: 80, Seed: 1})
	if err != nil {
		fmt.Println(err)
		return
	}
	dp, _ := Simulate(p.Graph, p.Topology, DataParallel(p.Graph, p.Topology))
	fmt.Println("algorithm:", res.Algorithm)
	fmt.Println("at least as fast as data parallelism:", res.BestCost <= dp)
	// Output:
	// algorithm: mcmc
	// at least as fast as data parallelism: true
}

// ExampleOptimizer shows the contract every registered algorithm
// honors: context-driven cancellation, streaming progress through
// OptimizeOptions.OnEvent (called concurrently — use synchronized
// state), and a usable best strategy on success.
func ExampleOptimizer() {
	p := exampleProblem()
	opt, err := GetOptimizer("mcmc")
	if err != nil {
		fmt.Println(err)
		return
	}
	var events atomic.Int32
	res, err := opt.Optimize(context.Background(), p, OptimizeOptions{
		MaxIters: 60,
		Seed:     1,
		OnEvent:  func(ProgressEvent) { events.Add(1) },
	})
	fmt.Println("err:", err)
	fmt.Println("streamed progress:", events.Load() > 0)
	fmt.Println("found a strategy:", res.Best != nil && res.BestCost > 0)
	// Output:
	// err: <nil>
	// streamed progress: true
	// found a strategy: true
}

// baselineOptimizer is the custom Optimizer of the
// ExampleRegisterOptimizer below: it "searches" by returning the
// data-parallel baseline. A real implementation should honor ctx by
// returning its best-so-far strategy promptly when cancelled.
type baselineOptimizer struct{}

// Name implements Optimizer.
func (baselineOptimizer) Name() string { return "baseline" }

// Optimize implements Optimizer.
func (baselineOptimizer) Optimize(ctx context.Context, p Problem, o OptimizeOptions) (Result, error) {
	if p.Graph == nil || p.Topology == nil {
		return Result{Algorithm: "baseline"}, errors.New("baseline: Problem needs a Graph and a Topology")
	}
	s := DataParallel(p.Graph, p.Topology)
	cost, _ := Simulate(p.Graph, p.Topology, s)
	return Result{Algorithm: "baseline", Best: s, BestCost: cost, Iters: 1}, ctx.Err()
}

// registerBaselineOnce keeps the example rerunnable (go test -count>1
// shares one process, and duplicate registration panics by contract).
var registerBaselineOnce sync.Once

// ExampleRegisterOptimizer plugs a custom algorithm into the registry
// next to the built-ins; anything constructed by GetOptimizer is
// driven through the exact same Optimize contract.
func ExampleRegisterOptimizer() {
	registerBaselineOnce.Do(func() {
		RegisterOptimizer("baseline", func() Optimizer { return baselineOptimizer{} })
	})
	p := exampleProblem()
	opt, err := GetOptimizer("baseline")
	if err != nil {
		fmt.Println(err)
		return
	}
	res, err := opt.Optimize(context.Background(), p, OptimizeOptions{})
	fmt.Println("err:", err)
	fmt.Println("algorithm:", res.Algorithm)
	fmt.Println("valid strategy:", res.Best.Validate(p.Graph, p.Topology) == nil)
	// Output:
	// err: <nil>
	// algorithm: baseline
	// valid strategy: true
}

// ExampleSetWorkers sizes the process-wide worker pool that every
// optimizer and the experiments harness share. The bound changes only
// wall-clock time — results are bit-identical for every pool size —
// so set it once at startup (or leave the all-CPUs default).
func ExampleSetWorkers() {
	prev := WorkerBound()
	defer SetWorkers(prev)
	SetWorkers(2) // cap the whole process at two workers
	fmt.Println("pool bound:", WorkerBound())
	// Output:
	// pool bound: 2
}

// ExampleCalibrate fits a cost profile from real proposal timings —
// the measurement `flexflow -calibrate` runs. The tiny batch sizes
// here keep the example fast; defaults (or a larger spread of Models)
// give a steadier fit. The fitted profile prices the virtual-time
// Budget, so a persisted profile makes a virtual budget of N seconds
// track wall-clock N seconds on the calibrated machine.
func ExampleCalibrate() {
	prof, err := Calibrate(context.Background(), CalibrateOptions{
		Models:         []string{"lenet"},
		Scale:          16,
		Batches:        1,
		DeltaProposals: 40,
		FullProposals:  5,
	})
	if err != nil {
		fmt.Println(err)
		return
	}
	fmt.Println("valid profile:", prof.Validate() == nil)
	fmt.Println("has per-model override:", prof.Models["lenet"] != nil)
	fmt.Println("full costs at least as much as delta:",
		prof.ProposalCost("lenet", 500, true) >= prof.ProposalCost("lenet", 500, false))
	// Output:
	// valid profile: true
	// has per-model override: true
	// full costs at least as much as delta: true
}

// ExampleSetCostProfile installs a cost profile process-wide: every
// budgeted search whose OptimizeOptions.Cost is nil prices proposals
// through it from then on (in practice the profile comes from
// Calibrate or LoadCostProfile). For a fixed profile, budgeted runs
// stay bit-identical across invocations and pool sizes.
func ExampleSetCostProfile() {
	prof := DefaultCostProfile() // stand-in for a Calibrate/LoadCostProfile result
	prev := SetCostProfile(prof)
	defer SetCostProfile(prev)

	p := exampleProblem()
	opt, err := GetOptimizer("mcmc")
	if err != nil {
		fmt.Println(err)
		return
	}
	res, err := opt.Optimize(context.Background(), p, OptimizeOptions{
		Budget: 2 * time.Millisecond, // virtual time, priced by the profile
		Seed:   1,
	})
	fmt.Println("err:", err)
	fmt.Println("installed:", ActiveCostProfile() == prof)
	fmt.Println("budgeted run found a strategy:", res.Best != nil && res.Iters > 0)
	// Output:
	// err: <nil>
	// installed: true
	// budgeted run found a strategy: true
}
