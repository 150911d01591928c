package calib

import (
	"context"
	"fmt"
	"math/rand"
	"runtime"
	"time"

	"flexflow/internal/config"
	"flexflow/internal/device"
	"flexflow/internal/graph"
	"flexflow/internal/models"
	"flexflow/internal/perfmodel"
	"flexflow/internal/sim"
	"flexflow/internal/taskgraph"
)

// Options configure one Calibrate run. The zero value measures a small
// spread of the model zoo at quick scale — enough for a usable fit in a
// few seconds on a laptop.
type Options struct {
	// Models are model-zoo registry names to measure ("lenet", "nmt",
	// ...). Default: lenet, alexnet and rnnlm — a small/medium/large
	// task-graph spread, which is what anchors the per-task slope.
	Models []string
	// Scale divides batch size and unroll steps (models.BuildScaled);
	// each model is additionally measured at 2·Scale so recurrent
	// models contribute a second task-graph size. Default 8.
	Scale int
	// GPUs sizes the single-node topology proposals run against.
	// Default 4.
	GPUs int
	// Batches is the number of timed batches per (model, scale, mode)
	// point, after one untimed warm-up batch. Default 3.
	Batches int
	// DeltaProposals is the number of proposals per delta-mode batch.
	// Default 300.
	DeltaProposals int
	// FullProposals is the number of proposals per full-mode batch
	// (full simulation rebuilds the task graph per proposal, so batches
	// are smaller). Default 30.
	FullProposals int
	// Seed drives the proposal sequence. Default 1.
	Seed int64
	// Logf, when non-nil, receives one line per measured point.
	Logf func(format string, args ...any)
}

// withDefaults fills unset fields.
func (o Options) withDefaults() Options {
	if len(o.Models) == 0 {
		o.Models = []string{"lenet", "alexnet", "rnnlm"}
	}
	if o.Scale <= 0 {
		o.Scale = 8
	}
	if o.GPUs <= 0 {
		o.GPUs = 4
	}
	if o.Batches <= 0 {
		o.Batches = 3
	}
	if o.DeltaProposals <= 0 {
		o.DeltaProposals = 300
	}
	if o.FullProposals <= 0 {
		o.FullProposals = 30
	}
	if o.Seed == 0 {
		o.Seed = 1
	}
	if o.Logf == nil {
		o.Logf = func(string, ...any) {}
	}
	return o
}

// Calibrate measures real per-proposal costs and fits a Profile.
//
// For every (model, scale) pair and both simulation modes it starts
// from the data-parallel strategy (delta mode compiles it into a Plan
// with a simulated base timeline, full mode needs neither), runs an
// untimed warm-up batch (which also fills the estimator cache, as a
// real search's first proposals would), then times Batches batches of
// random proposals — delta mode applies ReplaceConfig+ApplyDelta
// against a private instance, full mode rebuilds and re-simulates the
// task graph per proposal, exactly the two paths the MCMC walker
// takes. The mean
// per-proposal costs become Points, least-squares-fitted per mode into
// the returned profile's global parameters, with each measured model
// also recorded as a per-model override fitted from its own points.
// Every fit prices a full proposal at least as high as a delta one at
// any graph size (see fitModes).
//
// Calibration is a wall-clock measurement: run it on an otherwise idle
// machine. Cancelling ctx abandons the run and returns ctx.Err().
func Calibrate(ctx context.Context, opts Options) (*Profile, error) {
	opts = opts.withDefaults()
	fallback := Default()

	pointsByMode := map[Mode][]Point{}
	for _, name := range opts.Models {
		spec, err := models.Get(name)
		if err != nil {
			return nil, err
		}
		for _, scale := range []int{opts.Scale, 2 * opts.Scale} {
			for _, mode := range Modes() {
				if err := ctx.Err(); err != nil {
					return nil, err
				}
				pt, err := measurePoint(ctx, spec, scale, mode, opts)
				if err != nil {
					return nil, err
				}
				pointsByMode[mode] = append(pointsByMode[mode], pt)
				opts.Logf("calib: %s scale %d %s: %d tasks, %.0f ns/proposal",
					name, scale, mode, pt.N, pt.CostNS)
			}
		}
	}

	p := &Profile{
		Version:  Version,
		FittedAt: time.Now().UTC().Format(time.RFC3339),
		Source: fmt.Sprintf("measured on %s/%s (%d CPUs), models %v, scale %d, %d GPUs",
			runtime.GOOS, runtime.GOARCH, runtime.NumCPU(), opts.Models, opts.Scale, opts.GPUs),
		Modes:  fitModes(pointsByMode, fallback.Modes),
		Models: map[string]map[Mode]Params{},
	}
	// Per-model overrides: refit each model from its own points, with
	// the global fit as the anchor when the model only contributes one
	// graph size (CNNs: task count is batch-size independent).
	for _, name := range opts.Models {
		own := map[Mode][]Point{}
		for mode, points := range pointsByMode {
			for _, pt := range points {
				if pt.Model == name {
					own[mode] = append(own[mode], pt)
				}
			}
		}
		p.Models[name] = fitModes(own, p.Modes)
	}
	if err := p.Validate(); err != nil {
		return nil, fmt.Errorf("calib: fit produced an invalid profile: %w", err)
	}
	return p, nil
}

// measurePoint times proposal batches for one (model, scale, mode) cell
// and returns the mean per-proposal cost.
func measurePoint(ctx context.Context, spec models.Spec, scale int, mode Mode, opts Options) (Point, error) {
	g := spec.BuildScaled(scale)
	topo := device.NewSingleNode(opts.GPUs, "P100")
	est := perfmodel.NewMeasuringEstimator(perfmodel.NewAnalyticModel().ExecTime, 1)
	init := config.DataParallel(g, topo)

	// Full mode rebuilds the graph per proposal and never touches a
	// Plan, so only delta mode pays for the compile + base timeline;
	// full mode sizes the graph with one untimed Build.
	var numTasks int
	var plan *taskgraph.Plan
	var base *sim.State
	perBatch := opts.DeltaProposals
	if mode == ModeFull {
		perBatch = opts.FullProposals
		numTasks = len(taskgraph.Build(g, topo, init.Clone(), est, taskgraph.Options{}).Tasks)
	} else {
		plan = taskgraph.Compile(g, topo, init.Clone(), est, taskgraph.Options{})
		numTasks = len(plan.Base().Tasks)
		base = sim.NewState(plan.Base())
		base.Simulate()
	}
	rng := rand.New(rand.NewSource(opts.Seed))

	var total time.Duration
	executed := 0
	// Batch 0 is the untimed warm-up.
	for b := 0; b <= opts.Batches; b++ {
		if err := ctx.Err(); err != nil {
			return Point{}, err
		}
		n, elapsed := runBatch(g, topo, est, init, plan, base, mode, perBatch, rng)
		if b == 0 {
			continue
		}
		total += elapsed
		executed += n
	}
	if executed == 0 {
		return Point{}, fmt.Errorf("calib: %s scale %d %s: no proposals executed", spec.Name, scale, mode)
	}
	return Point{N: numTasks, CostNS: float64(total.Nanoseconds()) / float64(executed), Model: spec.Name}, nil
}

// runBatch executes one batch of random proposals in the given mode and
// returns how many ran plus the wall clock they took. Proposals follow
// the MCMC walker's two paths: delta mutates a private plan instance in
// place, full rebuilds the task graph from the mutated strategy.
func runBatch(g *graph.Graph, topo *device.Topology, est perfmodel.Estimator, init *config.Strategy, plan *taskgraph.Plan, base *sim.State, mode Mode, perBatch int, rng *rand.Rand) (int, time.Duration) {
	ops := g.ComputeOps()
	executed := 0
	switch mode {
	case ModeFull:
		cur := init.Clone()
		start := time.Now()
		for i := 0; i < perBatch; i++ {
			op := ops[rng.Intn(len(ops))]
			newCfg := config.RandomConfig(op, topo, rng)
			if newCfg.Equal(cur.Config(op.ID)) {
				continue
			}
			cur.Set(op.ID, newCfg)
			tg := taskgraph.Build(g, topo, cur.Clone(), est, taskgraph.Options{})
			sim.NewState(tg).Simulate()
			executed++
		}
		return executed, time.Since(start)
	default:
		inst := plan.Instance()
		st := base.CloneFor(inst)
		cur := init.Clone()
		start := time.Now()
		for i := 0; i < perBatch; i++ {
			op := ops[rng.Intn(len(ops))]
			newCfg := config.RandomConfig(op, topo, rng)
			if newCfg.Equal(cur.Config(op.ID)) {
				continue
			}
			cur.Set(op.ID, newCfg)
			cs := inst.ReplaceConfig(op.ID, newCfg)
			st.ApplyDelta(cs)
			executed++
		}
		return executed, time.Since(start)
	}
}
