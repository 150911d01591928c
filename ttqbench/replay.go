package main

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"sync"
	"time"

	"flexflow"
	"flexflow/internal/config"
	"flexflow/internal/device"
	"flexflow/internal/graph"
	"flexflow/internal/perfmodel"
	"flexflow/internal/search"
	"flexflow/internal/sim"
	"flexflow/internal/taskgraph"
	"flexflow/internal/tensor"
)

// problem is a built search problem: what the layer calls below need.
type problem struct {
	g       *flexflow.Graph
	topo    *flexflow.Topology
	beta    float64
	initial *config.Strategy
}

// traceSetup records the start-up layers once, each call in its own
// span under one trace: model build, Compile, base Simulate, then
// Plan.Instance and State.CloneFor (the per-chain setup).
func traceSetup(tr *tracer, model string, topo *flexflow.Topology) (*flexflow.Graph, error) {
	trace := tr.newTrace()
	root := tr.begin("bench.setup", trace, 0)
	defer tr.end(root)
	sp := tr.begin("models.build", trace, root)
	g, err := flexflow.Model(model)
	tr.end(sp)
	if err != nil {
		return nil, err
	}
	dp := flexflow.DataParallel(g, topo)
	sp = tr.begin("taskgraph.compile", trace, root)
	est := &spanEstimator{inner: flexflow.NewEstimator(), tr: tr, trace: trace, parent: sp}
	plan := taskgraph.Compile(g, topo, dp, est, taskgraph.Options{})
	tr.end(sp)
	sp = tr.begin("sim.simulate", trace, root)
	base := sim.NewState(plan.Base())
	base.Simulate()
	tr.end(sp)
	for i := 0; i < 5; i++ {
		sp = tr.begin("taskgraph.instance", trace, root)
		tg := plan.Instance()
		tr.end(sp)
		sp = tr.begin("sim.clone", trace, root)
		base.CloneFor(tg)
		tr.end(sp)
	}
	return g, nil
}

// spanEstimator records a perfmodel.exec_time span around every
// estimator query made under one parent span.
type spanEstimator struct {
	inner         flexflow.Estimator
	tr            *tracer
	trace, parent int
}

// ExecTime implements perfmodel.Estimator.
func (e *spanEstimator) ExecTime(op *graph.Op, out tensor.Region, dev device.Device, pass perfmodel.Pass) time.Duration {
	sp := e.tr.begin("perfmodel.exec_time", e.trace, e.parent)
	d := e.inner.ExecTime(op, out, dev, pass)
	e.tr.end(sp)
	return d
}

// replay walks n proposals of one MCMC chain from the problem's
// initial strategy, calling each layer itself so that every call gets a
// span: the config draft, tg.ReplaceConfig, st.ApplyDelta, the
// Metropolis test at the problem's Beta, and on rejection the revert
// (ReplaceConfig + ApplyDelta back to the old config). With a nil
// tracer it records nothing. With an audit tally it also counts, per
// proposal, the suffix tasks whose start or end actually changed, and
// checks every ApplyDelta against a full simulation of the same
// instance, which must match bit for bit (the delta == full contract);
// each comparison is one operation of the tally. It returns the walk's
// wall time.
func replay(tr *tracer, p *problem, seed int64, n int, audit *tally) time.Duration {
	plan := taskgraph.Compile(p.g, p.topo, p.initial.Clone(), flexflow.NewEstimator(), taskgraph.Options{})
	base := sim.NewState(plan.Base())
	base.Simulate()
	tg := plan.Instance()
	st := base.CloneFor(tg)
	cur := p.initial.Clone()
	cost := st.Makespan
	ops := p.g.ComputeOps()
	rng := rand.New(rand.NewSource(seed))
	start := time.Now()
	for i := 0; i < n; i++ {
		trace := tr.newTrace()
		root := tr.begin("search.proposal", trace, 0)
		sp := tr.begin("search.draft", trace, root)
		op := ops[rng.Intn(len(ops))]
		old := cur.Config(op.ID)
		next := config.RandomConfigRestricted(op, p.topo, rng, nil)
		tr.end(sp)
		if next.Equal(old) {
			tr.end(root)
			continue
		}
		var before map[*taskgraph.Task][2]time.Duration
		if audit != nil {
			before = timings(tg, st)
		}
		suffix0 := st.Stats.SuffixTasks
		c := applyTraced(tr, trace, root, tg, st, op, next)
		if audit != nil {
			tr.count("replay.changed_tasks", float64(changedTasks(tg, st, before)))
			tr.count("replay.suffix_tasks", float64(st.Stats.SuffixTasks-suffix0))
			audit.op(deltaMatchesFull(tg, c, i))
		}
		sp = tr.begin("search.accept", trace, root)
		ok := metropolis(cost, c, p.beta, rng)
		tr.end(sp)
		if ok {
			cur.Set(op.ID, next)
			cost = c
		} else {
			rv := tr.begin("search.revert", trace, root)
			c = applyTraced(tr, trace, rv, tg, st, op, old.Clone())
			tr.end(rv)
			if audit != nil {
				audit.op(deltaMatchesFull(tg, c, i))
			}
		}
		tr.end(root)
	}
	return time.Since(start)
}

// applyTraced replaces op's config and re-times the timeline, with one
// span around each call.
func applyTraced(tr *tracer, trace, parent int, tg *taskgraph.TaskGraph, st *sim.State, op *graph.Op, c *config.Config) time.Duration {
	sp := tr.begin("taskgraph.replace_config", trace, parent)
	cs := tg.ReplaceConfig(op.ID, c)
	tr.end(sp)
	sp = tr.begin("sim.apply_delta", trace, parent)
	cost := st.ApplyDelta(cs)
	tr.end(sp)
	return cost
}

// deltaMatchesFull checks a delta-simulated makespan against a full
// simulation of the same instance.
func deltaMatchesFull(tg *taskgraph.TaskGraph, delta time.Duration, proposal int) error {
	if full := sim.NewState(tg).Simulate(); full != delta {
		return fmt.Errorf("replay proposal %d: ApplyDelta makespan %v, full simulation of the same instance %v", proposal, delta, full)
	}
	return nil
}

// metropolis is the search's acceptance rule: always take an
// improvement, take a regression of fraction f with probability
// exp(-beta*f).
func metropolis(cur, proposed time.Duration, beta float64, rng *rand.Rand) bool {
	if proposed <= cur {
		return true
	}
	if beta == 0 {
		beta = search.DefaultOptions().Beta
	}
	f := float64(proposed-cur) / float64(cur)
	return rng.Float64() < math.Exp(-beta*f)
}

// timings snapshots the start and end of every live task.
func timings(tg *taskgraph.TaskGraph, st *sim.State) map[*taskgraph.Task][2]time.Duration {
	out := make(map[*taskgraph.Task][2]time.Duration, len(tg.Tasks))
	for _, t := range tg.Tasks {
		if tg.Live(t) {
			_, s, e := st.Times(t)
			out[t] = [2]time.Duration{s, e}
		}
	}
	return out
}

// changedTasks counts live tasks that are new or whose start or end
// differs from the snapshot.
func changedTasks(tg *taskgraph.TaskGraph, st *sim.State, before map[*taskgraph.Task][2]time.Duration) int {
	n := 0
	for _, t := range tg.Tasks {
		if !tg.Live(t) {
			continue
		}
		_, s, e := st.Times(t)
		if old, ok := before[t]; !ok || old != [2]time.Duration{s, e} {
			n++
		}
	}
	return n
}

// traceSearch runs one reference search through search.MCMC — the
// engine behind flexflow.Optimize's "mcmc" optimizer, called with the
// same candidates and options — because its Result carries the counts
// the facade drops (Accepted, SimStats). It records the call as a
// search.mcmc span with a search.setup child (call to first progress
// event) and the counts as counters.
func traceSearch(tr *tracer, p *problem, seed int64, maxIters int, target time.Duration) {
	est := flexflow.NewEstimator()
	initials := search.Initials(p.g, p.topo, seed, false)
	opts := search.DefaultOptions()
	opts.MaxIters, opts.Seed = maxIters, seed
	if p.beta > 0 {
		opts.Beta = p.beta
	}
	trace := tr.newTrace()
	var once sync.Once
	var first time.Time
	opts.OnEvent = func(search.ProgressEvent) { once.Do(func() { first = time.Now() }) }
	start := time.Now()
	res := search.MCMC(context.Background(), p.g, p.topo, est, initials, opts)
	end := time.Now()
	once.Do(func() { first = end })
	root := tr.add("search.mcmc", trace, 0, start, end)
	tr.add("search.setup", trace, root, start, first)

	tr.count("search.iters", float64(res.Iters))
	tr.count("search.accepted", float64(res.Accepted))
	tr.count("sim.pops", float64(res.SimStats.Pops))
	tr.count("sim.suffix_tasks", float64(res.SimStats.SuffixTasks))
	tr.count("sim.delta_sims", float64(res.SimStats.DeltaSims))
	tr.count("sim.fallbacks", float64(res.SimStats.Fallbacks))
	itersToTarget := -1
	improvements := 0
	for _, tp := range res.Trace {
		if tp.Iter > 0 {
			improvements++
		}
		if target > 0 && tp.BestCost <= target && (itersToTarget < 0 || tp.Iter < itersToTarget) {
			itersToTarget = tp.Iter
		}
	}
	tr.count("search.improvements", float64(improvements))
	tr.count("search.iters_to_target", float64(itersToTarget))
	if me, ok := est.(*perfmodel.MeasuringEstimator); ok {
		hits, misses := me.Stats()
		tr.count("perfmodel.hits", float64(hits))
		tr.count("perfmodel.misses", float64(misses))
		tr.count("perfmodel.signatures", float64(me.DistinctSignatures()))
	}
}

// traceFacade times the facade calls a cached answer is made of on the
// problem's graph: Fingerprint, ExportStrategy, and ImportGraph of the
// graph's ExportGraph payload.
func traceFacade(tr *tracer, g *flexflow.Graph, topo *flexflow.Topology, s *flexflow.Strategy, reps int) error {
	payload, err := flexflow.ExportGraph(g)
	if err != nil {
		return err
	}
	prob := flexflow.Problem{Graph: g, Topology: topo}
	for i := 0; i < reps; i++ {
		trace := tr.newTrace()
		root := tr.begin("bench.answer", trace, 0)
		sp := tr.begin("flexflow.import_graph", trace, root)
		_, err := flexflow.ImportGraph(payload)
		tr.end(sp)
		if err != nil {
			return err
		}
		sp = tr.begin("flexflow.fingerprint", trace, root)
		_, err = flexflow.Fingerprint(prob, "mcmc", flexflow.OptimizeOptions{Seed: int64(i + 1)})
		tr.end(sp)
		if err != nil {
			return err
		}
		sp = tr.begin("flexflow.export_strategy", trace, root)
		_, err = flexflow.ExportStrategy(g, s)
		tr.end(sp)
		if err != nil {
			return err
		}
		tr.end(root)
	}
	return nil
}
