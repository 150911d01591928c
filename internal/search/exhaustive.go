package search

import (
	"context"
	"math"
	"sync/atomic"
	"time"

	"flexflow/internal/config"
	"flexflow/internal/device"
	"flexflow/internal/graph"
	"flexflow/internal/par"
	"flexflow/internal/perfmodel"
	"flexflow/internal/sim"
	"flexflow/internal/taskgraph"
)

// ExhaustiveOptions bound the exhaustive optimality study (Section 8.4:
// "we use depth-first search to explore the search space and use A* to
// prune").
type ExhaustiveOptions struct {
	// Enum bounds the per-op candidate configurations.
	Enum config.EnumOptions
	// MaxCandidatesPerOp truncates each op's candidate list (0 = all).
	MaxCandidatesPerOp int
	// Workers caps this search's share of the process-wide worker pool
	// (0 = the pool's full bound; see par.SetWorkers). The optimum cost
	// is identical for every value; see the package comment for what
	// stays deterministic.
	Workers int
	// OnEvent, when non-nil, receives a progress event every time a
	// worker improves the shared pruning bound (Chain = subtree prefix
	// index). Called concurrently; must be safe for concurrent use.
	OnEvent func(ProgressEvent)
}

// ExhaustiveResult reports the global optimum found.
type ExhaustiveResult struct {
	Best      *config.Strategy
	BestCost  time.Duration
	Explored  int64 // leaves simulated
	Pruned    int64 // subtrees cut by the admissible bound
	SpaceSize float64
}

// Exhaustive enumerates strategies by depth-first search over per-op
// candidate configurations, pruning with an admissible lower bound: in a
// chain-structured graph every source-to-sink dependency path passes
// through at least one task of each op, so the makespan is at least the
// sum over ops of their fastest task's execution time. Prefix costs use
// the chosen configs, remainder costs the per-op minimum.
//
// The tree is split at the first few levels into independent subtrees
// executed across Options.Workers goroutines. Every worker owns its DFS
// scratch (strategy, chosen indices) and they share only the atomic
// pruning bound; since the bound is always the cost of a strategy some
// worker actually simulated, pruning against it can never cut a strictly
// better leaf, so BestCost equals the serial optimum for every worker
// count. Explored/Pruned counts (and tie-breaking between equal-cost
// optima) depend on how quickly the bound propagates and are therefore
// scheduling-dependent when Workers > 1.
//
// Cancelling ctx makes every worker abandon its remaining subtree; the
// best strategy simulated before the cancellation is returned (Best is
// nil if no leaf was reached yet).
func Exhaustive(ctx context.Context, g *graph.Graph, topo *device.Topology, est perfmodel.Estimator, opts ExhaustiveOptions) ExhaustiveResult {
	ops := g.ComputeOps()
	candidates := make([][]*config.Config, len(ops))
	minTask := make([][]time.Duration, len(ops)) // min task exe per candidate
	bestMin := make([]time.Duration, len(ops))   // min over candidates
	space := 1.0
	for i, op := range ops {
		cands := config.Enumerate(op, topo, opts.Enum)
		if opts.MaxCandidatesPerOp > 0 && len(cands) > opts.MaxCandidatesPerOp {
			cands = cands[:opts.MaxCandidatesPerOp]
		}
		candidates[i] = cands
		minTask[i] = make([]time.Duration, len(cands))
		for j, c := range cands {
			minTask[i][j] = minTaskTime(op, c, topo, est)
			if j == 0 || minTask[i][j] < bestMin[i] {
				bestMin[i] = minTask[i][j]
			}
		}
		space *= float64(len(cands))
	}
	// Suffix sums of the per-op optimistic cost for the A*-style bound.
	suffix := make([]time.Duration, len(ops)+1)
	for i := len(ops) - 1; i >= 0; i-- {
		suffix[i] = suffix[i+1] + bestMin[i]
	}

	res := ExhaustiveResult{SpaceSize: space, BestCost: 1<<62 - 1}
	if len(ops) == 0 {
		// Degenerate space: the single (empty) strategy is the optimum,
		// exactly as the serial DFS's immediate depth==0 leaf was.
		res.Best = config.NewStrategy(g)
		tg := taskgraph.Build(g, topo, res.Best.Clone(), est, taskgraph.Options{})
		res.BestCost = sim.NewState(tg).Simulate()
		res.Explored = 1
		return res
	}
	if topo.NumDevices() > 0 {
		topo.Route(0, 0) // force the lazy route build before fanning out
	}

	// Split the first levels of the tree into enough prefixes to keep
	// the pool busy (subtree sizes under pruning are wildly uneven, so
	// oversubscribe by ~8x for load balance).
	workers := par.Width(opts.Workers)
	splitDepth := 0
	prefixCount := 1
	for splitDepth < len(ops) && prefixCount < workers*8 {
		prefixCount *= len(candidates[splitDepth])
		splitDepth++
	}
	prefixes := make([][]int, 0, prefixCount)
	var enum func(depth int, prefix []int)
	enum = func(depth int, prefix []int) {
		if depth == splitDepth {
			prefixes = append(prefixes, append([]int(nil), prefix...))
			return
		}
		for j := range candidates[depth] {
			enum(depth+1, append(prefix, j))
		}
	}
	enum(0, nil)

	// The shared admissible bound plus work counters. stop latches the
	// context cancellation so the hot DFS loop reads one atomic instead
	// of polling the context at every node.
	var bound atomic.Int64
	bound.Store(int64(res.BestCost))
	var explored, pruned atomic.Int64
	var stop atomic.Bool

	type subtreeBest struct {
		cost  time.Duration
		strat *config.Strategy
	}
	bests := make([]subtreeBest, len(prefixes))

	par.ForEach(opts.Workers, len(prefixes), func(pi int) {
		if stop.Load() {
			return
		}
		if cancelled(ctx) {
			stop.Store(true)
			return
		}
		chosen := make([]int, len(ops))
		strat := config.NewStrategy(g)
		local := subtreeBest{cost: math.MaxInt64}

		var dfs func(depth int, prefixLB time.Duration)
		dfs = func(depth int, prefixLB time.Duration) {
			if stop.Load() {
				return
			}
			if depth == len(ops) {
				for i, op := range ops {
					strat.Set(op.ID, candidates[i][chosen[i]])
				}
				tg := taskgraph.Build(g, topo, strat, est, taskgraph.Options{})
				cost := sim.NewState(tg).Simulate()
				n := explored.Add(1)
				if cost < local.cost {
					local.cost = cost
					local.strat = strat.Clone()
				}
				for {
					cur := bound.Load()
					if int64(cost) >= cur {
						break
					}
					if bound.CompareAndSwap(cur, int64(cost)) {
						emit(opts.OnEvent, ProgressEvent{
							Algorithm: "exhaustive", Chain: pi, Iter: int(n), BestCost: cost,
						})
						break
					}
				}
				// Poll the context at leaves only: leaves carry the
				// simulation cost, so the poll frequency tracks the
				// actual work done.
				if cancelled(ctx) {
					stop.Store(true)
				}
				return
			}
			for j := range candidates[depth] {
				lb := prefixLB + minTask[depth][j] + suffix[depth+1]
				if int64(lb) >= bound.Load() {
					pruned.Add(1)
					continue
				}
				chosen[depth] = j
				dfs(depth+1, prefixLB+minTask[depth][j])
			}
		}

		var prefixLB time.Duration
		for d, j := range prefixes[pi] {
			chosen[d] = j
			prefixLB += minTask[d][j]
		}
		if int64(prefixLB+suffix[splitDepth]) >= bound.Load() {
			pruned.Add(1)
			return
		}
		dfs(splitDepth, prefixLB)
		bests[pi] = local
	})

	// Merge per-subtree optima in prefix (lexicographic DFS) order.
	// This fixes the merge side of tie-breaking, but equal-cost optima
	// can still land differently than the serial scan: the shared bound
	// may prune an equal-cost leaf (lb == bound) that serial would have
	// visited first, so only BestCost — not Best — is worker-count
	// independent (as the package comment states).
	for _, b := range bests {
		if b.strat != nil && b.cost < res.BestCost {
			res.BestCost = b.cost
			res.Best = b.strat
		}
	}
	res.Explored = explored.Load()
	res.Pruned = pruned.Load()
	return res
}

// minTaskTime returns the fastest task's execution time under a config
// (forward + backward), the per-op term of the admissible bound.
func minTaskTime(op *graph.Op, c *config.Config, topo *device.Topology, est perfmodel.Estimator) time.Duration {
	best := time.Duration(1<<62 - 1)
	for k := 0; k < c.NumTasks(); k++ {
		region := gridRegion(op, c, k)
		dev := topo.Device(c.Devices[k])
		d := est.ExecTime(op, region, dev, perfmodel.Forward) +
			est.ExecTime(op, region, dev, perfmodel.Backward)
		if d < best {
			best = d
		}
	}
	return best
}

// PolishOptions configure the local-descent pass.
type PolishOptions struct {
	// Enum bounds the per-op candidate configurations of the neighbour
	// set.
	Enum config.EnumOptions
	// MaxRounds caps the descent rounds (0 = default 20).
	MaxRounds int
	// Workers caps the share of the process-wide worker pool each
	// Neighborhood round's candidate sweep may use (0 = the pool's full
	// bound). Results are bit-identical for every value.
	Workers int
	// OnEvent, when non-nil, receives one progress event per completed
	// round (Chain = round index).
	OnEvent func(ProgressEvent)
}

// Polish hill-climbs a strategy to a local optimum: repeatedly replace
// the single-op configuration whose change improves the simulated time
// the most, until no one-op change helps or ctx is cancelled (the best
// strategy reached so far is returned either way). The paper observes
// that all strategies returned by its search were locally optimal
// (Section 8.4); Polish makes that property structural for modest search
// budgets.
func Polish(ctx context.Context, g *graph.Graph, topo *device.Topology, est perfmodel.Estimator, s *config.Strategy, opts PolishOptions) (*config.Strategy, time.Duration) {
	maxRounds := opts.MaxRounds
	if maxRounds <= 0 {
		maxRounds = 20
	}
	cur := s.Clone()
	tg := taskgraph.Build(g, topo, cur.Clone(), est, taskgraph.Options{})
	st := sim.NewState(tg)
	best := st.Simulate()
	for round := 0; round < maxRounds; round++ {
		if cancelled(ctx) {
			break
		}
		cost, improving, checked := Neighborhood(g, topo, est, cur, opts.Enum, opts.Workers)
		if improving == nil || cost >= best {
			break
		}
		cur, best = improving, cost
		emit(opts.OnEvent, ProgressEvent{
			Algorithm: "polish", Chain: round, Iter: checked, BestCost: best,
		})
	}
	return cur, best
}

// Neighborhood enumerates all one-op deviations of a strategy (the
// neighbour set of Section 8.4's local-optimality study) and reports the
// best improving neighbour, if any.
//
// The sweep is embarrassingly parallel per op, and runs that way: the
// strategy is compiled once into an immutable Plan whose base timeline
// is simulated once; each op's candidate walk then runs on the shared
// process-wide pool against a private Plan.Instance and a State cloned
// from the base timeline, so workers share only read-only structure.
// Because every op's walk starts from the identical instance (same
// task IDs, same base timeline) regardless of which worker runs it or
// in what order, the result is bit-identical for every pool size and
// every workers cap (0 = the pool's full bound); winners merge in
// (op, candidate) enumeration order. When Neighborhood is itself
// called from inside a pool worker (Polish inside an experiments
// cell), the nested fan-out composes under the same global bound
// instead of multiplying it.
func Neighborhood(g *graph.Graph, topo *device.Topology, est perfmodel.Estimator, s *config.Strategy, enum config.EnumOptions, workers int) (bestCost time.Duration, improving *config.Strategy, checked int) {
	plan := taskgraph.Compile(g, topo, s.Clone(), est, taskgraph.Options{})
	base := sim.NewState(plan.Base())
	baseCost := base.Simulate()

	ops := g.ComputeOps()
	if topo.NumDevices() > 0 {
		topo.Route(0, 0) // force the lazy route build before fanning out
	}
	type opBest struct {
		cost    time.Duration
		cand    *config.Config
		checked int
	}
	results := make([]opBest, len(ops))
	par.ForEach(workers, len(ops), func(i int) {
		op := ops[i]
		orig := plan.Base().Strat.Config(op.ID) // read-only: shared strat is never written
		r := opBest{cost: baseCost}
		var props []Proposal
		for _, cand := range config.Enumerate(op, topo, enum) {
			if !cand.Equal(orig) {
				props = append(props, Proposal{OpID: op.ID, Cfg: cand})
			}
		}
		// All of an op's candidates go through one batch: one instance +
		// state clone per op (none at all when every candidate equals the
		// original), and the same-op proposals chain without reverts.
		for j, cost := range EvaluateBatch(plan, base, props) {
			r.checked++
			if cost < r.cost {
				r.cost = cost
				r.cand = props[j].Cfg
			}
		}
		results[i] = r
	})

	// Merge in op order with strict improvement, mirroring the serial
	// scan's tie-breaking: the first (op, candidate) reaching the best
	// cost wins. The winning strategy is cloned exactly once, here.
	bestCost = baseCost
	winner := -1
	for i, r := range results {
		checked += r.checked
		if r.cand != nil && r.cost < bestCost {
			bestCost = r.cost
			winner = i
		}
	}
	if winner >= 0 {
		improving = s.Clone()
		improving.Set(ops[winner].ID, results[winner].cand.Clone())
	}
	return bestCost, improving, checked
}
