package flexflow

import (
	"context"
	"fmt"
	"sort"
	"sync"
	"time"

	"flexflow/internal/config"
	"flexflow/internal/search"
	"flexflow/internal/taskgraph"
)

// Problem bundles everything a strategy optimizer consumes: the operator
// graph to parallelize, the device topology to parallelize it over, and
// the performance model that prices tasks. Estimator may be nil, in
// which case NewEstimator() is used.
type Problem struct {
	Graph     *Graph
	Topology  *Topology
	Estimator Estimator
}

// ProgressEvent is one streaming progress sample from a running
// optimizer; see OptimizeOptions.OnEvent.
type ProgressEvent = search.ProgressEvent

// OptimizeOptions configure one Optimize call. The zero value works for
// every registered optimizer; fields an algorithm does not use are
// ignored.
type OptimizeOptions struct {
	// MaxIters caps the algorithm's unit of work: MCMC proposals per
	// initial strategy, REINFORCE episodes, polish descent rounds
	// (0 = the algorithm's default).
	MaxIters int
	// Budget caps MCMC search time per chain in deterministic virtual
	// time: proposals are priced by the profile installed via
	// SetCostProfile, or the built-in defaults when none is, so a
	// budgeted run executes a fixed proposal count and replays
	// exactly (0 = none). Wall-clock limits belong to the context —
	// pass a context.WithTimeout/WithDeadline context to Optimize.
	Budget time.Duration
	// Beta is the MCMC Metropolis-Hastings temperature (0 = default 15).
	Beta float64
	// Seed makes randomized optimizers reproducible (0 = default 1).
	Seed int64
	// IncludeExpert adds the expert-designed strategy to MCMC's initial
	// candidates alongside data parallelism and a random strategy.
	IncludeExpert bool
	// Workers caps this Optimize call's share of the process-wide
	// worker pool — MCMC chains, exhaustive DFS subtrees, REINFORCE
	// episode rollouts, Neighborhood sweeps (0 = the pool's full
	// bound). Results are identical for every value and every pool
	// size. flexflowd sets it per request from options.workers; see
	// docs/CONCURRENCY.md.
	Workers int
	// Initial seeds the search with an existing strategy: MCMC runs a
	// single chain from it, polish descends from it. When nil, MCMC
	// uses the paper's default initial candidates and polish starts
	// from data parallelism.
	Initial *Strategy
	// MaxDegree bounds per-dimension partitioning degrees wherever an
	// optimizer enumerates candidate configurations (exhaustive,
	// optcnn, polish); 0 means the algorithm's default.
	MaxDegree int
	// MaxCandidatesPerOp truncates each op's candidate list in the
	// exhaustive search (0 = default 6; the paper's study likewise
	// restricts the enumerated space to stay tractable).
	MaxCandidatesPerOp int
	// FullSim makes every MCMC proposal run the full simulation
	// algorithm instead of the delta algorithm (the Table 4 ablation).
	FullSim bool
	// OnEvent, when non-nil, streams progress: best-so-far cost,
	// proposal/episode count and the emitting chain id, as the search
	// runs. Called concurrently from optimizer goroutines — the
	// callback must be safe for concurrent use and must not block.
	OnEvent func(ProgressEvent)
}

// Result is the outcome of an Optimize call.
type Result struct {
	// Algorithm is the registry name of the optimizer that produced it.
	Algorithm string
	// Best is the best strategy discovered. On a cancelled run it holds
	// the best strategy found before cancellation, and may be nil if
	// the optimizer was cancelled before evaluating anything.
	Best *Strategy
	// BestCost is the simulated per-iteration time of Best.
	BestCost time.Duration
	// Iters counts the algorithm's work units: MCMC proposals,
	// exhaustive leaves simulated, REINFORCE episodes, polish rounds.
	Iters int
	// SearchTime is the wall clock spent.
	SearchTime time.Duration
}

// Optimizer is the uniform contract over the paper's strategy-search
// algorithms. Implementations honor context cancellation by returning
// promptly with the best strategy found so far (and ctx.Err()), and
// stream progress through OptimizeOptions.OnEvent.
type Optimizer interface {
	// Name returns the registry name of the algorithm.
	Name() string
	// Optimize searches for a parallelization strategy for the problem.
	// A non-nil error with a non-nil Result.Best means the search was
	// interrupted but still produced a usable best-so-far strategy.
	Optimize(ctx context.Context, p Problem, opts OptimizeOptions) (Result, error)
}

var (
	optimizersMu sync.RWMutex
	optimizers   = map[string]func() Optimizer{}
)

// RegisterOptimizer makes an optimizer constructible by name through
// GetOptimizer. The built-in algorithms ("mcmc", "exhaustive", "optcnn",
// "reinforce", "polish") register themselves at init; callers may plug
// in additional implementations. Registering a duplicate name or a nil
// constructor panics, mirroring database/sql.Register.
func RegisterOptimizer(name string, ctor func() Optimizer) {
	optimizersMu.Lock()
	defer optimizersMu.Unlock()
	if ctor == nil {
		panic("flexflow: RegisterOptimizer with nil constructor")
	}
	if _, dup := optimizers[name]; dup {
		panic(fmt.Sprintf("flexflow: RegisterOptimizer called twice for %q", name))
	}
	optimizers[name] = ctor
}

// GetOptimizer returns a new instance of the named optimizer, or an
// error naming the registered alternatives.
func GetOptimizer(name string) (Optimizer, error) {
	optimizersMu.RLock()
	ctor, ok := optimizers[name]
	optimizersMu.RUnlock()
	if !ok {
		return nil, fmt.Errorf("flexflow: unknown optimizer %q (have %v)", name, Optimizers())
	}
	return ctor(), nil
}

// Optimizers lists the registered optimizer names, sorted.
func Optimizers() []string {
	optimizersMu.RLock()
	defer optimizersMu.RUnlock()
	out := make([]string, 0, len(optimizers))
	for name := range optimizers {
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}

func init() {
	RegisterOptimizer("mcmc", func() Optimizer { return mcmcOptimizer{} })
	RegisterOptimizer("exhaustive", func() Optimizer { return exhaustiveOptimizer{} })
	RegisterOptimizer("optcnn", func() Optimizer { return optcnnOptimizer{} })
	RegisterOptimizer("reinforce", func() Optimizer { return reinforceOptimizer{} })
	RegisterOptimizer("polish", func() Optimizer { return polishOptimizer{} })
}

// checkProblem validates the shared preconditions and fills the
// estimator default.
func checkProblem(p Problem) (Problem, error) {
	if p.Graph == nil || p.Topology == nil {
		return p, fmt.Errorf("flexflow: Problem needs a Graph and a Topology")
	}
	if p.Estimator == nil {
		p.Estimator = NewEstimator()
	}
	return p, nil
}

// checkInitial rejects an OptimizeOptions.Initial that does not fit the
// problem's graph and topology, before any optimizer compiles it (the
// task-graph builder panics on an invalid strategy).
func checkInitial(p Problem, o OptimizeOptions) error {
	if o.Initial == nil {
		return nil
	}
	if err := o.Initial.Validate(p.Graph, p.Topology); err != nil {
		return fmt.Errorf("flexflow: invalid initial strategy: %w", err)
	}
	return nil
}

// enumFor derives the candidate-enumeration bound shared by the
// enumerating optimizers.
func enumFor(p Problem, o OptimizeOptions, defaultMaxDegree int) config.EnumOptions {
	max := o.MaxDegree
	if max <= 0 {
		max = defaultMaxDegree
	}
	if n := len(p.Topology.GPUs()); max > n && n > 0 {
		max = n
	}
	return config.EnumOptions{MaxDegree: max}
}

// mcmcOptimizer is the paper's execution optimizer (Section 6): MCMC
// over the SOAP space with the delta simulator as cost oracle.
type mcmcOptimizer struct{}

func (mcmcOptimizer) Name() string { return "mcmc" }

func (mcmcOptimizer) Optimize(ctx context.Context, p Problem, o OptimizeOptions) (Result, error) {
	p, err := checkProblem(p)
	if err == nil {
		err = checkInitial(p, o)
	}
	if err != nil {
		return Result{Algorithm: "mcmc"}, err
	}
	opts := search.DefaultOptions()
	if o.MaxIters > 0 {
		opts.MaxIters = o.MaxIters
	}
	if o.Budget > 0 {
		opts.Budget = o.Budget
	}
	if o.Beta > 0 {
		opts.Beta = o.Beta
	}
	if o.Seed != 0 {
		opts.Seed = o.Seed
	}
	opts.Workers = o.Workers
	opts.FullSim = o.FullSim
	opts.OnEvent = o.OnEvent
	var initials []*Strategy
	if o.Initial != nil {
		initials = []*Strategy{o.Initial.Clone()}
	} else {
		initials = search.Initials(p.Graph, p.Topology, opts.Seed, o.IncludeExpert)
	}
	res := search.MCMC(ctx, p.Graph, p.Topology, p.Estimator, initials, opts)
	return Result{
		Algorithm: "mcmc", Best: res.Best, BestCost: res.BestCost,
		Iters: res.Iters, SearchTime: res.SearchTime,
	}, ctx.Err()
}

// exhaustiveOptimizer is the Section 8.4 optimality baseline: pruned
// depth-first search over a restricted candidate space. Exponential —
// only sensible for small models and low MaxDegree.
type exhaustiveOptimizer struct{}

func (exhaustiveOptimizer) Name() string { return "exhaustive" }

func (exhaustiveOptimizer) Optimize(ctx context.Context, p Problem, o OptimizeOptions) (Result, error) {
	p, err := checkProblem(p)
	if err != nil {
		return Result{Algorithm: "exhaustive"}, err
	}
	maxCands := o.MaxCandidatesPerOp
	if maxCands <= 0 {
		maxCands = 6
	}
	start := time.Now()
	res := search.Exhaustive(ctx, p.Graph, p.Topology, p.Estimator, search.ExhaustiveOptions{
		Enum:               enumFor(p, o, 2),
		MaxCandidatesPerOp: maxCands,
		Workers:            o.Workers,
		OnEvent:            o.OnEvent,
	})
	out := Result{
		Algorithm: "exhaustive", Iters: int(res.Explored), SearchTime: time.Since(start),
	}
	if res.Best != nil {
		out.Best, out.BestCost = res.Best, res.BestCost
	}
	return out, ctx.Err()
}

// optcnnOptimizer is the OptCNN baseline (Section 8.2.3): a dynamic
// program over linear graphs under a no-inter-op-parallelism cost model,
// greedily linearized on non-linear graphs.
type optcnnOptimizer struct{}

func (optcnnOptimizer) Name() string { return "optcnn" }

func (optcnnOptimizer) Optimize(ctx context.Context, p Problem, o OptimizeOptions) (Result, error) {
	p, err := checkProblem(p)
	if err != nil {
		return Result{Algorithm: "optcnn"}, err
	}
	start := time.Now()
	enum := config.EnumOptions{MaxDegree: o.MaxDegree}
	s, err := search.OptCNN(ctx, p.Graph, p.Topology, p.Estimator, enum)
	if err != nil {
		return Result{Algorithm: "optcnn", SearchTime: time.Since(start)}, err
	}
	cost, _ := search.Evaluate(p.Graph, p.Topology, p.Estimator, s, taskgraph.Options{})
	emitFinal(o.OnEvent, "optcnn", cost)
	return Result{
		Algorithm: "optcnn", Best: s, BestCost: cost,
		Iters: p.Graph.NumOps(), SearchTime: time.Since(start),
	}, nil
}

// reinforceOptimizer is the REINFORCE device-placement baseline: a
// policy-gradient learner over whole-op placements.
type reinforceOptimizer struct{}

func (reinforceOptimizer) Name() string { return "reinforce" }

func (reinforceOptimizer) Optimize(ctx context.Context, p Problem, o OptimizeOptions) (Result, error) {
	p, err := checkProblem(p)
	if err != nil {
		return Result{Algorithm: "reinforce"}, err
	}
	opts := search.DefaultReinforceOptions()
	if o.MaxIters > 0 {
		opts.Episodes = o.MaxIters
	}
	if o.Seed != 0 {
		opts.Seed = o.Seed
	}
	opts.Workers = o.Workers
	opts.OnEvent = o.OnEvent
	start := time.Now()
	res := search.Reinforce(ctx, p.Graph, p.Topology, p.Estimator, opts)
	out := Result{Algorithm: "reinforce", Iters: res.Episodes, SearchTime: time.Since(start)}
	if res.Best != nil {
		out.Best, out.BestCost = res.Best, res.BestCost
	}
	return out, ctx.Err()
}

// polishOptimizer hill-climbs a strategy (Initial, or data parallelism)
// to a local optimum over one-op deviations — the Section 8.4 local-
// optimality construction as a standalone optimizer.
type polishOptimizer struct{}

func (polishOptimizer) Name() string { return "polish" }

func (polishOptimizer) Optimize(ctx context.Context, p Problem, o OptimizeOptions) (Result, error) {
	p, err := checkProblem(p)
	if err == nil {
		err = checkInitial(p, o)
	}
	if err != nil {
		return Result{Algorithm: "polish"}, err
	}
	init := o.Initial
	if init == nil {
		init = DataParallel(p.Graph, p.Topology)
	}
	start := time.Now()
	rounds := 0
	onEvent := o.OnEvent
	counting := func(ev ProgressEvent) {
		rounds++
		if onEvent != nil {
			onEvent(ev)
		}
	}
	best, cost := search.Polish(ctx, p.Graph, p.Topology, p.Estimator, init, search.PolishOptions{
		Enum:      enumFor(p, o, 4),
		MaxRounds: o.MaxIters,
		Workers:   o.Workers,
		OnEvent:   counting,
	})
	emitFinal(onEvent, "polish", cost)
	return Result{
		Algorithm: "polish", Best: best, BestCost: cost,
		Iters: rounds, SearchTime: time.Since(start),
	}, ctx.Err()
}

// emitFinal sends the terminal event of single-shot optimizers.
func emitFinal(cb func(ProgressEvent), algo string, cost time.Duration) {
	if cb != nil {
		cb(ProgressEvent{Algorithm: algo, BestCost: cost, Final: true})
	}
}
