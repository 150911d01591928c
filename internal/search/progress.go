package search

import (
	"context"
	"sync"
	"time"

	"flexflow/internal/calib"
)

// ProgressEvent is one streaming progress sample from a running
// optimizer. Every algorithm in this package reports through the same
// event shape so consumers (the CLI's -progress mode, the facade's
// OnEvent callback) need no per-algorithm handling.
//
// Events are emitted from the optimizer's worker goroutines as they
// happen, so a callback must be safe for concurrent use and must not
// block for long: the emitting chain stalls while the callback runs.
// Event *ordering across chains* is scheduling-dependent; the search
// result itself stays deterministic regardless of what the callback
// observes.
type ProgressEvent struct {
	// Algorithm names the emitter ("mcmc", "exhaustive", "optcnn",
	// "reinforce", "polish").
	Algorithm string
	// Chain identifies the emitting unit of parallelism: the MCMC chain
	// index, the exhaustive DFS prefix index, the REINFORCE batch
	// index, or the polish round.
	Chain int
	// Iter counts proposals (episodes, leaves, rounds) completed by the
	// emitting chain when the event fired. For MCMC it is the chain's
	// draw count, the same clock Elapsed and the budget charge: a draw
	// skipped as a no-op or as memory-infeasible counts, though it is
	// not a priced proposal in Result.Iters.
	Iter int
	// BestCost is the best simulated iteration time known to the
	// emitting chain.
	BestCost time.Duration
	// Elapsed is the chain's elapsed virtual search time where the
	// algorithm keeps a virtual clock (MCMC — proposals are charged by
	// the active CostModel, a fitted profile or the built-in defaults),
	// and wall clock otherwise.
	Elapsed time.Duration
	// Final marks the last event a chain emits before returning.
	Final bool
}

// emit invokes cb(ev) if a callback is installed.
func emit(cb func(ProgressEvent), ev ProgressEvent) {
	if cb != nil {
		cb(ev)
	}
}

// Virtual-time cost model. A budgeted MCMC run used to stop on the
// wall clock, which made Budget > 0 runs nondeterministic by design.
// The budget is instead charged in virtual time: every proposal costs a
// deterministic amount that depends only on the model name, the
// task-graph size and the simulation algorithm, so Budget/cost is a
// fixed proposal count and budgeted runs replay exactly — across
// invocations and across Workers values.
//
// Where that cost comes from is pluggable. The built-in default is
// calib.Default() — order-of-magnitude estimates of the two simulation
// algorithms' per-proposal cost (the delta algorithm re-times only the
// tasks a proposal touches; the full algorithm rebuilds and re-times
// the whole graph — Table 4's ~2-7x gap grows with graph size). A
// measured, least-squares-fitted profile (internal/calib, produced by
// `flexflow -calibrate`) replaces it process-wide through
// SetDefaultCostModel, or per search through Options.Cost; either way
// the cost model is resolved once per search, before the chains fan
// out, so a fixed profile keeps budgeted runs bit-identical for every
// pool size.

// CostModel prices one optimizer proposal in deterministic virtual
// time. Implementations must be pure functions of their arguments —
// the determinism contract charges every replay of a proposal the same
// cost — and safe for concurrent use. calib.Profile implements
// CostModel; the default (see DefaultCostModel) is the built-in
// order-of-magnitude constants.
type CostModel interface {
	// ProposalCost prices one proposal for a graph named model with
	// numTasks tasks, under the full or delta simulation algorithm.
	ProposalCost(model string, numTasks int, fullSim bool) time.Duration
}

// DefaultCostModel returns the built-in order-of-magnitude cost model
// (calib.Default(), the single source of those constants).
func DefaultCostModel() CostModel { return calib.Default() }

var (
	costModelMu sync.RWMutex
	// activeCostModel is the installed process-wide cost model; nil
	// means the built-in defaults are in effect. This is the single
	// source of truth — the facade's SetCostProfile/ActiveCostProfile
	// are thin wrappers over it.
	activeCostModel CostModel
)

// SetDefaultCostModel installs the process-wide cost model used by
// searches whose Options.Cost is nil, returning the previous one (nil
// if the built-in defaults were in effect); passing nil restores the
// built-in defaults. Install a fitted calib.Profile here (the facade's
// SetCostProfile does) to make every budgeted search charge measured
// costs. Searches resolve the model once at start, so changing it
// mid-search never splits a run's chains across models.
func SetDefaultCostModel(cm CostModel) CostModel {
	costModelMu.Lock()
	defer costModelMu.Unlock()
	prev := activeCostModel
	activeCostModel = cm
	return prev
}

// ActiveCostModel returns the installed process-wide cost model, or
// nil when nil-Cost searches are priced by the built-in defaults.
func ActiveCostModel() CostModel {
	costModelMu.RLock()
	defer costModelMu.RUnlock()
	return activeCostModel
}

// defaultCostModel returns the cost model pricing nil-Cost searches:
// the installed one, or the built-in defaults.
func defaultCostModel() CostModel {
	if cm := ActiveCostModel(); cm != nil {
		return cm
	}
	return calib.Default()
}

// cancelled reports whether ctx has been cancelled, without blocking.
func cancelled(ctx context.Context) bool {
	select {
	case <-ctx.Done():
		return true
	default:
		return false
	}
}
