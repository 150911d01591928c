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
	// skipped as a no-op counts, though it is not a priced proposal in
	// Result.Iters.
	Iter int
	// BestCost is the best simulated iteration time known to the
	// emitting chain.
	BestCost time.Duration
	// Elapsed is the chain's elapsed virtual search time where the
	// algorithm keeps a virtual clock (MCMC — proposals are charged by
	// the cost profile, a fitted one or the built-in defaults), and wall
	// clock otherwise.
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

// Virtual-time cost profile. A budgeted MCMC run used to stop on the
// wall clock, which made Budget > 0 runs nondeterministic by design.
// The budget is instead charged in virtual time: every proposal costs a
// deterministic amount that depends only on the model name, the
// task-graph size and the simulation algorithm, so Budget/cost is a
// fixed proposal count and budgeted runs replay exactly — across
// invocations and across Workers values.
//
// The price list is a calib.Profile. The built-in one is
// calib.Default() — order-of-magnitude estimates of the two simulation
// algorithms' per-proposal cost (the delta algorithm re-times only the
// tasks a proposal touches; the full algorithm rebuilds and re-times
// the whole graph — Table 4's ~2-7x gap grows with graph size). A
// measured, least-squares-fitted profile (produced by
// `flexflow -calibrate`) replaces it process-wide through
// SetCostProfile, or per search through Options.Cost; either way the
// profile is resolved once per search, before the chains fan out, so a
// fixed profile keeps budgeted runs bit-identical for every pool size.

var (
	costProfileMu sync.RWMutex
	// activeCostProfile is the installed process-wide profile; nil
	// means calib.Default() is in effect. This is the single source of
	// truth — the facade's SetCostProfile/ActiveCostProfile are thin
	// wrappers over it.
	activeCostProfile *calib.Profile
)

// SetCostProfile installs the process-wide profile pricing searches
// whose Options.Cost is nil, returning the previous one (nil if the
// built-in defaults were in effect); passing nil restores the built-in
// defaults. Searches resolve the profile once at start, so changing it
// mid-search never splits a run's chains across price lists.
func SetCostProfile(p *calib.Profile) *calib.Profile {
	costProfileMu.Lock()
	defer costProfileMu.Unlock()
	prev := activeCostProfile
	activeCostProfile = p
	return prev
}

// ActiveCostProfile returns the installed process-wide profile, or nil
// when nil-Cost searches are priced by calib.Default().
func ActiveCostProfile() *calib.Profile {
	costProfileMu.RLock()
	defer costProfileMu.RUnlock()
	return activeCostProfile
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
