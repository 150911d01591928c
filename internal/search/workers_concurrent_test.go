package search

import (
	"context"
	"sync"
	"testing"

	"flexflow/internal/device"
	"flexflow/internal/perfmodel"
)

// TestWorkersCapConcurrentDifferential pins the per-call Workers cap
// under the load the strategy server creates: many
// searches with different caps running concurrently on the one
// process-wide pool. Each must reproduce its serial (Workers=1)
// reference bit for bit — strategy, cost, proposal and acceptance
// counts, trace length — and a Workers=1 caller must additionally see
// its chains run inline in order: chain ids in its progress events
// never go backwards, because a cap of one runs the chain fan-out
// serially on the calling goroutine no matter how busy the shared pool
// is.
func TestWorkersCapConcurrentDifferential(t *testing.T) {
	g := tinyMLP()
	topo := device.NewSingleNode(4, "P100")
	est := perfmodel.NewAnalyticModel()

	const callers = 6
	makeOpts := func(i int) Options {
		opts := DefaultOptions()
		opts.MaxIters = 120
		opts.Seed = int64(20 + i)
		return opts
	}

	refs := make([]Result, callers)
	for i := range refs {
		opts := makeOpts(i)
		opts.Workers = 1
		refs[i] = MCMC(context.Background(), g, topo, est, Initials(g, topo, opts.Seed, i%2 == 0), opts)
		if refs[i].Best == nil || refs[i].Iters == 0 {
			t.Fatalf("caller %d: degenerate serial reference: %+v", i, refs[i])
		}
	}

	results := make([]Result, callers)
	violations := make([]int, callers)
	var wg sync.WaitGroup
	for i := 0; i < callers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			opts := makeOpts(i)
			opts.Workers = i % 3 // 0 = full pool bound, 1 = inline serial, 2 = capped pair
			if opts.Workers == 1 {
				last := -1
				opts.OnEvent = func(ev ProgressEvent) {
					if ev.Chain < last {
						violations[i]++
					}
					last = ev.Chain
				}
			}
			results[i] = MCMC(context.Background(), g, topo, est, Initials(g, topo, opts.Seed, i%2 == 0), opts)
		}(i)
	}
	wg.Wait()

	for i := range results {
		workers := i % 3
		if results[i].BestCost != refs[i].BestCost || !results[i].Best.Equal(refs[i].Best) {
			t.Errorf("caller %d (Workers=%d): concurrent best %v diverges from serial reference %v",
				i, workers, results[i].BestCost, refs[i].BestCost)
		}
		if results[i].Iters != refs[i].Iters || results[i].Accepted != refs[i].Accepted {
			t.Errorf("caller %d (Workers=%d): proposals %d/%d accepted diverge from reference %d/%d",
				i, workers, results[i].Iters, results[i].Accepted, refs[i].Iters, refs[i].Accepted)
		}
		if len(results[i].Trace) != len(refs[i].Trace) {
			t.Errorf("caller %d (Workers=%d): trace length %d != reference %d",
				i, workers, len(results[i].Trace), len(refs[i].Trace))
		}
		if violations[i] > 0 {
			t.Errorf("caller %d: Workers=1 progress interleaved across chains %d times", i, violations[i])
		}
	}
}
