package main

import (
	"bytes"
	"context"
	"fmt"
	"math"
	"runtime/debug"
	"sync"
	"time"

	"flexflow"
)

// sizes are the run-length knobs of one run; tiny runs (the package's
// tests) shrink every count.
type sizes struct {
	// maxIters overrides the workloads' proposal caps (0 = as recorded).
	maxIters int
	// replay overrides the traced replay length (0 = as recorded).
	replay int
	// serveWarmSeeds overrides the serve-mix warm seeds (0 = as
	// recorded); serveMinHits is the fewest cache hits a serve-mix
	// stream answers before it ends.
	serveWarmSeeds, serveMinHits int
}

// fullSizes are the benchmark's run sizes.
var fullSizes = sizes{serveMinHits: 1000}

// tally counts operations and the correctness checks they failed.
type tally struct {
	mu        sync.Mutex
	attempted int
	failed    int
	errs      []string

	// resims counts strategies re-simulated from a fresh build,
	// resimDiffer those whose cost differs from the reported one, and
	// resimGap is the largest relative difference seen.
	resims, resimDiffer int
	resimGap            float64
}

// resimTolerance is the largest relative difference between a reported
// cost and the fresh re-simulation of its strategy that passes. The
// two are not bit-identical: the simulator breaks ties between ready
// tasks by task ID, and ReplaceConfig mints new IDs, so a walk's
// timeline can order ties differently from a fresh Build of the same
// strategy. Over 3,200 searches of the workloads' problems (nmt at 8
// GPUs with Beta 15 and 1500 and at 4 GPUs, inception-v3, synth-2k)
// the gap had median 1.6%, 99th percentile 9.3% and maximum 15.3%;
// 2.1%, 0.66%, 0.28% and 0.09% of the gaps exceeded 8, 10, 12 and 14%,
// a tail that falls about 2.8 times per two points. Extrapolated, a
// gap beyond 25% comes about once in 300,000 searches, so that the
// several thousand checks of a full set of benchmark runs fail
// falsely with a chance near 1%; a tighter tolerance would fail runs
// of correct code. The bit-exact property the simulator does promise,
// delta == full simulation of the same instance, is checked by the
// traced replay; the fresh-build gap is reported on every run.
const resimTolerance = 0.25

// resim compares a reported cost with the fresh re-simulation of its
// strategy, records the gap, and fails the check beyond resimTolerance.
func (t *tally) resim(reported, fresh time.Duration) error {
	gap := math.Abs(float64(fresh-reported)) / float64(reported)
	t.mu.Lock()
	t.resims++
	if fresh != reported {
		t.resimDiffer++
	}
	t.resimGap = max(t.resimGap, gap)
	t.mu.Unlock()
	if gap > resimTolerance {
		return fmt.Errorf("strategy re-simulates to %v, reported %v (gap %.1f%% > %.0f%%)", fresh, reported, 100*gap, 100*resimTolerance)
	}
	return nil
}

// op records one operation and its checks' outcome (nil = passed).
func (t *tally) op(err error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.attempted++
	if err != nil {
		t.failed++
		if len(t.errs) < 20 {
			t.errs = append(t.errs, err.Error())
		}
	}
}

// fail records a failed check of an operation already counted.
func (t *tally) fail(err error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.failed++
	if len(t.errs) < 20 {
		t.errs = append(t.errs, err.Error())
	}
}

// libraryProblem builds the workload's graph and topology.
func libraryProblem(w *workload) (*flexflow.Graph, *flexflow.Topology, error) {
	g, err := flexflow.Model(w.Model)
	if err != nil {
		return nil, nil, err
	}
	return g, w.topology(), nil
}

// firstEventAt starts one search of the workload through the facade
// and returns the time to its first progress event at or below target,
// with that event's proposal count; the search is cancelled there. The
// clock starts before graph construction when withBuild is set (the
// set-up probe: model build, Compile, base Simulate and chain setup,
// with target math.MaxInt64, which the first event meets), and at the
// Optimize call otherwise. No such event within the cap is an
// error.
func firstEventAt(w *workload, seed int64, maxIters int, target time.Duration, withBuild bool) (time.Duration, int, error) {
	start := time.Now()
	g, topo, err := libraryProblem(w)
	if err != nil {
		return 0, 0, err
	}
	opt, err := flexflow.GetOptimizer("mcmc")
	if err != nil {
		return 0, 0, err
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var once sync.Once
	var at time.Duration
	iter, reached := 0, false
	opts := w.options(seed, maxIters)
	opts.OnEvent = func(ev flexflow.ProgressEvent) {
		if ev.BestCost <= target {
			once.Do(func() {
				at, iter, reached = time.Since(start), ev.Iter, true
				cancel()
			})
		}
	}
	if !withBuild {
		start = time.Now()
	}
	res, err := opt.Optimize(ctx, flexflow.Problem{Graph: g, Topology: topo}, opts)
	if !reached {
		return 0, 0, fmt.Errorf("seed %d: best %v never reached target %v (err %v)", seed, res.BestCost, target, err)
	}
	return at, iter, nil
}

// tqWalk runs the reference walk of one committed seed and returns the
// time from the Optimize call to the first progress event at or below
// the seed's target. A target met before the first proposal is an
// error: the metric would time set-up, not the walk.
func tqWalk(cat *catalogue, w *workload, refSeed int64) (time.Duration, error) {
	target, err := cat.target(w, refSeed)
	if err != nil {
		return 0, err
	}
	d, iter, err := firstEventAt(w, refSeed, w.MaxIters, target, false)
	if err == nil && iter == 0 {
		err = fmt.Errorf("reference walk seed %d: target %v met before the first proposal", refSeed, target)
	}
	return d, err
}

// checkResult applies the correctness checks to one search result:
// the strategy is valid for the graph and topology and its fresh
// re-simulation matches BestCost (see tally.resim). Validity is
// Strategy.Validate (every config fits its op and the devices):
// flexflow.VerifyStrategy executes the forward pass numerically, which
// on paper-scale nmt needs more than 1.5 GB of float32 tensors.
func checkResult(t *tally, g *flexflow.Graph, topo *flexflow.Topology, res flexflow.Result, err error) error {
	if err != nil {
		return err
	}
	if res.Best == nil {
		return fmt.Errorf("search returned no strategy")
	}
	if err := res.Best.Validate(g, topo); err != nil {
		return fmt.Errorf("returned strategy is invalid: %w", err)
	}
	c, _ := flexflow.Simulate(g, topo, res.Best)
	return t.resim(res.BestCost, c)
}

// libraryRun is the outcome of one untraced library run.
type libraryRun struct {
	setup, search, best, miss, hit []float64
	tq                             map[int][]float64 // by reference seed
	calls                          int
	// rates holds each round's searches per second of the time its
	// two searches took.
	rates []float64
}

// runLibrary measures a library workload in rounds until the run's time
// is up, so that every metric samples the whole run: a round times one
// search set-up, the two reference walks (tq_s), and one seeded
// problem asked twice with identical inputs — the first call is a
// miss, the second a repeat: the library keeps no cache, so a repeat
// runs the search again and must return the identical strategy (the
// determinism contract). Before every timed call a garbage collection
// returns the freed memory to the system, so that one call's garbage
// stays out of the next call's time and the peak resident memory does
// not depend on when the runtime's background scavenger last ran.
func runLibrary(cat *catalogue, w *workload, seed int64, seconds time.Duration, sz sizes, t *tally) (*libraryRun, error) {
	runStart := time.Now()
	maxIters := w.MaxIters
	if sz.maxIters > 0 {
		maxIters = sz.maxIters
	}
	r := &libraryRun{tq: map[int][]float64{}}
	opt, err := flexflow.GetOptimizer("mcmc")
	if err != nil {
		return nil, err
	}
	var round time.Duration // the last round's wall time, to end the loop on time
	for i := 0; i == 0 || time.Since(runStart)+round/2 < seconds; i++ {
		roundStart := time.Now()
		debug.FreeOSMemory()
		d, _, err := firstEventAt(w, 1, maxIters, math.MaxInt64, true)
		t.op(err)
		if err != nil {
			return nil, err
		}
		r.setup = append(r.setup, d.Seconds())
		for j, rs := range cat.ReferenceSeeds {
			debug.FreeOSMemory()
			d, err := tqWalk(cat, w, rs)
			t.op(err)
			if err != nil {
				return nil, err
			}
			r.tq[j] = append(r.tq[j], d.Seconds())
		}
		g, topo, err := libraryProblem(w)
		if err != nil {
			return nil, err
		}
		prob := flexflow.Problem{Graph: g, Topology: topo}
		opts := w.options(deriveSeed(seed, i), maxIters)
		var first flexflow.Result
		var firstJSON []byte
		var busy time.Duration
		for rep := 0; rep < 2; rep++ {
			debug.FreeOSMemory()
			t0 := time.Now()
			res, err := opt.Optimize(context.Background(), prob, opts)
			lat := time.Since(t0)
			busy += lat
			r.calls++
			err = checkResult(t, g, topo, res, err)
			if err == nil {
				var data []byte
				data, err = flexflow.ExportStrategy(g, res.Best)
				if rep == 0 {
					first, firstJSON = res, data
				} else if err == nil && (res.BestCost != first.BestCost || !bytes.Equal(data, firstJSON)) {
					err = fmt.Errorf("seed %d: repeat returned cost %v, first call %v (strategies differ: %v)",
						opts.Seed, res.BestCost, first.BestCost, !bytes.Equal(data, firstJSON))
				}
			}
			t.op(err)
			r.search = append(r.search, res.SearchTime.Seconds())
			if rep == 0 {
				r.miss = append(r.miss, ms(lat))
				r.best = append(r.best, ms(res.BestCost))
			} else {
				r.hit = append(r.hit, ms(lat))
			}
		}
		round = time.Since(roundStart)
		r.rates = append(r.rates, 2/busy.Seconds())
	}
	return r, nil
}

// metrics reduces a library run to the end-to-end metrics.
func (r *libraryRun) metrics() map[string]float64 {
	return map[string]float64{
		"tq_s":        perEntry(r.tq),
		"search_s":    median(r.search),
		"best_sim_ms": median(r.best),
		"setup_s":     median(r.setup),
		"hit_p50_ms":  percentile(r.hit, 50),
		"miss_p50_ms": median(r.miss),
		"req_per_s":   median(r.rates),
	}
}

// traceLibrary is the traced run of a library workload: set-up spans,
// the layer replay (traced, untraced for the overhead, and a counting
// pass for sim.changed_share), the reference search for the counts, and
// the facade calls a cached answer is made of.
func traceLibrary(cat *catalogue, w *workload, seed int64, sz sizes, tr *tracer, t *tally) error {
	topo := w.topology()
	g, err := traceSetup(tr, w.Model, topo)
	if err != nil {
		return err
	}
	p := &problem{g: g, topo: topo, beta: w.Beta, initial: flexflow.DataParallel(g, topo)}
	n := w.ReplayProposals
	if sz.replay > 0 {
		n = sz.replay
	}
	traceReplay(tr, p, deriveSeed(seed, 0), n, t)
	refSeed := cat.ReferenceSeeds[0]
	target, err := cat.target(w, refSeed)
	if err != nil {
		return err
	}
	maxIters := w.MaxIters
	if sz.maxIters > 0 {
		maxIters = sz.maxIters
	}
	traceSearch(tr, &problem{g: g, topo: topo, beta: w.Beta}, refSeed, maxIters, target)
	return traceFacade(tr, g, topo, p.initial, 5)
}

// traceReplay runs the replay untraced, traced, and untraced again, and
// records the traced wall time and the mean of the untraced ones for
// the tracing overhead: bracketing the traced walk cancels a warm-up or
// a drift in machine speed. A last pass over the first 40 proposals
// counts the changed tasks and checks every delta simulation against a
// full one (see replay), counting the checks in t.
func traceReplay(tr *tracer, p *problem, seed int64, n int, t *tally) {
	before := replay(nil, p, seed, n, nil)
	traced := replay(tr, p, seed, n, nil)
	after := replay(nil, p, seed, n, nil)
	tr.count("replay.untraced_ns", float64(before+after)/2)
	tr.count("replay.traced_ns", float64(traced))
	counting := &tracer{counters: map[string]float64{}}
	replay(counting, p, seed, min(n, 40), t)
	tr.count("replay.changed_tasks", counting.counters["replay.changed_tasks"])
	tr.count("replay.suffix_tasks", counting.counters["replay.suffix_tasks"])
}
