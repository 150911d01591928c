package main

import (
	"context"
	_ "embed"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"sort"
	"strconv"
	"sync"
	"time"

	"flexflow"
)

// workloadsJSON records every workload's problem, its data-parallel
// cost and the bests of its reference walks as the code measured them
// when the benchmark was written; the reasons for the workloads are in
// BENCHMARK.json.
//
//go:embed workloads.json
var workloadsJSON []byte

// catalogue is workloads.json decoded.
type catalogue struct {
	// TargetFactor scales a reference best into the time-to-quality
	// target (1.05: within 5% of the reference).
	TargetFactor float64 `json:"target_factor"`
	// ReferenceSeeds are the search seeds of the reference walks: the
	// default seed and one held-out seed.
	ReferenceSeeds []int64              `json:"reference_seeds"`
	Workloads      map[string]*workload `json:"workloads"`
}

// workload is one benchmark workload.
type workload struct {
	// Kind is "library" (searches through flexflow.Optimize) or
	// "serve" (a request stream through flexflowd).
	Kind string `json:"kind"`

	// The problem of a library workload.
	Model   string  `json:"model,omitempty"`
	Cluster string  `json:"cluster,omitempty"` // "p100" (Nodes nodes) or "single" (GPUs P100s)
	Nodes   int     `json:"nodes,omitempty"`
	GPUs    int     `json:"gpus,omitempty"`
	Beta    float64 `json:"beta,omitempty"` // 0 = the library default, 15
	// MaxIters is the proposal cap per chain.
	MaxIters int `json:"max_iters,omitempty"`
	// ReplayProposals is the length of the traced layer replay.
	ReplayProposals int `json:"replay_proposals,omitempty"`
	// DPSimNS is the simulated iteration time of data parallelism.
	DPSimNS int64 `json:"dp_sim_ns,omitempty"`
	// StartBestNS maps a reference seed to the best cost among its
	// walk's initial strategies, which the search reports before its
	// first proposal: the data-parallel cost, or the better of it and
	// the seed's random initial strategy.
	StartBestNS map[string]int64 `json:"start_best_ns,omitempty"`
	// ReferenceBestNS maps a reference seed to the best simulated
	// iteration time the seed code's search returns at the cap.
	ReferenceBestNS map[string]int64 `json:"reference_best_ns,omitempty"`

	// The request stream of a serve workload.
	Serve *serveSpec `json:"serve,omitempty"`
}

// serveSpec describes the serve-mix request stream.
type serveSpec struct {
	// GPUs is the single-node topology every catalogue request names.
	GPUs int `json:"gpus"`
	// MaxIters is the proposal cap of every catalogue search.
	MaxIters int `json:"max_iters"`
	// Entries are the catalogue problems.
	Entries []serveEntry `json:"entries"`
	// WarmSeeds is how many seeds per entry are answered before the
	// measured stream, so that repeats of them hit the cache.
	WarmSeeds int `json:"warm_seeds"`
	// RoundRequests is how many repeats of warm keys each connection
	// sends per round; the two connections meet between rounds.
	RoundRequests int `json:"round_requests"`
	// ColdPerRound is how many fresh-seed requests the first
	// connection sends per round, one at a time after the round's
	// repeats.
	ColdPerRound int `json:"cold_per_round"`
	// CoalesceEvery closes every n-th round with one identical fresh
	// request on both connections at once.
	CoalesceEvery int `json:"coalesce_every"`
	// ReplayModel is the catalogue problem the traced layer replay
	// walks (the engine cold requests drive).
	ReplayModel     string `json:"replay_model"`
	ReplayProposals int    `json:"replay_proposals"`
}

// shares returns the planned make-up of the serve-mix stream as
// fractions of its requests: repeats of warm keys (cache hits), fresh
// requests that run a search (the cold ones and the first of each
// coalescing pair), and requests that join another's search (the
// second of each pair). The mix is sized for sample counts per run —
// enough hits for a 99th percentile, one search at a time — and
// follows no recorded flexflowd traffic.
func (s *serveSpec) shares() (hit, search, coalesced float64) {
	repeats := float64(2 * s.RoundRequests * s.CoalesceEvery)
	searches := float64(s.ColdPerRound*s.CoalesceEvery + 1)
	total := repeats + searches + 1
	return repeats / total, searches / total, 1 / total
}

// serveEntry is one catalogue problem.
type serveEntry struct {
	Model string `json:"model"`
	// Inline sends the graph as an ExportGraph payload instead of by
	// model name.
	Inline bool `json:"inline,omitempty"`
}

// loadCatalogue decodes the embedded workloads.json.
func loadCatalogue() (*catalogue, error) {
	var c catalogue
	if err := json.Unmarshal(workloadsJSON, &c); err != nil {
		return nil, fmt.Errorf("workloads.json: %w", err)
	}
	if err := c.check(); err != nil {
		return nil, fmt.Errorf("workloads.json: %w", err)
	}
	return &c, nil
}

// names lists the workload names, sorted.
func (c *catalogue) names() []string {
	var out []string
	for n := range c.Workloads {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// topology builds the workload's device topology.
func (w *workload) topology() *flexflow.Topology {
	if w.Cluster == "p100" {
		return flexflow.NewP100Cluster(w.Nodes)
	}
	return flexflow.NewSingleNode(w.GPUs, "P100")
}

// options returns the Optimize options of one search of the workload
// (without OnEvent): the paper's default candidates, data parallelism
// and one random strategy drawn from the seed, each a chain.
func (w *workload) options(seed int64, maxIters int) flexflow.OptimizeOptions {
	return flexflow.OptimizeOptions{MaxIters: maxIters, Beta: w.Beta, Seed: seed}
}

// target is the time-to-quality target of the reference walk with the
// given seed: TargetFactor × its committed reference best, but at most
// halfway from the walk's starting best down to that best. A target at
// or above the starting best is met before the first proposal; on
// serve-mix's nmt the random initial strategies start within 5% of the
// best, so there the halfway rule keeps the target for the walk to
// reach.
func (c *catalogue) target(w *workload, seed int64) (time.Duration, error) {
	key := strconv.FormatInt(seed, 10)
	ref, ok := w.ReferenceBestNS[key]
	start, ok2 := w.StartBestNS[key]
	if !ok || !ok2 {
		return 0, fmt.Errorf("no reference or starting best for seed %d", seed)
	}
	return time.Duration(min(float64(ref)*c.TargetFactor, float64(ref)+float64(start-ref)/2)), nil
}

// check rejects a catalogue whose time-to-quality targets could be met
// at set-up: every target must lie below its walk's starting best, and
// no starting best above the data-parallel cost.
func (c *catalogue) check() error {
	for _, name := range c.names() {
		w := c.Workloads[name]
		for _, s := range c.ReferenceSeeds {
			target, err := c.target(w, s)
			if err != nil {
				return fmt.Errorf("workload %s: %w", name, err)
			}
			start := time.Duration(w.StartBestNS[strconv.FormatInt(s, 10)])
			if target >= start || start > time.Duration(w.DPSimNS) {
				return fmt.Errorf("workload %s seed %d: target %v, starting best %v, data-parallel cost %v: the target must lie below the start, the start at or below data parallelism",
					name, s, target, start, time.Duration(w.DPSimNS))
			}
		}
	}
	return nil
}

// deriveSeed maps (run seed, index) to a nonzero search seed with a
// splitmix64 finalizer, so that every input of a run follows from the
// run seed alone.
func deriveSeed(seed int64, i int) int64 {
	z := uint64(seed)*0x9E3779B97F4A7C15 + uint64(i+1)*0xD1B54A32D192ED03
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	z ^= z >> 31
	s := int64(z >> 2)
	if s == 0 {
		s = 1
	}
	return s
}

// printReferences measures what workloads.json records for a workload:
// the DP cost and, per reference seed, the starting best and the best
// cost the search returns at the cap (serve-mix: its replay problem at
// the catalogue's cap).
func printReferences(out io.Writer, cat *catalogue, w *workload) error {
	r := *w
	if w.Kind == "serve" {
		r = workload{Model: w.Serve.ReplayModel, GPUs: w.Serve.GPUs, MaxIters: w.Serve.MaxIters}
	}
	g, topo, err := libraryProblem(&r)
	if err != nil {
		return err
	}
	dp, _ := flexflow.Simulate(g, topo, flexflow.DataParallel(g, topo))
	refs, starts := map[string]int64{}, map[string]int64{}
	opt, err := flexflow.GetOptimizer("mcmc")
	if err != nil {
		return err
	}
	for _, s := range cat.ReferenceSeeds {
		key := strconv.FormatInt(s, 10)
		var mu sync.Mutex
		starts[key] = math.MaxInt64
		opts := r.options(s, r.MaxIters)
		opts.OnEvent = func(ev flexflow.ProgressEvent) {
			if ev.Iter == 0 {
				mu.Lock()
				starts[key] = min(starts[key], int64(ev.BestCost))
				mu.Unlock()
			}
		}
		res, err := opt.Optimize(context.Background(), flexflow.Problem{Graph: g, Topology: topo}, opts)
		if err != nil {
			return err
		}
		refs[key] = int64(res.BestCost)
	}
	data, err := json.Marshal(map[string]any{"dp_sim_ns": int64(dp), "start_best_ns": starts, "reference_best_ns": refs})
	if err != nil {
		return err
	}
	_, err = fmt.Fprintln(out, string(data))
	return err
}
