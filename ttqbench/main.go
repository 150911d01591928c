// Command ttqbench is the repository's time-to-quality benchmark: how
// long FlexFlow takes to hand a user a good parallelization strategy,
// through the library (flexflow.Optimize with the "mcmc" optimizer) and
// through flexflowd (internal/server on a loopback listener).
//
// Run it from the repository root; the script builds the benchmark
// into .bench_build/ and runs one workload:
//
//	bash ttqbench/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
//	bash ttqbench/run.sh --report <span file>
//
// Workloads (problems, caps, data-parallel costs and reference walks
// are recorded in ttqbench/workloads.json):
//
//	nmt-2node  paper-scale nmt on two 4-GPU P100 nodes, Beta 15, DP
//	           plus one random initial (two chains)
//	serve-mix  flexflowd under two closed-loop connections over a
//	           catalogue of nmt, inception-v3 and synth-2k requests (by
//	           name and as an inline nmt graph): 99.38% cache hits,
//	           0.47% searches and 0.16% coalesced requests, a mix sized
//	           for samples per run and taken from no recorded traffic;
//	           each round sends its repeats, then its fresh requests one
//	           at a time, then its coalescing pair, so that hits and
//	           searches never share the two cores
//
// End-to-end metrics (--trace 0), every workload:
//
//	tq_s         time to a strategy within 5% of the reference best:
//	             library, Optimize call to the first progress event at
//	             or below the target of the reference walks (seeds 1
//	             and 2): 1.05 x the committed reference best, or halfway
//	             from the walk's starting best down to it where that is
//	             lower; serve-mix, the latency of a cold request (the
//	             server answers with the final strategy only)
//	search_s     wall time of one whole search (serve-mix: the server's
//	             search_time_ns of cold requests)
//	best_sim_ms  simulated iteration time of the returned strategy
//	             (serve-mix: of the cold nmt answers)
//	setup_s      library, graph construction to the first progress
//	             event; serve-mix, server.New to the first healthy
//	             /healthz
//	peak_rss_mb  the run's peak resident memory (one workload per
//	             process)
//	hit_p50_ms   latency of a repeated request: serve-mix, a cached
//	             answer (the median per catalogue entry, averaged over
//	             the entries); library, a same-seed re-run (the library
//	             keeps no cache, so a repeat searches again)
//	miss_p50_ms  latency of a request that ran or joined a search
//	req_per_s    requests answered per second: library, the median over
//	             the run's rounds of two over the time of the round's
//	             two searches; serve-mix, the median over cycles of
//	             rounds, each with one coalescing pair, of their
//	             requests over their wall time
//
// Timings are medians over the run's samples. The 99th percentile of
// serve-mix cache hits is printed with the serve-mix summary and
// reported by the traced run as server.hit_p99_ms, not gated: it is
// set by a handful of hits, and the host's load moves it from run to
// run.
//
// The traced run (--trace 1) replays a walk of the workload's problem,
// drawn from the run seed, layer by layer, records spans around every
// call into models, perfmodel, taskgraph, sim, search, flexflow and
// server, writes them to .bench_build/traces/<workload>-seed<n>.json,
// and prints the per-layer metrics (see layerMetrics); --report turns
// such a file back into the per-layer report.
//
// Every output is checked: returned strategies pass Strategy.Validate
// and a fresh re-simulation matches their reported cost (within 25%:
// ties between ready tasks break by task ID, which a walk re-mints;
// every run prints how many costs differ and the largest gap), a
// same-seed repeat returns the identical strategy, and every flexflowd
// answer imports and re-simulates to best_cost_ns or carries the bytes
// of the answer that ran its search. The last line of output is one JSON object with
// correct, attempted, failed and metrics; the exit code is non-zero
// when any check failed.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"time"

	"flexflow"
)

// endToEnd are the metrics of an untraced run, with their units.
var endToEnd = map[string]string{
	"tq_s": "s", "search_s": "s", "best_sim_ms": "ms", "setup_s": "s",
	"peak_rss_mb": "MB", "hit_p50_ms": "ms",
	"miss_p50_ms": "ms", "req_per_s": "1/s",
}

// perLayer are the metrics of a traced run, with their units.
var perLayer = map[string]string{
	"models.build_ms":                "ms",
	"perfmodel.hit_ratio":            "ratio",
	"perfmodel.signatures":           "count",
	"taskgraph.compile_ms":           "ms",
	"taskgraph.instance_us":          "us",
	"taskgraph.replace_config_us":    "us",
	"taskgraph.replace_config_share": "ratio",
	"sim.simulate_ms":                "ms",
	"sim.clone_us":                   "us",
	"sim.apply_delta_us":             "us",
	"sim.apply_delta_share":          "ratio",
	"sim.suffix_tasks_per_delta":     "count",
	"sim.pops_per_proposal":          "count",
	"sim.changed_share":              "ratio",
	"sim.fallbacks":                  "count",
	"search.revert_share":            "ratio",
	"search.accept_ratio":            "ratio",
	"search.improvements":            "count",
	"search.iters_to_target":         "count",
	"search.proposals_per_s":         "1/s",
	"search.draft_us":                "us",
	"flexflow.fingerprint_us":        "us",
	"flexflow.import_graph_ms":       "ms",
	"flexflow.export_strategy_us":    "us",
	"server.overhead_ms":             "ms",
	"server.hit_p99_ms":              "ms",
	"server.cache_hit_ratio":         "ratio",
	"server.coalesced_ratio":         "ratio",
	"server.jobs":                    "count",
	"server.rejected":                "count",
	"server.search_ms":               "ms",
	"bench.trace_overhead_pct":       "%",
	"models.self_ms":                 "ms",
	"perfmodel.self_ms":              "ms",
	"taskgraph.self_ms":              "ms",
	"sim.self_ms":                    "ms",
	"search.self_ms":                 "ms",
	"flexflow.self_ms":               "ms",
	"server.self_ms":                 "ms",
	"bench.self_ms":                  "ms",
}

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of a run's output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr, fullSizes))
}

// run executes one benchmark invocation and returns its exit code.
func run(args []string, stdout, stderr io.Writer, sz sizes) int {
	fs := flag.NewFlagSet("ttqbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload to run")
	seed := fs.Int64("seed", 1, "workload seed: every input of the run follows from it")
	seconds := fs.Float64("seconds", 50, "how long the run measures")
	traced := fs.Int("trace", 0, "1 = traced run reporting per-layer metrics")
	traceOut := fs.String("trace-out", "", "span file of a traced run (default .bench_build/traces/<workload>-seed<n>.json)")
	report := fs.String("report", "", "print the per-layer report of a span file and exit")
	refs := fs.Bool("references", false, "measure the workload's DP cost and reference bests and exit")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *report != "" {
		f, err := readSpanFile(*report)
		if err != nil {
			fmt.Fprintln(stderr, err)
			return 1
		}
		writeReport(stdout, f)
		return 0
	}
	cat, err := loadCatalogue()
	if err != nil {
		fmt.Fprintln(stderr, err)
		return 1
	}
	w, ok := cat.Workloads[*name]
	if !ok {
		fmt.Fprintf(stderr, "unknown workload %q (have %s)\n", *name, strings.Join(cat.names(), ", "))
		return 2
	}
	flexflow.SetWorkers(min(2, runtime.NumCPU()))
	if *refs {
		if err := printReferences(stdout, cat, w); err != nil {
			fmt.Fprintln(stderr, err)
			return 1
		}
		return 0
	}
	dur := time.Duration(*seconds * float64(time.Second))
	fmt.Fprintf(stdout, "workload %s seed %d seconds %g trace %d workers %d\n", *name, *seed, *seconds, *traced, flexflow.WorkerBound())

	var t tally
	values := map[string]float64{}
	units := endToEnd
	if *traced == 1 {
		units = perLayer
		tr := newTracer()
		if w.Kind == "serve" {
			err = traceServe(cat, w, *seed, dur/2, sz, tr, &t)
		} else {
			err = traceLibrary(cat, w, *seed, sz, tr, &t)
		}
		t.op(err)
		if err == nil {
			path := *traceOut
			if path == "" {
				path = filepath.Join(".bench_build", "traces", fmt.Sprintf("%s-seed%d.json", *name, *seed))
			}
			if err = os.MkdirAll(filepath.Dir(path), 0o755); err == nil {
				err = tr.write(path, *name, *seed)
			}
			if err != nil {
				fmt.Fprintln(stderr, err)
				return 1
			}
			f := &spanFile{Workload: *name, Seed: *seed, Spans: tr.spans, Counters: tr.counters}
			writeReport(stdout, f)
			fmt.Fprintf(stdout, "span file: %s\n", path)
			values = layerMetrics(f)
		}
	} else if w.Kind == "serve" {
		var r *serveRun
		if r, _, err = runServe(w, *seed, dur, sz, &t, nil); err == nil {
			values = r.metrics()
			hit, search, coalesced := w.Serve.shares()
			n := float64(r.st.requests)
			fmt.Fprintf(stdout, "serve-mix: %d requests, %d hits (p99 %.3f ms), %d misses (%d coalesced); shares hit/search/coalesced %.2f%%/%.2f%%/%.2f%% (planned %.2f%%/%.2f%%/%.2f%%)\n",
				r.st.requests, len(r.st.hits), percentile(r.st.hits, 99), r.st.requests-len(r.st.hits), r.st.coalesced,
				100*float64(len(r.st.hits))/n, 100*float64(r.st.requests-len(r.st.hits)-r.st.coalesced)/n, 100*float64(r.st.coalesced)/n,
				100*hit, 100*search, 100*coalesced)
		}
	} else {
		var r *libraryRun
		if r, err = runLibrary(cat, w, *seed, dur, sz, &t); err == nil {
			values = r.metrics()
			fmt.Fprintf(stdout, "%s: %d rounds: %d setup probes, %d reference walks, %d searches (%d problems asked twice)\n",
				*name, len(r.setup), len(r.setup), len(r.setup)*len(r.tq), r.calls, len(r.miss))
		}
	}
	if err != nil {
		fmt.Fprintln(stderr, "error:", err)
	}
	if *traced != 1 {
		values["peak_rss_mb"] = peakRSSMB()
	}
	for _, e := range t.errs {
		fmt.Fprintln(stderr, "check failed:", e)
	}
	res := result{Correct: err == nil && t.failed == 0, Attempted: t.attempted, Failed: t.failed, Metrics: map[string]metric{}}
	if err == nil {
		names := make([]string, 0, len(units))
		for n := range units {
			names = append(names, n)
		}
		sort.Strings(names)
		for _, n := range names {
			res.Metrics[n] = metric{Value: values[n], Unit: units[n]}
			if *traced != 1 {
				fmt.Fprintf(stdout, "  %-12s %14.6f %s\n", n, values[n], units[n])
			}
		}
	}
	fmt.Fprintf(stdout, "checks: %d failed of %d attempted; fresh re-simulation: %d of %d costs differ from the reported cost, largest gap %.2f%%\n",
		t.failed, t.attempted, t.resimDiffer, t.resims, 100*t.resimGap)
	line, _ := json.Marshal(res)
	fmt.Fprintln(stdout, string(line))
	if !res.Correct {
		return 1
	}
	return 0
}

// peakRSSMB reads the process's peak resident set size (VmHWM).
func peakRSSMB() float64 {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(data), "\n") {
		if f := strings.Fields(line); len(f) >= 2 && f[0] == "VmHWM:" {
			kb, _ := strconv.ParseFloat(f[1], 64)
			return kb / 1024
		}
	}
	return 0
}

// ms converts a duration to milliseconds.
func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// perEntry averages the medians of groups of samples (catalogue
// entries, reference seeds) whose values differ by group, so that a
// group's share of the samples does not move the figure.
func perEntry(samples map[int][]float64) float64 {
	if len(samples) == 0 {
		return 0
	}
	total := 0.0
	for _, v := range samples {
		total += median(v)
	}
	return total / float64(len(samples))
}

// median is the 50th percentile.
func median(v []float64) float64 { return percentile(v, 50) }

// percentile interpolates linearly between the closest ranks (0 for no
// samples).
func percentile(v []float64, p float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	x := p / 100 * float64(len(s)-1)
	i := int(x)
	if i+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[i] + (x-float64(i))*(s[i+1]-s[i])
}
