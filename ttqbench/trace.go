package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
	"strings"
	"sync"
	"time"
)

// span is one timed call into a layer, recorded by the benchmark around
// the layer's public function. Name is "<layer>.<call>"; every span of
// one Optimize call, HTTP request or replayed proposal shares Trace.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"` // 0 = root
	Trace  int    `json:"trace"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// tracer keeps spans and counters in memory until the run ends. A nil
// *tracer records nothing, so untraced code paths call it freely.
type tracer struct {
	mu       sync.Mutex
	t0       time.Time
	spans    []span
	traces   int
	counters map[string]float64
}

// newTracer starts an empty trace.
func newTracer() *tracer {
	return &tracer{t0: time.Now(), counters: map[string]float64{}}
}

// newTrace allocates the ID shared by the spans of one operation.
func (t *tracer) newTrace() int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.traces++
	return t.traces
}

// begin opens a span and returns its ID.
func (t *tracer) begin(name string, trace, parent int) int {
	if t == nil {
		return 0
	}
	now := int64(time.Since(t.t0))
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{ID: len(t.spans) + 1, Parent: parent, Trace: trace, Name: name, Start: now})
	return len(t.spans)
}

// end closes the span with the given ID.
func (t *tracer) end(id int) {
	if t == nil {
		return
	}
	now := int64(time.Since(t.t0))
	t.mu.Lock()
	t.spans[id-1].End = now
	t.mu.Unlock()
}

// add records a span that was timed elsewhere, from start to end.
func (t *tracer) add(name string, trace, parent int, start, end time.Time) int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{ID: len(t.spans) + 1, Parent: parent, Trace: trace, Name: name,
		Start: int64(start.Sub(t.t0)), End: int64(end.Sub(t.t0))})
	return len(t.spans)
}

// count adds v to a counter.
func (t *tracer) count(name string, v float64) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.counters[name] += v
	t.mu.Unlock()
}

// spanFile is the on-disk form of a traced run.
type spanFile struct {
	Workload string             `json:"workload"`
	Seed     int64              `json:"seed"`
	Spans    []span             `json:"spans"`
	Counters map[string]float64 `json:"counters"`
}

// write saves the trace to path.
func (t *tracer) write(path, workload string, seed int64) error {
	data, err := json.Marshal(spanFile{Workload: workload, Seed: seed, Spans: t.spans, Counters: t.counters})
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

// readSpanFile loads a traced run written by tracer.write.
func readSpanFile(path string) (*spanFile, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var f spanFile
	if err := json.Unmarshal(data, &f); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &f, nil
}

// layers are the repository's modules a span name can start with, plus
// "bench" for the benchmark's own root spans.
var layers = []string{"models", "perfmodel", "taskgraph", "sim", "search", "flexflow", "server", "bench"}

// layerOf returns the layer prefix of a span name.
func layerOf(name string) string {
	if i := strings.IndexByte(name, '.'); i > 0 {
		return name[:i]
	}
	return name
}

// selfTimes returns, per layer, the summed self time of its spans: a
// span's duration minus the part of it its child spans cover.
func selfTimes(spans []span) map[string]time.Duration {
	children := map[int][]span{}
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	out := map[string]time.Duration{}
	for _, s := range spans {
		kids := children[s.ID]
		sort.Slice(kids, func(a, b int) bool { return kids[a].Start < kids[b].Start })
		covered, reach := int64(0), s.Start
		for _, k := range kids {
			lo, hi := max(k.Start, reach), min(k.End, s.End)
			if hi > lo {
				covered += hi - lo
				reach = hi
			}
		}
		out[layerOf(s.Name)] += time.Duration(s.End - s.Start - covered)
	}
	return out
}

// spanStats sums and counts the spans of each name.
func spanStats(spans []span) (total map[string]time.Duration, n map[string]int) {
	total, n = map[string]time.Duration{}, map[string]int{}
	for _, s := range spans {
		total[s.Name] += time.Duration(s.End - s.Start)
		n[s.Name]++
	}
	return total, n
}

// layerMetrics derives every per-layer metric from a traced run's spans
// and counters. Counters a workload does not produce (the server's, on
// a library workload) read 0.
func layerMetrics(f *spanFile) map[string]float64 {
	total, n := spanStats(f.Spans)
	c := f.Counters
	mean := func(name string, unit time.Duration) float64 {
		if n[name] == 0 {
			return 0
		}
		return float64(total[name]) / float64(n[name]) / float64(unit)
	}
	share := func(name, of string) float64 { return ratio(float64(total[name]), float64(total[of])) }
	m := map[string]float64{
		"models.build_ms":                mean("models.build", time.Millisecond),
		"taskgraph.compile_ms":           mean("taskgraph.compile", time.Millisecond),
		"sim.simulate_ms":                mean("sim.simulate", time.Millisecond),
		"taskgraph.instance_us":          mean("taskgraph.instance", time.Microsecond),
		"sim.clone_us":                   mean("sim.clone", time.Microsecond),
		"perfmodel.hit_ratio":            ratio(c["perfmodel.hits"], c["perfmodel.hits"]+c["perfmodel.misses"]),
		"perfmodel.signatures":           c["perfmodel.signatures"],
		"sim.apply_delta_us":             mean("sim.apply_delta", time.Microsecond),
		"sim.apply_delta_share":          share("sim.apply_delta", "search.proposal"),
		"sim.suffix_tasks_per_delta":     ratio(c["sim.suffix_tasks"], c["sim.delta_sims"]),
		"sim.pops_per_proposal":          ratio(c["sim.pops"], c["search.iters"]),
		"sim.changed_share":              ratio(c["replay.changed_tasks"], c["replay.suffix_tasks"]),
		"sim.fallbacks":                  c["sim.fallbacks"],
		"search.revert_share":            share("search.revert", "search.proposal"),
		"taskgraph.replace_config_us":    mean("taskgraph.replace_config", time.Microsecond),
		"taskgraph.replace_config_share": share("taskgraph.replace_config", "search.proposal"),
		"search.accept_ratio":            ratio(c["search.accepted"], c["search.iters"]),
		"search.improvements":            c["search.improvements"],
		"search.iters_to_target":         c["search.iters_to_target"],
		"search.proposals_per_s":         ratio(c["search.iters"], (total["search.mcmc"] - total["search.setup"]).Seconds()),
		"search.draft_us":                mean("search.draft", time.Microsecond),
		"flexflow.fingerprint_us":        mean("flexflow.fingerprint", time.Microsecond),
		"flexflow.import_graph_ms":       mean("flexflow.import_graph", time.Millisecond),
		"flexflow.export_strategy_us":    mean("flexflow.export_strategy", time.Microsecond),
		"server.overhead_ms":             c["server.overhead_ms"],
		"server.hit_p99_ms":              c["server.hit_p99_ms"],
		"server.cache_hit_ratio":         ratio(c["server.cache_hits"], c["server.cache_hits"]+c["server.cache_misses"]),
		"server.coalesced_ratio":         ratio(c["server.coalesced"], c["server.requests"]),
		"server.jobs":                    c["server.jobs"],
		"server.rejected":                c["server.rejected"],
		"server.search_ms":               c["server.search_ms"],
		"bench.trace_overhead_pct":       100 * ratio(c["replay.traced_ns"]-c["replay.untraced_ns"], c["replay.untraced_ns"]),
	}
	self := selfTimes(f.Spans)
	for _, l := range layers {
		m[l+".self_ms"] = float64(self[l]) / float64(time.Millisecond)
	}
	return m
}

// ratio is a/b, or 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// writeReport prints the per-layer report of a traced run: every
// per-layer metric with its unit, then self time per layer.
func writeReport(w io.Writer, f *spanFile) {
	m := layerMetrics(f)
	fmt.Fprintf(w, "per-layer report: workload %s, seed %d, %d spans\n", f.Workload, f.Seed, len(f.Spans))
	var names []string
	for name := range m {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		if strings.HasSuffix(name, ".self_ms") {
			continue
		}
		fmt.Fprintf(w, "  %-34s %14.4f %s\n", name, m[name], perLayer[name])
	}
	fmt.Fprintf(w, "self time per layer:\n")
	for _, l := range layers {
		fmt.Fprintf(w, "  %-10s %12.3f ms\n", l, m[l+".self_ms"])
	}
	fmt.Fprintf(w, "tracing overhead (traced minus untraced replay): %.2f%%\n", m["bench.trace_overhead_pct"])
}
