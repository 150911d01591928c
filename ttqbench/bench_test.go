package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"strconv"
	"strings"
	"testing"
	"time"
)

// tinySizes shrink every workload to a run of a few seconds.
var tinySizes = sizes{maxIters: 8, replay: 5, serveWarmSeeds: 1, serveMinHits: 20}

// benchmarkFile is the part of ../BENCHMARK.json the tests compare
// with the command's output.
type benchmarkFile struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

// loadBenchmarkFile reads ../BENCHMARK.json, rejecting unknown keys.
func loadBenchmarkFile(t *testing.T) benchmarkFile {
	t.Helper()
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var f benchmarkFile
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&f); err != nil {
		t.Fatalf("BENCHMARK.json: %v", err)
	}
	return f
}

// runTiny runs one tiny invocation and returns its exit code, its
// decoded last output line, and the whole output.
func runTiny(t *testing.T, args ...string) (int, result, string) {
	t.Helper()
	var out, errOut bytes.Buffer
	code := run(args, &out, &errOut, tinySizes)
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	var r result
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &r); err != nil {
		t.Fatalf("%v: last line %q is not a result: %v\nstderr: %s", args, lines[len(lines)-1], err, errOut.String())
	}
	if code != 0 || !r.Correct || r.Failed != 0 {
		t.Fatalf("%v: exit %d, result %+v\nstderr: %s", args, code, r, errOut.String())
	}
	return code, r, out.String()
}

// TestBenchmarkJSONMatchesOutput runs every workload at a tiny size,
// untraced and traced, and checks that the printed metrics are exactly
// BENCHMARK.json's end_to_end and per_layer lists, with their units,
// that every end-to-end value is positive, and that the workloads and
// settings the file names are the command's, each why quoting its
// workload's figures.
func TestBenchmarkJSONMatchesOutput(t *testing.T) {
	f := loadBenchmarkFile(t)
	if !reflect.DeepEqual(f.Command, []string{"bash", "ttqbench/run.sh"}) || !reflect.DeepEqual(f.Paths, []string{"ttqbench"}) {
		t.Fatalf("command %v, paths %v", f.Command, f.Paths)
	}
	cat, err := loadCatalogue()
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range f.Workloads {
		names = append(names, w.Name)
		if w.Why == "" || len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %s: why must be one line of at most 200 characters", w.Name)
		}
		if cw, ok := cat.Workloads[w.Name]; ok {
			for _, want := range whyRecords(cat, cw) {
				if !strings.Contains(w.Why, want) {
					t.Errorf("workload %s: why %q lacks %q from workloads.json", w.Name, w.Why, want)
				}
			}
		}
	}
	sort.Strings(names)
	if !reflect.DeepEqual(names, cat.names()) {
		t.Fatalf("BENCHMARK.json workloads %v, workloads.json %v", names, cat.names())
	}
	e2e := map[string]string{}
	for _, m := range f.EndToEnd {
		e2e[m.Name] = m.Unit
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", m.Name, m.Bound)
		}
	}
	layer := map[string]string{}
	for _, m := range f.PerLayer {
		layer[m.Name] = m.Unit
	}
	if !reflect.DeepEqual(e2e, endToEnd) {
		t.Errorf("BENCHMARK.json end_to_end %v, command prints %v", e2e, endToEnd)
	}
	if !reflect.DeepEqual(layer, perLayer) {
		t.Errorf("BENCHMARK.json per_layer %v, command prints %v", layer, perLayer)
	}
	for _, name := range names {
		t.Run(name, func(t *testing.T) {
			_, r, _ := runTiny(t, "--workload", name, "--seed", "5", "--seconds", "0.5", "--trace", "0")
			got := map[string]string{}
			for n, m := range r.Metrics {
				got[n] = m.Unit
				if m.Value <= 0 {
					t.Errorf("%s = %v, want > 0", n, m.Value)
				}
			}
			if !reflect.DeepEqual(got, e2e) {
				t.Errorf("untraced run prints %v, want %v", got, e2e)
			}
			spans := filepath.Join(t.TempDir(), "spans.json")
			_, r, _ = runTiny(t, "--workload", name, "--seed", "5", "--seconds", "0.5", "--trace", "1", "--trace-out", spans)
			got = map[string]string{}
			for n, m := range r.Metrics {
				got[n] = m.Unit
			}
			if !reflect.DeepEqual(got, layer) {
				t.Errorf("traced run prints %v, want %v", got, layer)
			}
			var out, errOut bytes.Buffer
			if code := run([]string{"--report", spans}, &out, &errOut, tinySizes); code != 0 {
				t.Fatalf("--report exit %d: %s", code, errOut.String())
			}
			for n := range layer {
				if strings.HasSuffix(n, ".self_ms") {
					n = strings.TrimSuffix(n, ".self_ms") + " "
				}
				if !strings.Contains(out.String(), n) {
					t.Errorf("report lacks %q", n)
				}
			}
		})
	}
}

// whyRecords are the figures of workloads.json a workload's why in
// BENCHMARK.json must quote: its proposal cap, data-parallel cost and
// reference bests (ms, three decimals), and the target rule of
// catalogue.target or, for serve-mix, the planned request shares.
func whyRecords(cat *catalogue, w *workload) []string {
	capIters := w.MaxIters
	if w.Serve != nil {
		capIters = w.Serve.MaxIters
	}
	var refs []string
	for _, s := range cat.ReferenceSeeds {
		refs = append(refs, fmt.Sprintf("%.3f", float64(w.ReferenceBestNS[strconv.FormatInt(s, 10)])/1e6))
	}
	out := []string{
		fmt.Sprintf("cap %d", capIters),
		fmt.Sprintf("DP %.3f", float64(w.DPSimNS)/1e6),
		strings.Join(refs, "/") + " ms",
	}
	if w.Serve == nil {
		return append(out, fmt.Sprintf("target min(%gx ref, midway start-ref)", cat.TargetFactor))
	}
	hit, search, coalesced := w.Serve.shares()
	return append(out, fmt.Sprintf("%.2f%% hits", 100*hit), fmt.Sprintf("%.2f%% searches", 100*search),
		fmt.Sprintf("%.2f%% coalesced", 100*coalesced))
}

// TestTracedCountsRepeat pins the determinism of the traced run's
// counts: at a fixed seed they repeat exactly.
func TestTracedCountsRepeat(t *testing.T) {
	counts := []string{"sim.suffix_tasks_per_delta", "sim.pops_per_proposal", "search.accept_ratio", "search.iters_to_target", "search.improvements"}
	var first map[string]float64
	for i := 0; i < 2; i++ {
		_, r, _ := runTiny(t, "--workload", "nmt-2node", "--seed", "3", "--seconds", "0.5", "--trace", "1",
			"--trace-out", filepath.Join(t.TempDir(), "spans.json"))
		got := map[string]float64{}
		for _, c := range counts {
			got[c] = r.Metrics[c].Value
		}
		if first == nil {
			first = got
		} else if !reflect.DeepEqual(got, first) {
			t.Fatalf("counts differ across runs: %v then %v", first, got)
		}
	}
}

// TestSelfTimes checks the self-time rule: a span's duration minus the
// part of it its children cover, overlapping children counted once.
func TestSelfTimes(t *testing.T) {
	spans := []span{
		{ID: 1, Name: "search.proposal", Start: 0, End: 100},
		{ID: 2, Parent: 1, Name: "sim.apply_delta", Start: 10, End: 50},
		{ID: 3, Parent: 1, Name: "sim.apply_delta", Start: 40, End: 70},
		{ID: 4, Parent: 2, Name: "taskgraph.replace_config", Start: 20, End: 30},
	}
	got := selfTimes(spans)
	want := map[string]time.Duration{"search": 40, "sim": 60, "taskgraph": 10}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("selfTimes = %v, want %v", got, want)
	}
}

// TestDeriveSeed checks that a run's inputs follow from its seed alone:
// derived seeds repeat for the same run seed and differ across them.
func TestDeriveSeed(t *testing.T) {
	seen := map[int64]bool{}
	for s := int64(1); s <= 20; s++ {
		for i := 0; i < 20; i++ {
			d := deriveSeed(s, i)
			if d <= 0 || d != deriveSeed(s, i) || seen[d] {
				t.Fatalf("deriveSeed(%d, %d) = %d: not positive, not repeatable, or repeated", s, i, d)
			}
			seen[d] = true
		}
	}
}

// TestTargetsNeedTheWalk checks the target rule: a target always lies
// below the starting best of its walk, halfway down from it to the
// reference best when 1.05 × the best does not, and a catalogue whose
// target is not below the starting best is refused.
func TestTargetsNeedTheWalk(t *testing.T) {
	one := func(start, ref int64) *workload {
		return &workload{DPSimNS: 1000, StartBestNS: map[string]int64{"1": start}, ReferenceBestNS: map[string]int64{"1": ref}}
	}
	cat := &catalogue{TargetFactor: 1.05, ReferenceSeeds: []int64{1}, Workloads: map[string]*workload{
		"far":  one(1000, 200),
		"near": one(1000, 990),
		"rand": one(300, 290),
	}}
	for name, want := range map[string]time.Duration{"far": 210, "near": 995, "rand": 295} {
		if got, err := cat.target(cat.Workloads[name], 1); err != nil || got != want {
			t.Errorf("%s: target %v (%v), want %v", name, got, err, want)
		}
	}
	if err := cat.check(); err != nil {
		t.Fatal(err)
	}
	cat.Workloads["bad"] = one(1000, 1000)
	if err := cat.check(); err == nil {
		t.Fatal("check accepted a reference best at the starting best")
	}
}
