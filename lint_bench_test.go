package flexflow

import (
	"path/filepath"
	"testing"

	"flexflow/internal/benchjson"
)

// TestBenchTrajectoryFiles is the BENCH_*.json gate CI runs: every
// committed trajectory file must parse and satisfy the schema
// (internal/benchjson: schema version, PR label, benchmarks, a
// proposals/sec/core metric), at least one file must exist so the
// per-PR trajectory never silently stops, and a file that records a
// baseline must show at least one of those benchmarks improving —
// recording a baseline is a performance claim, and the claim must hold
// in the committed numbers.
func TestBenchTrajectoryFiles(t *testing.T) {
	files, err := filepath.Glob("BENCH_*.json")
	if err != nil {
		t.Fatal(err)
	}
	if len(files) == 0 {
		t.Fatal("no BENCH_*.json trajectory files committed (see docs/EXPERIMENTS.md)")
	}
	for _, file := range files {
		f, err := benchjson.Load(file)
		if err != nil {
			t.Errorf("%v", err)
			continue
		}
		if len(f.Baseline) == 0 {
			continue
		}
		improved := false
		for name, base := range f.Baseline {
			cur, ok := f.Benchmarks[name]
			if !ok {
				continue
			}
			if cur.NsPerOp < base.NsPerOp || (base.AllocsPerOp > 0 && cur.AllocsPerOp < base.AllocsPerOp) {
				improved = true
				break
			}
		}
		if !improved {
			t.Errorf("%s: baseline recorded but no shared benchmark improves ns_per_op or allocs_per_op", file)
		}
	}
}

// benchFloor is one improvement a committed trajectory file claims:
// in file, bench must beat its in-file baseline by at least factor
// (cur*factor <= base, and strictly: cur < base) in one of fields, each
// lower-is-better and recorded (> 0) on both sides.
type benchFloor struct {
	file, bench string
	fields      []string
	factor      float64
}

// benchFloors are the committed claims the trajectory files must keep
// holding, each under the change it came with.
var benchFloors = []benchFloor{
	// CSR hot-path flattening.
	{"BENCH_pr6.json", "BenchmarkDeltaSimulation/nmt", []string{"ns_per_op", "allocs_per_op"}, 1},
	// Copy-on-write Plan.Instance no longer deep-copies the CSR.
	{"BENCH_pr8.json", "BenchmarkChainSetup/shared-plan", []string{"bytes_per_op"}, 5},
	// Sparse timing state: CloneFor shares timing pages copy-on-write,
	// and the 4-ary heap speeds up the large delta.
	{"BENCH_pr9.json", "BenchmarkChainSetupSynth100k/shared-plan", []string{"bytes_per_op"}, 5},
	{"BENCH_pr9.json", "BenchmarkDeltaSimulation/synth-50k", []string{"ns_per_op"}, 1.5},
}

// benchPresence is a benchmark a trajectory file must record, with the
// custom metrics that must be recorded (> 0) on it.
type benchPresence struct {
	file, bench string
	metrics     []string
}

// Custom metrics of the locality sweep.
const (
	makespanMetric = "best-makespan-us"
	suffixMetric   = "suffix-tasks/proposal"
)

// benchPresences are the tracked sets: the >=50k-task scale cases, the
// ProposalBatch sweep (the evidence that option was deleted on) and
// the locality sweep (the evidence the late-biased and stratified
// policies were deleted on; measured, which met the bar below, was
// deleted later on a time-to-quality re-run, docs/EXPERIMENTS.md).
// Both sweeps' benchmarks are gone; their files stay as the historical
// record.
var benchPresences = func() []benchPresence {
	rows := []benchPresence{
		{file: "BENCH_pr8.json", bench: "BenchmarkDeltaSimulation/synth-50k"},
		{file: "BENCH_pr8.json", bench: "BenchmarkProposalThroughputSynth50k"},
	}
	for _, model := range []string{"synth-2k", "synth-50k"} {
		for _, batch := range []string{"1", "4", "8", "16"} {
			rows = append(rows, benchPresence{file: "BENCH_pr9.json", bench: "BenchmarkMCMCProposalBatch/" + model + "/batch=" + batch})
		}
	}
	for _, model := range []string{"synth-50k", "synth-100k"} {
		for _, locality := range []string{"uniform", "late-biased", "measured"} {
			rows = append(rows, benchPresence{"BENCH_pr10.json", "BenchmarkMCMCLocality/" + model + "/locality=" + locality,
				[]string{makespanMetric, suffixMetric}})
		}
	}
	return rows
}()

// benchField reads one lower-is-better field of an entry.
func benchField(e benchjson.Entry, field string) float64 {
	switch field {
	case "ns_per_op":
		return e.NsPerOp
	case "bytes_per_op":
		return e.BytesPerOp
	case "allocs_per_op":
		return e.AllocsPerOp
	}
	panic("unknown bench field " + field)
}

// benchOrderings are the claims that compare benchmarks within one
// file rather than against its baseline.
var benchOrderings = []struct {
	file, name string
	check      func(t *testing.T, f *benchjson.File)
}{
	{"BENCH_pr9.json", "batch=1 wins", func(t *testing.T, f *benchjson.File) {
		for _, model := range []string{"synth-2k", "synth-50k"} {
			prefix := "BenchmarkMCMCProposalBatch/" + model + "/batch="
			winner := benchLookup(t, f.Benchmarks, "benchmarks", prefix+"1")
			for _, batch := range []string{"4", "8", "16"} {
				e := benchLookup(t, f.Benchmarks, "benchmarks", prefix+batch)
				if e.NsPerOp < winner.NsPerOp {
					t.Errorf("%s%s (%v ns/op) beats batch=1 (%v ns/op)", prefix, batch, e.NsPerOp, winner.NsPerOp)
				}
			}
		}
	}},
	// The locality bar: on synth-50k some non-uniform policy is either
	// >=1.3x better in best makespan at the same iteration budget, or
	// within 5% of uniform's best makespan at >=1.3x fewer evaluated
	// suffix tasks per proposal. measured met it here and was deleted
	// anyway: on the time-to-quality re-run the uniform walk reached a
	// given makespan sooner and more often (docs/EXPERIMENTS.md, "The
	// locality sweep").
	{"BENCH_pr10.json", "locality bar", func(t *testing.T, f *benchjson.File) {
		entry := func(locality string) map[string]float64 {
			return benchLookup(t, f.Benchmarks, "benchmarks", "BenchmarkMCMCLocality/synth-50k/locality="+locality).Metrics
		}
		uniform := entry("uniform")
		for _, locality := range []string{"late-biased", "measured"} {
			e := entry(locality)
			fasterToQuality := uniform[makespanMetric] >= 1.3*e[makespanMetric]
			equalQuality := e[makespanMetric] <= 1.05*uniform[makespanMetric]
			cheaperSuffix := uniform[suffixMetric] >= 1.3*e[suffixMetric]
			if fasterToQuality || (equalQuality && cheaperSuffix) {
				return
			}
		}
		t.Fatalf("no non-uniform policy meets the bar on synth-50k (uniform: makespan %v, suffix %v)",
			uniform[makespanMetric], uniform[suffixMetric])
	}},
}

// benchLookup returns bench from set (the file's baseline or
// benchmarks, named by where), failing the test when it is missing.
func benchLookup(t *testing.T, set map[string]benchjson.Entry, where, bench string) benchjson.Entry {
	t.Helper()
	e, ok := set[bench]
	if !ok {
		t.Fatalf("%s missing from %s", bench, where)
	}
	return e
}

// checkBenchFloors is the one floor check over the committed
// trajectory files, in their own numbers (not re-measured in CI): it
// runs every benchFloors, benchPresences and benchOrderings row of
// file as a subtest.
func checkBenchFloors(t *testing.T, file string) {
	f, err := benchjson.Load(file)
	if err != nil {
		t.Fatal(err)
	}
	rows := 0
	for _, row := range benchFloors {
		if row.file != file {
			continue
		}
		rows++
		t.Run(row.bench, func(t *testing.T) {
			base := benchLookup(t, f.Baseline, "baseline", row.bench)
			cur := benchLookup(t, f.Benchmarks, "benchmarks", row.bench)
			for _, field := range row.fields {
				b, c := benchField(base, field), benchField(cur, field)
				if b <= 0 || c <= 0 {
					t.Fatalf("%s: %s not recorded (baseline %v, current %v)", row.bench, field, b, c)
				}
				if c*row.factor <= b && c < b {
					return
				}
			}
			t.Fatalf("%s: current %+v does not beat baseline %+v by %gx in any of %v", row.bench, cur, base, row.factor, row.fields)
		})
	}
	for _, row := range benchPresences {
		if row.file != file {
			continue
		}
		rows++
		t.Run(row.bench, func(t *testing.T) {
			e := benchLookup(t, f.Benchmarks, "benchmarks", row.bench)
			for _, m := range row.metrics {
				if e.Metrics[m] <= 0 {
					t.Errorf("%s: metric %s not recorded", row.bench, m)
				}
			}
		})
	}
	for _, row := range benchOrderings {
		if row.file != file {
			continue
		}
		rows++
		t.Run(row.name, func(t *testing.T) { row.check(t, f) })
	}
	if rows == 0 {
		t.Fatalf("no floor rows for %s", file)
	}
}

// Each trajectory file that makes a claim has one entry point into the
// floor check.

// TestBenchPR6DeltaSimImproves: the CSR hot-path flattening.
func TestBenchPR6DeltaSimImproves(t *testing.T) { checkBenchFloors(t, "BENCH_pr6.json") }

// TestBenchPR8ChainSetupImproves: copy-on-write plans and the >=50k-task
// scale cases.
func TestBenchPR8ChainSetupImproves(t *testing.T) { checkBenchFloors(t, "BENCH_pr8.json") }

// TestBenchPR9SparseTimingImproves: sparse timing state and the
// ProposalBatch sweep.
func TestBenchPR9SparseTimingImproves(t *testing.T) { checkBenchFloors(t, "BENCH_pr9.json") }

// TestBenchPR10LocalityImproves: the locality sweep and its bar.
func TestBenchPR10LocalityImproves(t *testing.T) { checkBenchFloors(t, "BENCH_pr10.json") }
