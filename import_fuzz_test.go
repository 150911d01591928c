package flexflow

import (
	"bytes"
	"context"
	"math/rand"
	"strings"
	"testing"

	"flexflow/internal/config"
	"flexflow/internal/models"
)

// Native fuzz targets for the facade's import boundary. ImportGraph,
// ImportTopology and ImportStrategy parse untrusted bytes: flexflowd
// runs them on every inline graph, inline topology and initial
// strategy it decodes. None may panic, and an accepted input must
// round-trip: its export imports again to the same export and the same
// Fingerprint. An accepted graph of at most fuzzSearchOps ops must
// also be searchable: data parallelism on 2 GPUs simulates, and a few
// MCMC proposals and an OptCNN search run without a panic. Run one
// with a small -parallel, a memory cap and a short minimization (the
// zoo seeds are up to 100 KB), e.g.
//
//	(ulimit -v 4000000; go test -run '^$' -fuzz FuzzImportGraph -fuzztime 60s -fuzzminimizetime 10s -parallel 2 .)
//
// A crasher a fuzzer finds is kept in testdata/fuzz as a regression seed.

// fuzzScale is the zoo down-scale factor the seed graphs are built at.
const fuzzScale = 64

// fuzzSearchOps bounds the graphs FuzzImportGraph searches: every zoo
// seed but synth-2k fits at fuzzScale, and a simulation plus a few
// proposals on them takes milliseconds, not the fuzzer's time budget.
const fuzzSearchOps = 500

// fuzzRoundTrip asserts that first, an imported value, is a fixed point
// of export and import: its export imports to a value with the same
// export and the same fingerprint.
func fuzzRoundTrip[T any](t *testing.T, first T, export func(T) ([]byte, error), imp func([]byte) (T, error), fingerprint func(T) (string, error)) {
	t.Helper()
	out, err := export(first)
	if err != nil {
		t.Fatalf("an imported value does not export: %v", err)
	}
	second, err := imp(out)
	if err != nil {
		t.Fatalf("an export does not import: %v\n%s", err, out)
	}
	again, err := export(second)
	if err != nil || !bytes.Equal(out, again) {
		t.Fatalf("export changed across a round trip (%v):\n%s\nthen\n%s", err, out, again)
	}
	fp1, err1 := fingerprint(first)
	fp2, err2 := fingerprint(second)
	if err1 != nil || err2 != nil || fp1 != fp2 {
		t.Fatalf("fingerprint changed across a round trip: %s (%v) then %s (%v)", fp1, err1, fp2, err2)
	}
}

// fuzzLenet is the graph and topology the strategy and topology
// targets hold fixed.
func fuzzLenet(f *testing.F) (*Graph, *Topology) {
	g, err := ModelScaled("lenet", fuzzScale)
	if err != nil {
		f.Fatal(err)
	}
	return g, NewSingleNode(4, "P100")
}

// lenetZeroKernel is lenet's export with its first conv's kernel_h
// set to 0, a window the builders never emit.
func lenetZeroKernel(tb testing.TB) []byte {
	tb.Helper()
	g, err := ModelScaled("lenet", fuzzScale)
	if err != nil {
		tb.Fatal(err)
	}
	data, err := ExportGraph(g)
	if err != nil {
		tb.Fatal(err)
	}
	bad := bytes.Replace(data, []byte(`"kernel_h": 5,`), []byte(`"kernel_h": 0,`), 1)
	if bytes.Equal(bad, data) {
		tb.Fatal(`lenet's export has no "kernel_h": 5 to corrupt`)
	}
	return bad
}

// TestImportGraphRejectsZeroKernel pins the window check at import:
// without it, this graph imported and a search over it ran the
// simulator past its fixpoint budget into a panic.
func TestImportGraphRejectsZeroKernel(t *testing.T) {
	if _, err := ImportGraph(lenetZeroKernel(t)); err == nil || !strings.Contains(err.Error(), "kernel") {
		t.Fatalf("err = %v, want an error naming the kernel", err)
	}
}

func FuzzImportGraph(f *testing.F) {
	for _, name := range models.Names() {
		// Their op count does not scale down: megabyte exports stall the
		// fuzzer, and synth-2k seeds the same generator.
		if name == "synth-50k" || name == "synth-100k" {
			continue
		}
		g, err := ModelScaled(name, fuzzScale)
		if err != nil {
			f.Fatal(err)
		}
		data, err := ExportGraph(g)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(data)
	}
	for _, bad := range []string{
		`{"name":"g","ops":[]}`,
		`{"name":"g","ops":[{"name":"x","kind":"Warp"}]}`,
		`{"nAme":"0","ops":[{"nAme":"0","kind":"Softmax","out":[{"siZe":1,"kind":"parameter"}]}]}`,
		`{"name":"g","ops":[{"name":"x","kind":"Input","out":[{"name":"sample","size":2,"kind":"sample"}],"layer":-1}]}`,
	} {
		f.Add([]byte(bad))
	}
	f.Add(lenetZeroKernel(f))
	topo := NewSingleNode(2, "P100")
	fingerprint := func(g *Graph) (string, error) {
		return Fingerprint(Problem{Graph: g, Topology: topo}, "mcmc", OptimizeOptions{})
	}
	mcmc, err := GetOptimizer("mcmc")
	if err != nil {
		f.Fatal(err)
	}
	optcnn, err := GetOptimizer("optcnn")
	if err != nil {
		f.Fatal(err)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		g, err := ImportGraph(data)
		if err != nil {
			return
		}
		fuzzRoundTrip(t, g, ExportGraph, ImportGraph, fingerprint)
		if g.NumOps() > fuzzSearchOps {
			return
		}
		if cost, _ := Simulate(g, topo, DataParallel(g, topo)); cost < 0 {
			t.Fatalf("data parallelism simulates to %v", cost)
		}
		p := Problem{Graph: g, Topology: topo}
		if _, err := mcmc.Optimize(context.Background(), p, OptimizeOptions{MaxIters: 8, Workers: 1}); err != nil {
			t.Fatalf("a short search failed: %v", err)
		}
		if _, err := optcnn.Optimize(context.Background(), p, OptimizeOptions{MaxDegree: 2}); err != nil {
			t.Fatalf("optcnn failed: %v", err)
		}
	})
}

func FuzzImportTopology(f *testing.F) {
	for _, topo := range []*Topology{
		NewSingleNode(1, "P100"), NewSingleNode(4, "K80"),
		NewP100Cluster(2), NewK80Cluster(2),
	} {
		data, err := ExportTopology(topo)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(data)
	}
	for _, bad := range []string{
		`{}`,
		`{"name":"t","devices":[]}`,
		`{"name":"t","devices":[{"kind":"GPU","name":"a"},{"kind":"GPU","name":"b"}]}`,
		`{"name":"t","devices":[{"kind":"GPU","name":"a"}],"links":[{"class":"NVLink","a":0,"b":1,"bw_gbs":1}]}`,
	} {
		f.Add([]byte(bad))
	}
	g, _ := fuzzLenet(f)
	fingerprint := func(topo *Topology) (string, error) {
		return Fingerprint(Problem{Graph: g, Topology: topo}, "mcmc", OptimizeOptions{})
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		topo, err := ImportTopology(data)
		if err != nil {
			return
		}
		fuzzRoundTrip(t, topo, ExportTopology, ImportTopology, fingerprint)
	})
}

func FuzzImportStrategy(f *testing.F) {
	g, topo := fuzzLenet(f)
	strategies := []*Strategy{DataParallel(g, topo), ModelParallel(g, topo)}
	for seed := int64(1); seed <= 3; seed++ {
		strategies = append(strategies, config.Random(g, topo, rand.New(rand.NewSource(seed))))
	}
	for _, s := range strategies {
		data, err := ExportStrategy(g, s)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(data)
	}
	for _, bad := range []string{`{"name":"other"}`, `{"graph":"other"}`, `{"graph":"lenet","configs":[]}`} {
		f.Add([]byte(bad))
	}
	export := func(s *Strategy) ([]byte, error) { return ExportStrategy(g, s) }
	imp := func(data []byte) (*Strategy, error) { return ImportStrategy(data, g, topo) }
	fingerprint := func(s *Strategy) (string, error) {
		return Fingerprint(Problem{Graph: g, Topology: topo}, "mcmc", OptimizeOptions{Initial: s})
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		s, err := imp(data)
		if err != nil {
			return
		}
		fuzzRoundTrip(t, s, export, imp, fingerprint)
	})
}
