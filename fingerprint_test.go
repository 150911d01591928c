package flexflow

import (
	"testing"
	"time"

	"flexflow/internal/calib"
)

// fpGraph builds the small fixed graph the fingerprint tests key on.
func fpGraph() *Graph {
	g := NewGraph("fp-test")
	x := g.Input4D("images", 8, 3, 16, 16)
	c := g.Conv2D("conv1", x, 8, 3, 3, 1, 1, 1, 1)
	p := g.Pool2D("pool1", c, 2, 2, 2, 2, 0, 0)
	f := g.Flatten("flat", p)
	g.Dense("fc", f, 10)
	return g
}

// TestFingerprintStable pins the cache-key layout: the fingerprint of
// a fixed problem must be this exact digest, on every machine, forever
// — until the layout (or FingerprintVersion) changes deliberately. A
// failure here means every persisted cache key just got invalidated;
// update the constant only if that is the intent.
func TestFingerprintStable(t *testing.T) {
	// v3 layout: the opts line lost locality=<policy> (and the version
	// tag moved to 3), re-pinned deliberately when MCMC went back to
	// one proposal distribution.
	const want = "9e43423a219a4b77ced05689afc81f3ed911558f0576a54eef457c7bfc6a5cfa"
	got, err := Fingerprint(Problem{Graph: fpGraph(), Topology: NewSingleNode(4, "P100")}, "mcmc",
		OptimizeOptions{MaxIters: 100, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	if got != want {
		t.Fatalf("fingerprint drifted:\n got  %s\n want %s\nthe cache-key layout changed — if deliberate, bump FingerprintVersion and re-pin", got, want)
	}
}

// TestFingerprintDeterministic asserts two independently built but
// identical problems fingerprint identically — the property that makes
// the key content-addressed rather than object-addressed.
func TestFingerprintDeterministic(t *testing.T) {
	opts := OptimizeOptions{MaxIters: 50, Seed: 3, Workers: 1}
	a, err := Fingerprint(Problem{Graph: fpGraph(), Topology: NewSingleNode(2, "P100")}, "mcmc", opts)
	if err != nil {
		t.Fatal(err)
	}
	// A different Workers cap and an OnEvent callback must not change
	// the key: neither affects the search result.
	opts2 := opts
	opts2.Workers = 7
	opts2.OnEvent = func(ProgressEvent) {}
	b, err := Fingerprint(Problem{Graph: fpGraph(), Topology: NewSingleNode(2, "P100")}, "mcmc", opts2)
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Fatalf("identical problems fingerprint differently: %s vs %s", a, b)
	}
}

// TestFingerprintCollisions mutates every key component in turn and
// asserts the digest moves: graph structure, graph content (a kernel
// size), topology, algorithm, and each result-affecting option. This
// is the collision test that pins *what is in* the key.
func TestFingerprintCollisions(t *testing.T) {
	baseProblem := func() Problem {
		return Problem{Graph: fpGraph(), Topology: NewSingleNode(4, "P100")}
	}
	baseOpts := OptimizeOptions{MaxIters: 100, Seed: 7}
	base, err := Fingerprint(baseProblem(), "mcmc", baseOpts)
	if err != nil {
		t.Fatal(err)
	}
	seen := map[string]string{"base": base}
	check := func(label string, p Problem, algo string, opts OptimizeOptions) {
		t.Helper()
		got, err := Fingerprint(p, algo, opts)
		if err != nil {
			t.Fatalf("%s: %v", label, err)
		}
		for prev, fp := range seen {
			if fp == got {
				t.Errorf("%s collides with %s: %s", label, prev, got)
			}
		}
		seen[label] = got
	}

	biggerKernel := func() Problem {
		g := NewGraph("fp-test")
		x := g.Input4D("images", 8, 3, 16, 16)
		c := g.Conv2D("conv1", x, 8, 5, 5, 1, 1, 2, 2)
		p := g.Pool2D("pool1", c, 2, 2, 2, 2, 0, 0)
		f := g.Flatten("flat", p)
		g.Dense("fc", f, 10)
		return Problem{Graph: g, Topology: NewSingleNode(4, "P100")}
	}
	extraOp := func() Problem {
		g := fpGraph()
		g.Activation("relu", g.Op(g.NumOps()-1))
		return Problem{Graph: g, Topology: NewSingleNode(4, "P100")}
	}

	check("kernel size", biggerKernel(), "mcmc", baseOpts)
	check("extra op", extraOp(), "mcmc", baseOpts)
	check("gpu count", Problem{Graph: fpGraph(), Topology: NewSingleNode(2, "P100")}, "mcmc", baseOpts)
	check("gpu model", Problem{Graph: fpGraph(), Topology: NewSingleNode(4, "K80")}, "mcmc", baseOpts)
	check("algorithm", baseProblem(), "exhaustive", baseOpts)
	check("iters", baseProblem(), "mcmc", OptimizeOptions{MaxIters: 101, Seed: 7})
	check("seed", baseProblem(), "mcmc", OptimizeOptions{MaxIters: 100, Seed: 8})
	check("beta", baseProblem(), "mcmc", OptimizeOptions{MaxIters: 100, Seed: 7, Beta: 20})
	check("expert", baseProblem(), "mcmc", OptimizeOptions{MaxIters: 100, Seed: 7, IncludeExpert: true})
	check("fullsim", baseProblem(), "mcmc", OptimizeOptions{MaxIters: 100, Seed: 7, FullSim: true})
	check("budget", baseProblem(), "mcmc", OptimizeOptions{MaxIters: 100, Seed: 7, Budget: time.Second})
	check("budget length", baseProblem(), "mcmc", OptimizeOptions{MaxIters: 100, Seed: 7, Budget: 2 * time.Second})
	check("maxdegree", baseProblem(), "optcnn", OptimizeOptions{MaxDegree: 2})
	check("maxcandidates", baseProblem(), "exhaustive", OptimizeOptions{MaxCandidatesPerOp: 3})
	g := fpGraph()
	topo := NewSingleNode(4, "P100")
	check("initial", Problem{Graph: g, Topology: topo}, "mcmc",
		OptimizeOptions{MaxIters: 100, Seed: 7, Initial: DataParallel(g, topo)})
}

// TestFingerprintCostProfile pins the budget-pricing leg: for budgeted
// requests the installed cost profile participates in the key (a
// different profile means a different proposal count, hence a
// different result) and unbudgeted requests ignore it.
func TestFingerprintCostProfile(t *testing.T) {
	p := Problem{Graph: fpGraph(), Topology: NewSingleNode(4, "P100")}
	budgeted := OptimizeOptions{MaxIters: 100, Seed: 7, Budget: time.Second}

	defBudgeted, err := Fingerprint(p, "mcmc", budgeted)
	if err != nil {
		t.Fatal(err)
	}

	fitted := calib.Default()
	fitted.Source = "test-fitted"
	fitted.Modes[calib.ModeDelta] = calib.Params{BaseNS: 1000, PerTaskNS: 10}
	prev := SetCostProfile(fitted)
	defer SetCostProfile(prev)

	fittedBudgeted, err := Fingerprint(p, "mcmc", budgeted)
	if err != nil {
		t.Fatal(err)
	}
	if fittedBudgeted == defBudgeted {
		t.Fatal("installed profile does not participate in a budgeted key")
	}

	unbudgeted := OptimizeOptions{MaxIters: 100, Seed: 7}
	a, err := Fingerprint(p, "mcmc", unbudgeted)
	if err != nil {
		t.Fatal(err)
	}
	SetCostProfile(nil)
	b, err := Fingerprint(p, "mcmc", unbudgeted)
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Fatal("cost profile leaked into an unbudgeted key")
	}
	// With no profile installed a budgeted key hashes the built-in
	// defaults, as it did before the fitted one went in.
	if again, err := Fingerprint(p, "mcmc", budgeted); err != nil || again != defBudgeted {
		t.Fatalf("uninstalling the profile did not restore the budgeted key (%v)", err)
	}
}
