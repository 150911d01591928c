package search

import (
	"math/rand"
	"testing"

	"flexflow/internal/config"
	"flexflow/internal/device"
	"flexflow/internal/perfmodel"
	"flexflow/internal/sim"
	"flexflow/internal/taskgraph"
)

// TestEvaluateBatchMatchesIndependent checks that every proposal in a
// batch is priced exactly as a from-scratch full simulation of the
// graph the batch's instance holds at that point: the base strategy
// with only that op changed, replayed on a mirror instance so task IDs
// (the ready-time tie-breaker) match. The proposal list interleaves
// same-op chains (no revert in between) and op changes (revert
// inserted), including a return to an op already visited.
func TestEvaluateBatchMatchesIndependent(t *testing.T) {
	g := tinyMLP()
	topo := device.NewSingleNode(4, "P100")
	est := perfmodel.NewAnalyticModel()
	strat := config.DataParallel(g, topo)
	plan := taskgraph.Compile(g, topo, strat.Clone(), est, taskgraph.Options{})
	base := sim.NewState(plan.Base())
	base.Simulate()

	rng := rand.New(rand.NewSource(7))
	ops := g.ComputeOps()
	var props []Proposal
	// Two candidates per op (same-op chaining), then a second pass over
	// the ops in reverse (op changes, including back to an op already
	// visited).
	for _, op := range ops {
		for k := 0; k < 2; k++ {
			props = append(props, Proposal{OpID: op.ID, Cfg: config.RandomConfig(op, topo, rng)})
		}
	}
	for i := len(ops) - 1; i >= 0; i-- {
		props = append(props, Proposal{OpID: ops[i].ID, Cfg: config.RandomConfig(ops[i], topo, rng)})
	}

	costs := EvaluateBatch(plan, base, props)
	if len(costs) != len(props) {
		t.Fatalf("got %d costs for %d proposals", len(costs), len(props))
	}
	// Mirror the batch's exact ReplaceConfig sequence (including the
	// reverts at op changes) on a second instance, full-simulating from
	// scratch after every proposal: instances replaying one sequence
	// assign identical task IDs, so delta and full must agree exactly.
	mirror := plan.Instance()
	curOp := -1
	for i, p := range props {
		if curOp >= 0 && p.OpID != curOp {
			mirror.ReplaceConfig(curOp, plan.Base().Strat.Config(curOp).Clone())
		}
		curOp = p.OpID
		mirror.ReplaceConfig(p.OpID, p.Cfg)
		if want := sim.NewState(mirror).Simulate(); costs[i] != want {
			t.Fatalf("proposal %d (op %d): batch %v != full replay %v", i, p.OpID, costs[i], want)
		}
	}

	// The shared inputs must be untouched: the base strategy still
	// prices to the base makespan.
	again := EvaluateBatch(plan, base, nil)
	if len(again) != 0 {
		t.Fatalf("empty batch returned %d costs", len(again))
	}
	if got := sim.NewState(plan.Base()).Simulate(); got != base.Makespan {
		t.Fatalf("base graph perturbed: %v != %v", got, base.Makespan)
	}
}

// TestDeltaPriceRevertMatchesIndependent is the steady-state variant
// of the batch differential, in the exact shape of one MCMC step: the
// instance is first walked away from the plan base (the position a
// chain is in mid-search), then every proposal is priced with one
// ApplyDelta and reverted with another — a rejected proposal's path.
// Every priced cost and every reverted timeline must equal a
// from-scratch full simulation on a mirror instance replaying the same
// ReplaceConfig sequence.
func TestDeltaPriceRevertMatchesIndependent(t *testing.T) {
	g := tinyMLP()
	topo := device.NewSingleNode(4, "P100")
	est := perfmodel.NewAnalyticModel()
	plan := taskgraph.Compile(g, topo, config.DataParallel(g, topo), est, taskgraph.Options{})
	base := sim.NewState(plan.Base())
	base.Simulate()

	rng := rand.New(rand.NewSource(17))
	ops := g.ComputeOps()
	tg := plan.Instance()
	st := base.CloneFor(tg)
	mirror := plan.Instance()
	cur := plan.Base().Strat.Clone()
	// Walk both instances through the same five accepted moves so their
	// task IDs (the ready-time tie-breaker) stay aligned.
	for i := 0; i < 5; i++ {
		op := ops[rng.Intn(len(ops))]
		cfg := config.RandomConfig(op, topo, rng)
		st.ApplyDelta(tg.ReplaceConfig(op.ID, cfg))
		mirror.ReplaceConfig(op.ID, cfg)
		cur.Set(op.ID, cfg)
	}

	for k := 0; k < 3*len(ops); k++ {
		op := ops[k%len(ops)]
		cfg := config.RandomConfig(op, topo, rng)
		got := st.ApplyDelta(tg.ReplaceConfig(op.ID, cfg))
		mirror.ReplaceConfig(op.ID, cfg)
		if want := sim.NewState(mirror).Simulate(); got != want {
			t.Fatalf("proposal %d (op %d): delta %v != full replay %v", k, op.ID, got, want)
		}
		st.ApplyDelta(tg.ReplaceConfig(op.ID, cur.Config(op.ID).Clone()))
		mirror.ReplaceConfig(op.ID, cur.Config(op.ID).Clone())
		if want := sim.NewState(mirror).Simulate(); st.Makespan != want {
			t.Fatalf("revert %d (op %d): delta %v != full replay %v", k, op.ID, st.Makespan, want)
		}
	}
}
