package sim

import (
	"fmt"
	"math/rand"
	"sort"
	"sync"
	"testing"
	"testing/quick"
	"time"

	"flexflow/internal/config"
	"flexflow/internal/device"
	"flexflow/internal/graph"
	"flexflow/internal/models"
	"flexflow/internal/perfmodel"
	"flexflow/internal/taskgraph"
)

// propRNN builds the RNN-with-attention graph the delta differential
// uses: recurrent chains plus stacked fan-in, the hardest dependency
// structure the builder produces.
func propRNN() *graph.Graph {
	g := graph.New("prop-rnn")
	ids := g.InputSeq("tok", 8, 3)
	emb := g.Embedding("emb", ids, 40, 12)
	var prev *graph.Op
	steps := make([]*graph.Op, 3)
	for s := 0; s < 3; s++ {
		prev = g.LSTMStep("l0", emb, prev, s, 16)
		steps[s] = prev
	}
	stack := g.StackSteps("stack", steps...)
	attn := g.AttentionStep("attn", steps[2], stack)
	g.SoftmaxClassifier("sm", attn, 40)
	return g
}

// Property: for random strategies on random machine sizes, the
// simulated makespan respects both scheduling bounds, and total busy
// time per resource never exceeds the makespan.
func TestSimulationBoundsProperty(t *testing.T) {
	g := smallCNN()
	f := func(seed int64, gpuRaw uint8) bool {
		gpus := int(gpuRaw%7) + 2
		topo := device.NewSingleNode(gpus, "P100")
		rng := rand.New(rand.NewSource(seed))
		s := config.Random(g, topo, rng)
		tg := taskgraph.Build(g, topo, s, perfmodel.NewAnalyticModel(), taskgraph.Options{})
		st := NewState(tg)
		makespan := st.Simulate()
		if makespan < CriticalPathLowerBound(tg) {
			t.Logf("below critical path")
			return false
		}
		if makespan > SerialUpperBound(tg) {
			t.Logf("above serial bound")
			return false
		}
		for r := 0; r < topo.NumDevices()+len(topo.Links); r++ {
			var busy time.Duration
			for i, task := range st.Timeline(r) {
				busy += task.Exe
				if i > 0 {
					_, start, _ := st.Times(task)
					_, _, prevEnd := st.Times(st.Timeline(r)[i-1])
					if start < prevEnd {
						t.Logf("overlap on resource %d", r)
						return false
					}
				}
			}
			if busy > makespan {
				t.Logf("resource %d busy %v > makespan %v", r, busy, makespan)
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// Property: delta simulation equals full re-simulation of the same task
// graph across random mutation sequences on an RNN-shaped graph with
// attention fan-in (the hardest dependency structure we build).
func TestDeltaEqualsFullProperty(t *testing.T) {
	f := func(seed int64) bool {
		g := propRNN()
		topo := device.NewSingleNode(3, "P100")
		rng := rand.New(rand.NewSource(seed))
		tg := taskgraph.Build(g, topo, config.DataParallel(g, topo), perfmodel.NewAnalyticModel(), taskgraph.Options{})
		st := NewState(tg)
		st.Simulate()
		ops := g.ComputeOps()
		for step := 0; step < 8; step++ {
			op := ops[rng.Intn(len(ops))]
			cs := tg.ReplaceConfig(op.ID, config.RandomConfig(op, topo, rng))
			got := st.ApplyDelta(cs)
			want := NewState(tg).Simulate()
			if got != want {
				t.Logf("seed %d step %d: delta %v != full %v", seed, step, got, want)
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

// checkedDelta applies one ChangeSet through ApplyDelta and checks the
// result two ways. The incremental timeline — makespan and every live
// task's (ready, start, end) — must be bit-identical to a full Simulate
// of the same graph. And the delta must not be over-conservative: the
// suffix it evaluated may not exceed impliedSuffix, the suffix the true
// change point implies.
func checkedDelta(t *testing.T, st *State, cs taskgraph.ChangeSet, what string) {
	t.Helper()
	tg := st.TG
	ref := NewState(tg)
	want := ref.Simulate()
	bound := impliedSuffix(st, cs, ref)
	before := st.Stats.SuffixTasks
	if got := st.ApplyDelta(cs); got != want {
		t.Fatalf("%s: delta makespan %v != full %v", what, got, want)
	}
	for _, task := range tg.Tasks {
		if !tg.Live(task) {
			continue
		}
		gr, gs, ge := st.Times(task)
		wr, ws, we := ref.Times(task)
		if gr != wr || gs != ws || ge != we {
			t.Fatalf("%s: task %d times (%v,%v,%v) != full (%v,%v,%v)",
				what, task.ID, gr, gs, ge, wr, ws, we)
		}
	}
	if n := st.Stats.SuffixTasks - before; n > bound {
		t.Fatalf("%s: ApplyDelta evaluated %d suffix tasks; the change point implies at most %d (T0 bound over-conservative)",
			what, n, bound)
	}
}

// impliedSuffix is the over-conservatism guard's yardstick: the suffix
// size ApplyDelta's truncation would evaluate at the true change point.
// That point is the earliest of the removed tasks' old starts, the added
// tasks' new ready times, and the touched tasks' new ready times and old
// starts — no schedule difference can come earlier. Old values come
// from st, which must not have applied cs yet; new ones from full, a
// full simulation of the changed graph. The count mirrors ApplyDelta's:
// the live entries of every old timeline's truncated suffix plus the
// added tasks.
func impliedSuffix(st *State, cs taskgraph.ChangeSet, full *State) int64 {
	const inf = time.Duration(1<<63 - 1)
	t0 := inf
	early := func(d time.Duration) {
		if d < t0 {
			t0 = d
		}
	}
	for _, task := range cs.Removed {
		_, start, _ := st.Times(task)
		early(start)
	}
	for _, task := range cs.Added {
		ready, _, _ := full.Times(task)
		early(ready)
	}
	for _, task := range cs.Touched {
		ready, _, _ := full.Times(task)
		_, start, _ := st.Times(task)
		early(ready)
		early(start)
	}
	if t0 == inf {
		return 0
	}
	a := st.TG.Adj()
	n := int64(len(cs.Added))
	for _, order := range st.res {
		for i := len(order) - 1; i >= 0; i-- {
			e := order[i]
			if a.ID[e.slot] != e.id {
				continue // removed: part of the suffix, not counted
			}
			if ts := st.rd(e.slot); ts.end <= t0 && ts.start < t0 {
				break
			}
			n++
		}
	}
	return n
}

// scalePropertyRun drives the synthetic-model delta/full differential
// shared by the TestScaleProperty* suite: a random mutate/revert walk on
// one model, passing every ApplyDelta through checkedDelta (bit-identical
// to a full Simulate, and no more suffix than the true change point
// implies). Reverts go through the same ReplaceConfig+ApplyDelta path
// the MCMC rejection step uses.
func scalePropertyRun(t *testing.T, model string, seed int64, steps int) {
	t.Helper()
	spec, err := models.Get(model)
	if err != nil {
		t.Fatal(err)
	}
	g := spec.BuildScaled(1)
	topo := device.NewSingleNode(4, "P100")
	rng := rand.New(rand.NewSource(seed))
	tg := taskgraph.Build(g, topo, config.DataParallel(g, topo), perfmodel.NewAnalyticModel(), taskgraph.Options{})
	st := NewState(tg)
	st.Simulate()
	ops := g.ComputeOps()
	for step := 0; step < steps; step++ {
		op := ops[rng.Intn(len(ops))]
		old := tg.Strat.Config(op.ID).Clone()
		what := fmt.Sprintf("%s seed %d step %d", model, seed, step)
		checkedDelta(t, st, tg.ReplaceConfig(op.ID, config.RandomConfig(op, topo, rng)), what)
		if rng.Intn(2) == 0 {
			checkedDelta(t, st, tg.ReplaceConfig(op.ID, old), what+" revert")
		}
	}
	if st.Stats.Fallbacks != 0 {
		t.Fatalf("%s seed %d: %d fixpoint fallbacks (delta path not exercised)", model, seed, st.Stats.Fallbacks)
	}
}

// TestScalePropertySynth2k extends the delta/full property fuzz from the
// 2019 model zoo to the synthetic scale class: random mutate/revert
// sequences on the full-size synth-2k layered DAG, checked against a
// full simulation at every step. This is the per-PR scale gate (CI runs
// `-run TestScaleProperty -tags scale` under -race); the 50k-task
// variant lives behind the scale build tag.
func TestScalePropertySynth2k(t *testing.T) {
	for _, seed := range []int64{1, 2, 3} {
		scalePropertyRun(t, "synth-2k", seed, 10)
	}
}

// suffixHints estimates, per op ID and as a fraction of the current
// makespan, how much of the timeline a config change at that op would
// force ApplyDelta to re-evaluate: 1 - T0/makespan, where T0 is the
// earliest min(ready, start) over the live tasks ReplaceConfig would
// rebuild. Those are the op's own compute, update and sync tasks
// (Task.Op) plus the comm tasks of its adjacent edges: an edge's comm
// task is owned by the consumer and sits between compute tasks of both
// ends, so it counts for the op of every neighbour. ready usually binds:
// an op fed by an early edge truncates early no matter how late its
// tasks run. An op with no live tasks, or any op of an unsimulated
// state, reports 1.
func suffixHints(st *State) []float64 {
	const inf = time.Duration(1<<63 - 1)
	t0 := make([]time.Duration, st.TG.G.NumOps())
	for i := range t0 {
		t0[i] = inf
	}
	for _, t := range st.TG.Tasks {
		if !st.TG.Live(t) {
			continue
		}
		ready, start, _ := st.Times(t)
		if start < ready {
			ready = start
		}
		lower := func(op *graph.Op) {
			if op != nil && ready < t0[op.ID] {
				t0[op.ID] = ready
			}
		}
		lower(t.Op)
		if t.Kind == taskgraph.Comm {
			for _, n := range st.TG.Preds(t) {
				lower(n.Op)
			}
			for _, n := range st.TG.Succs(t) {
				lower(n.Op)
			}
		}
	}
	hints := make([]float64, len(t0))
	for id, t := range t0 {
		switch {
		case st.Makespan <= 0 || t == inf:
			hints[id] = 1
		case t >= st.Makespan:
			hints[id] = 0
		default:
			hints[id] = 1 - float64(t)/float64(st.Makespan)
		}
	}
	return hints
}

// scaleLocalityPropertyRun is the locality-weighted sibling of
// scalePropertyRun: instead of a uniform op draw it weights each op by
// its timeline position — weight (1-hint)² floored at a positive
// minimum (suffixHints), drawn through a local cumulative-sum sampler
// and refreshed after every mutation. That makes the walk cluster on
// late-starting ops: long runs of small-suffix truncations with
// occasional deep rebuilds on revert. The delta/full bit-for-bit
// contract — makespan and every live task's (ready, start, end) after
// every ApplyDelta — must hold on that distribution too, not just under
// uniform sampling.
func scaleLocalityPropertyRun(t *testing.T, model string, seed int64, steps int) {
	t.Helper()
	spec, err := models.Get(model)
	if err != nil {
		t.Fatal(err)
	}
	g := spec.BuildScaled(1)
	topo := device.NewSingleNode(4, "P100")
	rng := rand.New(rand.NewSource(seed))
	tg := taskgraph.Build(g, topo, config.DataParallel(g, topo), perfmodel.NewAnalyticModel(), taskgraph.Options{})
	st := NewState(tg)
	st.Simulate()
	ops := g.ComputeOps()

	// Position-weighted draw over suffixHints.
	cum := make([]float64, len(ops))
	draw := func() *graph.Op {
		hints := suffixHints(st)
		total := 0.0
		for i, op := range ops {
			h := hints[op.ID]
			w := (1 - h) * (1 - h)
			if w < 0.05 {
				w = 0.05
			}
			total += w
			cum[i] = total
		}
		x := rng.Float64() * total
		i := sort.SearchFloat64s(cum, x)
		for i < len(cum) && cum[i] == x {
			i++
		}
		if i >= len(cum) {
			i = len(cum) - 1
		}
		return ops[i]
	}

	suffixBefore := st.Stats.SuffixTasks
	for step := 0; step < steps; step++ {
		op := draw()
		old := tg.Strat.Config(op.ID).Clone()
		what := fmt.Sprintf("%s seed %d step %d", model, seed, step)
		checkedDelta(t, st, tg.ReplaceConfig(op.ID, config.RandomConfig(op, topo, rng)), what)
		if rng.Intn(2) == 0 {
			checkedDelta(t, st, tg.ReplaceConfig(op.ID, old), what+" revert")
		}
	}
	if st.Stats.Fallbacks != 0 {
		t.Fatalf("%s seed %d: %d fixpoint fallbacks (delta path not exercised)", model, seed, st.Stats.Fallbacks)
	}
	if st.Stats.SuffixTasks <= suffixBefore {
		t.Fatalf("%s seed %d: SuffixTasks did not accumulate (%d -> %d)", model, seed, suffixBefore, st.Stats.SuffixTasks)
	}
}

// TestScalePropertyLocalitySynth2k runs the locality-weighted walk on
// the synth-2k DAG — the always-on member of the pair; the 50k-task
// variant lives behind the scale build tag with the rest of the
// TestScaleProperty suite.
func TestScalePropertyLocalitySynth2k(t *testing.T) {
	for _, seed := range []int64{1, 2, 3} {
		scaleLocalityPropertyRun(t, "synth-2k", seed, 10)
	}
}

// TestSharedPlanConcurrentDeltaEqualsFull is the structure/state-split
// concurrency differential (run it under -race): one immutable Plan is
// shared by many goroutines, each owning a private Instance and a State
// cloned from the shared base timeline, each running an independent
// random mutation sequence. Every delta result must equal a full
// re-simulation of that goroutine's own graph, the base must stay
// bit-stable throughout, and read-only full simulations against the
// frozen base must agree with it from every goroutine.
func TestSharedPlanConcurrentDeltaEqualsFull(t *testing.T) {
	g := propRNN()
	topo := device.NewSingleNode(3, "P100")
	plan := taskgraph.Compile(g, topo, config.DataParallel(g, topo), perfmodel.NewAnalyticModel(), taskgraph.Options{})
	base := NewState(plan.Base())
	baseCost := base.Simulate()

	const workers = 8
	const steps = 12
	ops := g.ComputeOps()
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			// Read-only sharing: a fresh full simulation against the
			// frozen base graph, concurrent with every other worker.
			if got := NewState(plan.Base()).Simulate(); got != baseCost {
				t.Errorf("worker %d: base simulation %v != %v", w, got, baseCost)
				return
			}
			rng := rand.New(rand.NewSource(int64(1000 + w)))
			inst := plan.Instance()
			st := base.CloneFor(inst)
			if st.Makespan != baseCost {
				t.Errorf("worker %d: cloned state makespan %v != base %v", w, st.Makespan, baseCost)
				return
			}
			for step := 0; step < steps; step++ {
				op := ops[rng.Intn(len(ops))]
				cs := inst.ReplaceConfig(op.ID, config.RandomConfig(op, topo, rng))
				got := st.ApplyDelta(cs)
				// The reference full simulation reads inst but writes
				// only its own state — safe against st and every other
				// worker by construction.
				want := NewState(inst).Simulate()
				if got != want {
					t.Errorf("worker %d step %d (op %s): delta %v != full %v", w, step, op.Name, got, want)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	if got := NewState(plan.Base()).Simulate(); got != baseCost {
		t.Fatalf("base timeline drifted after concurrent use: %v != %v", got, baseCost)
	}
}

// Property: adding parallelism never increases the critical-path lower
// bound's violation — i.e. simulation remains internally consistent as
// strategies vary from serial to maximally parallel.
func TestMakespanMonotonicitySanity(t *testing.T) {
	g := smallCNN()
	topo := device.NewSingleNode(4, "P100")
	// Serial strategy: everything on one device.
	serial := config.NewStrategy(g)
	for _, op := range g.ComputeOps() {
		serial.Set(op.ID, config.OnDevice(op, 0))
	}
	tgSerial := taskgraph.Build(g, topo, serial, perfmodel.NewAnalyticModel(), taskgraph.Options{})
	serialMakespan := NewState(tgSerial).Simulate()
	// For the serial strategy (single resource, no comm), the makespan
	// must equal the serial bound exactly.
	if ub := SerialUpperBound(tgSerial); serialMakespan != ub {
		t.Fatalf("serial strategy makespan %v != serial bound %v", serialMakespan, ub)
	}
}
