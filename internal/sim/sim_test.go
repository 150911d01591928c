package sim

import (
	"math/rand"
	"testing"
	"time"

	"flexflow/internal/config"
	"flexflow/internal/device"
	"flexflow/internal/graph"
	"flexflow/internal/perfmodel"
	"flexflow/internal/taskgraph"
)

// figure5 hand-builds the task graph of Figure 5b: a 3-layer RNN
// (embedding o1,o2 on GPU0 with exe 2; recurrent o3,o4 on GPU1 with
// exe 1; linear o5,o6 on GPU2 with exe 3), batch split 2 ways for the
// embedding and recurrent layers, with unit-time transfers between
// adjacent GPUs.
func figure5(t *testing.T) (*taskgraph.TaskGraph, map[string]*taskgraph.Task) {
	t.Helper()
	topo := device.NewTopology("fig5")
	g0 := topo.AddDevice(device.Device{Kind: device.GPU, Name: "GPU0"})
	g1 := topo.AddDevice(device.Device{Kind: device.GPU, Name: "GPU1"})
	g2 := topo.AddDevice(device.Device{Kind: device.GPU, Name: "GPU2"})
	l01 := topo.AddLink(device.PCIe, g0, g1, 1, 0)
	l12 := topo.AddLink(device.PCIe, g1, g2, 1, 0)

	u := time.Second
	mk := func(dev int, exe time.Duration) *taskgraph.Task {
		return &taskgraph.Task{Kind: taskgraph.Compute, Device: dev, Link: -1, Exe: exe}
	}
	comm := func(link int, exe time.Duration) *taskgraph.Task {
		return &taskgraph.Task{Kind: taskgraph.Comm, Device: -1, Link: link, Exe: exe}
	}
	tasks := map[string]*taskgraph.Task{
		"t1:1": mk(g0, 2*u), "t1:2": mk(g0, 2*u),
		"t2:1": mk(g0, 2*u), "t2:2": mk(g0, 2*u),
		"t3:1": mk(g1, 1*u), "t3:2": mk(g1, 1*u),
		"t4:1": mk(g1, 1*u), "t4:2": mk(g1, 1*u),
		"t5:1": mk(g2, 3*u), "t6:1": mk(g2, 3*u),
		"c1:1": comm(l01, u), "c1:2": comm(l01, u),
		"c2:1": comm(l01, u), "c2:2": comm(l01, u),
		"c3:1": comm(l12, u), "c3:2": comm(l12, u),
		"c4:1": comm(l12, u), "c4:2": comm(l12, u),
	}
	// Creation order matters for deterministic tie-breaking: mirror the
	// paper's timeline by creating embedding tasks, then transfers, then
	// recurrent, then the rest.
	order := []string{
		"t1:1", "t1:2", "t2:1", "t2:2",
		"c1:1", "c1:2", "c2:1", "c2:2",
		"t3:1", "t3:2", "t4:1", "t4:2",
		"c3:1", "c3:2", "c4:1", "c4:2",
		"t5:1", "t6:1",
	}
	list := make([]*taskgraph.Task, len(order))
	for i, n := range order {
		list[i] = tasks[n]
	}
	dep := func(a, b string) { taskgraph.Connect(tasks[a], tasks[b]) }
	// Embedding -> transfer -> recurrent (per batch shard).
	dep("t1:1", "c1:1")
	dep("c1:1", "t3:1")
	dep("t1:2", "c1:2")
	dep("c1:2", "t3:2")
	dep("t2:1", "c2:1")
	dep("c2:1", "t4:1")
	dep("t2:2", "c2:2")
	dep("c2:2", "t4:2")
	// Recurrent chain o3 -> o4 per shard.
	dep("t3:1", "t4:1")
	dep("t3:2", "t4:2")
	// Recurrent -> transfer -> linear (linear is unpartitioned).
	dep("t3:1", "c3:1")
	dep("t3:2", "c3:2")
	dep("c3:1", "t5:1")
	dep("c3:2", "t5:1")
	dep("t4:1", "c4:1")
	dep("t4:2", "c4:2")
	dep("c4:1", "t6:1")
	dep("c4:2", "t6:1")
	return taskgraph.Manual(topo, list), tasks
}

// TestFigure5FullSimulation checks the exact ready/start times printed
// in Figure 5c of the paper.
func TestFigure5FullSimulation(t *testing.T) {
	tg, tasks := figure5(t)
	st := NewState(tg)
	makespan := st.Simulate()

	u := time.Second
	want := map[string][2]time.Duration{
		"t1:1": {0, 0}, "t1:2": {0, 2 * u}, "t2:1": {0, 4 * u}, "t2:2": {0, 6 * u},
		"c1:1": {2 * u, 2 * u}, "c1:2": {4 * u, 4 * u}, "c2:1": {6 * u, 6 * u}, "c2:2": {8 * u, 8 * u},
		"t3:1": {3 * u, 3 * u}, "t3:2": {5 * u, 5 * u}, "t4:1": {7 * u, 7 * u}, "t4:2": {9 * u, 9 * u},
		"c3:1": {4 * u, 4 * u}, "c3:2": {6 * u, 6 * u}, "c4:1": {8 * u, 8 * u}, "c4:2": {10 * u, 10 * u},
		"t5:1": {7 * u, 7 * u}, "t6:1": {11 * u, 11 * u},
	}
	for name, rs := range want {
		ready, start, _ := st.Times(tasks[name])
		if ready != rs[0] || start != rs[1] {
			t.Errorf("%s: ready=%v start=%v, want ready=%v start=%v",
				name, ready, start, rs[0], rs[1])
		}
	}
	if makespan != 14*u {
		t.Fatalf("makespan = %v, want 14s", makespan)
	}
}

func TestFigure5Bounds(t *testing.T) {
	tg, _ := figure5(t)
	st := NewState(tg)
	makespan := st.Simulate()
	if lb := CriticalPathLowerBound(tg); makespan < lb {
		t.Fatalf("makespan %v below critical path %v", makespan, lb)
	}
	if ub := SerialUpperBound(tg); makespan > ub {
		t.Fatalf("makespan %v above serial bound %v", makespan, ub)
	}
}

func buildStrategySim(t *testing.T, g *graph.Graph, topo *device.Topology, s *config.Strategy) (*taskgraph.TaskGraph, *State) {
	t.Helper()
	tg := taskgraph.Build(g, topo, s, perfmodel.NewAnalyticModel(), taskgraph.Options{})
	return tg, NewState(tg)
}

func smallCNN() *graph.Graph {
	g := graph.New("cnn")
	x := g.Input4D("x", 8, 3, 16, 16)
	c1 := g.Conv2D("c1", x, 8, 3, 3, 1, 1, 1, 1)
	p1 := g.Pool2D("p1", c1, 2, 2, 2, 2, 0, 0)
	f := g.Flatten("f", p1)
	g.Dense("fc", f, 10)
	return g
}

func TestSimulateDeterministic(t *testing.T) {
	g := smallCNN()
	topo := device.NewSingleNode(4, "P100")
	_, st := buildStrategySim(t, g, topo, config.DataParallel(g, topo))
	a := st.Simulate()
	b := st.Simulate()
	if a != b {
		t.Fatalf("simulation not deterministic: %v vs %v", a, b)
	}
	if a <= 0 {
		t.Fatalf("makespan = %v", a)
	}
}

func TestSimulateRespectesBounds(t *testing.T) {
	g := smallCNN()
	topo := device.NewSingleNode(4, "P100")
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 10; trial++ {
		s := config.Random(g, topo, rng)
		tg, st := buildStrategySim(t, g, topo, s)
		makespan := st.Simulate()
		if lb := CriticalPathLowerBound(tg); makespan < lb {
			t.Fatalf("trial %d: makespan %v < critical path %v", trial, makespan, lb)
		}
		if ub := SerialUpperBound(tg); makespan > ub {
			t.Fatalf("trial %d: makespan %v > serial bound %v", trial, makespan, ub)
		}
	}
}

func TestDataParallelFasterThanSingleDevice(t *testing.T) {
	// Needs a compute-heavy model so per-kernel launch overhead does not
	// dominate: batch 64 over 64 channels at 32x32.
	g := graph.New("fat-cnn")
	x := g.Input4D("x", 64, 32, 32, 32)
	c1 := g.Conv2D("c1", x, 64, 3, 3, 1, 1, 1, 1)
	c2 := g.Conv2D("c2", c1, 64, 3, 3, 1, 1, 1, 1)
	p := g.Pool2D("p", c2, 2, 2, 2, 2, 0, 0)
	f := g.Flatten("f", p)
	g.Dense("fc", f, 10)
	topo := device.NewSingleNode(4, "P100")
	// Single device: everything on GPU 0.
	single := config.NewStrategy(g)
	for _, op := range g.ComputeOps() {
		single.Set(op.ID, config.OnDevice(op, 0))
	}
	_, st1 := buildStrategySim(t, g, topo, single)
	t1 := st1.Simulate()
	_, st4 := buildStrategySim(t, g, topo, config.DataParallel(g, topo))
	t4 := st4.Simulate()
	if t4 >= t1 {
		t.Fatalf("data parallelism (%v) should beat single device (%v) on a compute-heavy CNN", t4, t1)
	}
}

// TestDeltaMatchesFull is the core differential property (Section 5.3:
// "The full and delta simulation algorithms always produce the same
// timeline for a given task graph"): after any sequence of random
// configuration changes, the delta-simulated makespan must equal a full
// re-simulation of the same task graph. (A freshly *rebuilt* graph may
// differ: task IDs break ready-time ties, and both orders are valid
// FIFO schedules.)
func TestDeltaMatchesFull(t *testing.T) {
	g := smallCNN()
	topo := device.NewSingleNode(4, "P100")
	rng := rand.New(rand.NewSource(11))
	s := config.DataParallel(g, topo)
	tg, st := buildStrategySim(t, g, topo, s)
	st.Simulate()

	ops := g.ComputeOps()
	for step := 0; step < 60; step++ {
		op := ops[rng.Intn(len(ops))]
		newCfg := config.RandomConfig(op, topo, rng)
		cs := tg.ReplaceConfig(op.ID, newCfg)
		got := st.ApplyDelta(cs)

		// Reference: full simulation of the same task graph.
		want := NewState(tg).Simulate()
		if got != want {
			t.Fatalf("step %d (op %s -> %v): delta makespan %v != full %v",
				step, op.Name, newCfg, got, want)
		}
	}
	if st.Stats.Fallbacks != 0 {
		t.Fatalf("delta fell back to full simulation %d times", st.Stats.Fallbacks)
	}
}

// Same differential test on an RNN-shaped graph, whose recurrent chains
// and stacked layers produce long dependency chains.
func TestDeltaMatchesFullRNN(t *testing.T) {
	g := graph.New("rnn")
	ids := g.InputSeq("tok", 8, 4)
	emb := g.Embedding("emb", ids, 64, 16)
	var prev *graph.Op
	steps := make([]*graph.Op, 4)
	for s := 0; s < 4; s++ {
		prev = g.LSTMStep("l0", emb, prev, s, 32)
		steps[s] = prev
	}
	stack := g.StackSteps("stack", steps...)
	attn := g.AttentionStep("attn", steps[3], stack)
	g.SoftmaxClassifier("sm", attn, 64)

	topo := device.NewSingleNode(2, "P100")
	rng := rand.New(rand.NewSource(5))
	s := config.DataParallel(g, topo)
	tg, st := buildStrategySim(t, g, topo, s)
	st.Simulate()

	ops := g.ComputeOps()
	for step := 0; step < 40; step++ {
		op := ops[rng.Intn(len(ops))]
		cs := tg.ReplaceConfig(op.ID, config.RandomConfig(op, topo, rng))
		got := st.ApplyDelta(cs)
		want := NewState(tg).Simulate()
		if got != want {
			t.Fatalf("step %d (op %s): delta %v != full %v", step, op.Name, got, want)
		}
	}
}

// TestDeltaTimelineIdentical compares not just the makespan but every
// task's (ready, start, end) against the reference full simulation.
func TestDeltaTimelineIdentical(t *testing.T) {
	g := smallCNN()
	topo := device.NewSingleNode(4, "P100")
	rng := rand.New(rand.NewSource(17))
	tg, st := buildStrategySim(t, g, topo, config.DataParallel(g, topo))
	st.Simulate()

	ops := g.ComputeOps()
	for step := 0; step < 10; step++ {
		op := ops[rng.Intn(len(ops))]
		cs := tg.ReplaceConfig(op.ID, config.RandomConfig(op, topo, rng))
		st.ApplyDelta(cs)
	}
	// Snapshot delta-produced times.
	type times struct{ r, s, e time.Duration }
	snap := map[string]times{}
	for _, task := range tg.Tasks {
		if tg.Live(task) {
			r, s, e := st.Times(task)
			snap[task.String()] = times{r, s, e}
		}
	}
	// Full re-simulation of the same graph must reproduce them.
	st.Simulate()
	for _, task := range tg.Tasks {
		if !tg.Live(task) {
			continue
		}
		want := snap[task.String()]
		r, s, e := st.Times(task)
		if r != want.r || s != want.s || e != want.e {
			t.Fatalf("task %v: delta times (%v,%v,%v) != full times (%v,%v,%v)",
				task, want.r, want.s, want.e, r, s, e)
		}
	}
}

func TestDeltaFasterThanFull(t *testing.T) {
	// Delta re-simulation evaluates only tasks scheduled at or after the
	// earliest change point. Mutating a late op leaves the forward
	// prefix untouched, so delta must evaluate strictly fewer tasks than
	// a full re-simulation; in MCMC runs over large graphs this is where
	// the Table 4 speedup comes from.
	g := graph.New("deep")
	x := g.Input4D("x", 16, 8, 32, 32)
	cur := g.Conv2D("conv0", x, 16, 3, 3, 1, 1, 1, 1)
	for i := 1; i < 12; i++ {
		cur = g.Conv2D("conv", cur, 16, 3, 3, 1, 1, 1, 1)
	}
	topo := device.NewSingleNode(4, "P100")
	tg, st := buildStrategySim(t, g, topo, config.DataParallel(g, topo))
	st.Simulate()
	fullPops := st.Stats.Pops

	ops := g.ComputeOps()
	op := ops[len(ops)-1]
	st.Stats.Pops = 0
	cs := tg.ReplaceConfig(op.ID, config.OnDevice(op, 1))
	st.ApplyDelta(cs)
	deltaPops := st.Stats.Pops
	if deltaPops >= fullPops {
		t.Fatalf("delta pops (%d) should be fewer than full pops (%d)", deltaPops, fullPops)
	}
	// And the result still matches a full re-simulation of the same graph.
	got := st.Makespan
	want := NewState(tg).Simulate()
	if got != want {
		t.Fatalf("delta makespan %v != full %v", got, want)
	}
}

func TestTimelineAccessor(t *testing.T) {
	g := smallCNN()
	topo := device.NewSingleNode(2, "P100")
	_, st := buildStrategySim(t, g, topo, config.DataParallel(g, topo))
	st.Simulate()
	total := 0
	for r := 0; r < topo.NumDevices()+len(topo.Links); r++ {
		order := st.Timeline(r)
		for i := 1; i < len(order); i++ {
			_, start, _ := st.Times(order[i])
			_, _, prevEnd := st.Times(order[i-1])
			if start < prevEnd {
				t.Fatalf("resource %d: task %v starts before predecessor %v ends", r, order[i], order[i-1])
			}
		}
		total += len(order)
	}
	if total == 0 {
		t.Fatal("no tasks scheduled on any resource")
	}
}

func TestNoOverlapOnDevices(t *testing.T) {
	g := smallCNN()
	topo := device.NewSingleNode(4, "P100")
	rng := rand.New(rand.NewSource(23))
	for trial := 0; trial < 5; trial++ {
		s := config.Random(g, topo, rng)
		_, st := buildStrategySim(t, g, topo, s)
		st.Simulate()
		for r := 0; r < topo.NumDevices()+len(topo.Links); r++ {
			order := st.Timeline(r)
			for i := 1; i < len(order); i++ {
				ready, start, _ := st.Times(order[i])
				_, _, prevEnd := st.Times(order[i-1])
				if start < prevEnd {
					t.Fatalf("overlap on resource %d", r)
				}
				if start < ready {
					t.Fatalf("task started before ready")
				}
			}
		}
	}
}

func TestDependencyOrderRespected(t *testing.T) {
	g := smallCNN()
	topo := device.NewSingleNode(4, "P100")
	tg, st := buildStrategySim(t, g, topo, config.Expert(g, topo))
	st.Simulate()
	for _, task := range tg.Tasks {
		if !tg.Live(task) {
			continue
		}
		_, start, _ := st.Times(task)
		for _, p := range tg.Preds(task) {
			_, _, pEnd := st.Times(p)
			if start < pEnd {
				t.Fatalf("task %v starts at %v before predecessor %v ends at %v",
					task, start, p, pEnd)
			}
		}
	}
}

func TestStatsAccounting(t *testing.T) {
	g := smallCNN()
	topo := device.NewSingleNode(2, "P100")
	tg, st := buildStrategySim(t, g, topo, config.DataParallel(g, topo))
	st.Simulate()
	if st.Stats.FullSims != 1 || st.Stats.DeltaSims != 0 {
		t.Fatalf("stats = %+v", st.Stats)
	}
	op := g.ComputeOps()[0]
	cs := tg.ReplaceConfig(op.ID, config.OnDevice(op, 0))
	st.ApplyDelta(cs)
	if st.Stats.DeltaSims != 1 {
		t.Fatalf("stats = %+v", st.Stats)
	}
	if st.Stats.Pops == 0 {
		t.Fatal("no pops recorded")
	}
}
