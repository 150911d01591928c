package taskgraph

import (
	"testing"

	"flexflow/internal/config"
	"flexflow/internal/device"
	"flexflow/internal/graph"
	"flexflow/internal/perfmodel"
	"flexflow/internal/tensor"
)

func mlp() *graph.Graph {
	g := graph.New("mlp")
	x := g.InputTensor("x", tensor.MakeShape(
		tensor.D(graph.DimSample, 16, tensor.Sample),
		tensor.D(graph.DimChannel, 64, tensor.Attribute)))
	h := g.Dense("fc1", x, 128)
	g.Dense("fc2", h, 32)
	return g
}

func build(t *testing.T, g *graph.Graph, topo *device.Topology, s *config.Strategy, opts Options) *TaskGraph {
	t.Helper()
	return Build(g, topo, s, perfmodel.NewAnalyticModel(), opts)
}

func TestTaskKindString(t *testing.T) {
	if Compute.String() != "compute" || Comm.String() != "comm" || Update.String() != "update" {
		t.Fatal("TaskKind.String mismatch")
	}
	if TaskKind(7).String() != "TaskKind(7)" {
		t.Fatal("unknown TaskKind.String mismatch")
	}
}

func TestBuildDataParallelStructure(t *testing.T) {
	g := mlp()
	topo := device.NewSingleNode(4, "P100")
	s := config.DataParallel(g, topo)
	tg := build(t, g, topo, s, Options{})

	fc1 := g.Op(1)
	if got := len(tg.ForwardTasks(fc1.ID)); got != 4 {
		t.Fatalf("fc1 forward tasks = %d", got)
	}
	if got := len(tg.BackwardTasks(fc1.ID)); got != 4 {
		t.Fatalf("fc1 backward tasks = %d", got)
	}
	// Data parallelism: fc1 task k feeds fc2 task k on the same device
	// (aligned sample shards) -> no forward activation comm tasks, but
	// weight replicas must all-reduce: ring sync comm tasks exist.
	m := tg.Metrics()
	if m.SyncBytes == 0 {
		t.Fatal("data parallelism should incur parameter sync traffic")
	}
	if m.CommBytes != m.SyncBytes {
		t.Fatalf("aligned data parallelism should have no activation transfers: comm=%d sync=%d", m.CommBytes, m.SyncBytes)
	}
	// Ring all-reduce traffic: 2*S*(n-1) bytes total per weight shard set.
	var want int64
	for _, op := range g.ComputeOps() {
		w := op.Weights(s.Config(op.ID).Degrees)
		want += 2 * w.Elems * tensor.ElemBytes * int64(w.Replicas-1)
	}
	if m.SyncBytes != want {
		t.Fatalf("sync bytes = %d, want %d", m.SyncBytes, want)
	}
	// Forward -> backward dependency per task index.
	bt := tg.BackwardTasks(fc1.ID)[2]
	found := false
	for _, p := range tg.Preds(bt) {
		if p == tg.ForwardTasks(fc1.ID)[2] {
			found = true
		}
	}
	if !found {
		t.Fatal("backward task missing dependency on its forward task")
	}
}

func TestBuildCrossDeviceComm(t *testing.T) {
	g := mlp()
	topo := device.NewSingleNode(2, "P100")
	s := config.NewStrategy(g)
	fc1, fc2 := g.Op(1), g.Op(2)
	s.Set(fc1.ID, config.OnDevice(fc1, 0))
	s.Set(fc2.ID, config.OnDevice(fc2, 1))
	tg := build(t, g, topo, s, Options{})

	m := tg.Metrics()
	// fc1 output (16x128 floats) forward + same gradient backward.
	actBytes := int64(16 * 128 * tensor.ElemBytes)
	if m.CommBytes != 2*actBytes {
		t.Fatalf("comm bytes = %d, want %d", m.CommBytes, 2*actBytes)
	}
	if m.SyncBytes != 0 {
		t.Fatal("unreplicated weights should not sync")
	}
	// The comm task sits on the NVLink between the GPUs.
	var comm *Task
	for _, task := range tg.Tasks {
		if task.Kind == Comm && task.Pass == perfmodel.Forward {
			comm = task
		}
	}
	if comm == nil {
		t.Fatal("no forward comm task")
	}
	if comm.SrcDev != 0 || comm.DstDev != 1 || comm.Link < 0 {
		t.Fatalf("comm task endpoints = %+v", comm)
	}
	if comm.Exe <= 0 {
		t.Fatal("comm task has no cost")
	}
}

func TestBuildParamParallelNoSync(t *testing.T) {
	g := mlp()
	topo := device.NewSingleNode(4, "P100")
	s := config.NewStrategy(g)
	for _, op := range g.ComputeOps() {
		s.Set(op.ID, config.ParamParallel(op, topo.GPUs()))
	}
	tg := build(t, g, topo, s, Options{})
	m := tg.Metrics()
	if m.SyncBytes != 0 {
		t.Fatalf("param-parallel has unique shards, sync bytes = %d", m.SyncBytes)
	}
	// But activations must move: fc2 tasks need fc1's full output.
	if m.CommBytes == 0 {
		t.Fatal("param-parallel should transfer activations")
	}
	// Each device still updates its own shard.
	updates := 0
	for _, task := range tg.Tasks {
		if task.Kind == Update {
			updates++
		}
	}
	if updates != 8 { // 4 shards x 2 ops
		t.Fatalf("update tasks = %d, want 8", updates)
	}
}

func TestStarSyncAblation(t *testing.T) {
	g := mlp()
	topo := device.NewSingleNode(4, "P100")
	ring := build(t, g, topo, config.DataParallel(g, topo), Options{})
	star := build(t, g, topo, config.DataParallel(g, topo), Options{StarSync: true})
	rm, sm := ring.Metrics(), star.Metrics()
	// Both schemes move 2*(n-1)*S bytes total; the ring spreads it over
	// n per-hop transfers of 2S(n-1)/n while the star funnels full-shard
	// transfers through the primary (2(n-1) tasks per shard).
	if sm.SyncBytes != rm.SyncBytes {
		t.Fatalf("total sync volume should match: star %d B vs ring %d B", sm.SyncBytes, rm.SyncBytes)
	}
	countSync := func(tg *TaskGraph) int {
		n := 0
		for _, task := range tg.Tasks {
			if tg.Live(task) && task.Kind == Comm && task.Sync {
				n++
			}
		}
		return n
	}
	ringTasks, starTasks := countSync(ring), countSync(star)
	if starTasks <= ringTasks {
		t.Fatalf("star should emit more transfers: %d vs ring %d", starTasks, ringTasks)
	}
	if sm.ComputeTime != rm.ComputeTime {
		t.Fatal("sync scheme must not change compute time")
	}
}

func TestReplaceConfigRewiresEdges(t *testing.T) {
	g := mlp()
	topo := device.NewSingleNode(2, "P100")
	s := config.DataParallel(g, topo)
	tg := build(t, g, topo, s, Options{})
	before := tg.Alive()

	fc1 := g.Op(1)
	cs := tg.ReplaceConfig(fc1.ID, config.OnDevice(fc1, 0))
	if len(cs.Removed) == 0 || len(cs.Added) == 0 {
		t.Fatalf("changeset = %d removed, %d added", len(cs.Removed), len(cs.Added))
	}
	// Graph is self-consistent: rows reference live slots only, the
	// slot table and task list agree.
	checkAdjInvariants(t, tg)
	// Rebuilding equals building from scratch.
	fresh := build(t, g, topo, s.Clone(), Options{})
	if got, want := tg.Metrics(), fresh.Metrics(); got.CommBytes != want.CommBytes ||
		got.NumTasks != want.NumTasks || got.ComputeTime != want.ComputeTime ||
		got.SyncBytes != want.SyncBytes {
		t.Fatalf("incremental rebuild diverged: %+v vs %+v", got, want)
	}
	_ = before
}

func TestReplaceConfigCompacts(t *testing.T) {
	g := mlp()
	topo := device.NewSingleNode(2, "P100")
	tg := build(t, g, topo, config.DataParallel(g, topo), Options{})
	fc1 := g.Op(1)
	for i := 0; i < 20; i++ {
		dev := i % 2
		tg.ReplaceConfig(fc1.ID, config.OnDevice(fc1, dev))
	}
	// Compaction must have kept the slice bounded.
	if len(tg.Tasks) > 4*tg.Alive() {
		t.Fatalf("task slice grew unboundedly: %d entries, %d alive", len(tg.Tasks), tg.Alive())
	}
	checkAdjInvariants(t, tg)
}

func TestReplaceConfigPanics(t *testing.T) {
	g := mlp()
	topo := device.NewSingleNode(2, "P100")
	tg := build(t, g, topo, config.DataParallel(g, topo), Options{})
	t.Run("input-op", func(t *testing.T) {
		defer func() {
			if recover() == nil {
				t.Fatal("no panic")
			}
		}()
		tg.ReplaceConfig(0, config.OnDevice(g.Op(0), 0))
	})
	t.Run("invalid-config", func(t *testing.T) {
		defer func() {
			if recover() == nil {
				t.Fatal("no panic")
			}
		}()
		tg.ReplaceConfig(1, &config.Config{Degrees: []int{1}, Devices: []int{0}})
	})
}

func TestBuildValidatesStrategy(t *testing.T) {
	g := mlp()
	topo := device.NewSingleNode(2, "P100")
	defer func() {
		if recover() == nil {
			t.Fatal("Build with empty strategy did not panic")
		}
	}()
	Build(g, topo, config.NewStrategy(g), perfmodel.NewAnalyticModel(), Options{})
}

func TestHybridConfigTaskRegions(t *testing.T) {
	// A 2x2 (sample x channel) hybrid config on fc1: its 4 tasks cover
	// the output exactly and tasks with the same channel slice share a
	// weight shard (2 shards x 2 replicas).
	g := mlp()
	topo := device.NewSingleNode(4, "P100")
	s := config.DataParallel(g, topo)
	fc1 := g.Op(1)
	s.Set(fc1.ID, &config.Config{Degrees: []int{2, 2}, Devices: []int{0, 1, 2, 3}})
	tg := build(t, g, topo, s, Options{})

	w := fc1.Weights([]int{2, 2})
	if w.Slices != 2 || w.Replicas != 2 {
		t.Fatalf("weights = %+v", w)
	}
	syncTasks := 0
	for _, task := range tg.Tasks {
		if task.Kind == Comm && task.Sync && task.Op == fc1 {
			syncTasks++
		}
	}
	// Ring of 2 devices per shard -> 2 comm tasks per shard, 2 shards.
	if syncTasks != 4 {
		t.Fatalf("sync comm tasks = %d, want 4", syncTasks)
	}
}

func TestMetricsFields(t *testing.T) {
	g := mlp()
	topo := device.NewSingleNode(2, "P100")
	tg := build(t, g, topo, config.DataParallel(g, topo), Options{})
	m := tg.Metrics()
	if m.NumTasks != tg.Alive() {
		t.Fatalf("NumTasks = %d, alive = %d", m.NumTasks, tg.Alive())
	}
	if m.ComputeTime <= 0 || m.UpdateTime <= 0 {
		t.Fatalf("times: %+v", m)
	}
	if m.DevicesInvolved != 2 {
		t.Fatalf("devices involved = %d", m.DevicesInvolved)
	}
	if m.MaxTasksPerDev == 0 {
		t.Fatal("MaxTasksPerDev = 0")
	}
}

func TestTaskStringAndScheduleKey(t *testing.T) {
	g := mlp()
	topo := device.NewSingleNode(2, "P100")
	tg := build(t, g, topo, config.DataParallel(g, topo), Options{})
	nd := topo.NumDevices()
	for _, task := range tg.Tasks {
		if task.String() == "" {
			t.Fatal("empty task string")
		}
		key := task.ScheduleKey(nd)
		if task.Kind == Comm {
			if key < nd {
				t.Fatalf("comm task scheduled on device key %d", key)
			}
		} else if key != task.Device {
			t.Fatalf("compute task key %d != device %d", key, task.Device)
		}
	}
}

func TestLSTMRecurrentChainDependencies(t *testing.T) {
	g := graph.New("rnn")
	ids := g.InputSeq("tok", 8, 3)
	emb := g.Embedding("emb", ids, 50, 16)
	l0 := g.LSTMStep("l.t0", emb, nil, 0, 32)
	l1 := g.LSTMStep("l.t1", emb, l0, 1, 32)
	topo := device.NewSingleNode(2, "P100")
	s := config.DataParallel(g, topo)
	tg := build(t, g, topo, s, Options{})

	// l1 task k depends (directly, same device) on l0 task k.
	for k, task := range tg.ForwardTasks(l1.ID) {
		dep := false
		for _, p := range tg.Preds(task) {
			if p.Op == l0 && p.Index == k {
				dep = true
			}
		}
		if !dep {
			t.Fatalf("l1 task %d missing recurrent dependency", k)
		}
	}
}
