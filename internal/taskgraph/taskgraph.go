// Package taskgraph constructs the task graph of Section 5.1: given an
// operator graph, a device topology and a parallelization strategy, it
// derives per-task compute work (forward, backward and weight-update
// tasks), the communication tasks implied by overlapping sub-tensors on
// different devices, and the parameter-synchronization traffic of
// replicated weights. Hardware connections are treated as communication
// devices so computation and communication can overlap.
//
// The builder also supports the incremental update the delta simulation
// algorithm needs (Section 5.3): ReplaceConfig rebuilds exactly the
// tasks belonging to one operation and the communication attached to it.
package taskgraph

import (
	"fmt"
	"math"
	"sort"
	"time"

	"flexflow/internal/config"
	"flexflow/internal/device"
	"flexflow/internal/graph"
	"flexflow/internal/perfmodel"
	"flexflow/internal/tensor"
)

// TaskKind classifies tasks.
type TaskKind uint8

const (
	// Compute is a normal task: a shard of an operation's forward or
	// backward work.
	Compute TaskKind = iota
	// Comm is a communication task: a tensor transfer over a connection.
	Comm
	// Update applies a synchronized gradient shard to local weights.
	Update
)

// String names the task kind.
func (k TaskKind) String() string {
	switch k {
	case Compute:
		return "compute"
	case Comm:
		return "comm"
	case Update:
		return "update"
	default:
		return fmt.Sprintf("TaskKind(%d)", uint8(k))
	}
}

// Task is a node of the task graph. Tasks are immutable once built:
// adjacency lives in the graph's slot-indexed CSR view (Adj), all
// simulation timing lives in sim.State's slot-indexed arrays (see the
// Slot field), and liveness is derived from the Adj slot table — never
// stored in the task itself. A Task struct is therefore shared freely:
// between a frozen Plan base and every copy-on-write Instance, and
// between concurrent simulations.
type Task struct {
	ID int
	// Slot indexes the simulator's per-task state arrays. Unlike IDs
	// (unique forever, the ready-time tie-breaker), slots of dead tasks
	// are recycled, so the slot space stays as dense as the peak alive
	// count no matter how many ReplaceConfig calls a graph absorbs.
	Slot int
	Kind TaskKind
	Op   *graph.Op // owning op (nil for cross-op comm tasks)
	Pass perfmodel.Pass
	// Index is the flat grid index of compute tasks within their config.
	Index int
	// Device is the compute device for Compute/Update tasks, -1 for Comm.
	Device int
	// Link is the bottleneck link a Comm task is scheduled on, -1 otherwise.
	Link int
	// SrcDev/DstDev are the endpoints of a Comm task.
	SrcDev, DstDev int
	// Exe is the task's predicted execution time.
	Exe time.Duration
	// Bytes is the payload of a Comm task.
	Bytes int64
	// Sync marks parameter-synchronization traffic (vs activation
	// transfers); Figure 8b and the Figure 13 discussion separate them.
	Sync bool

	// staged holds successors wired by Connect before Manual assigns
	// slots; Manual moves them into the Adj rows and clears the field.
	staged []*Task
}

// String renders the task with its id, kind, pass, op, device and
// exe-time fields for debugging and timeline dumps.
func (t *Task) String() string {
	opName := "-"
	if t.Op != nil {
		opName = t.Op.Name
	}
	return fmt.Sprintf("t%d[%s/%s %s idx=%d dev=%d link=%d exe=%v]",
		t.ID, t.Kind, t.Pass, opName, t.Index, t.Device, t.Link, t.Exe)
}

// ScheduleKey returns the resource the task occupies: compute tasks
// occupy their device, communication tasks their bottleneck link.
// Resources are numbered devices first, then links.
func (t *Task) ScheduleKey(numDevices int) int {
	if t.Kind == Comm {
		return numDevices + t.Link
	}
	return t.Device
}

// Adj is the slot-indexed, CSR-style flat view of the live task
// structure — the authoritative adjacency representation (tasks carry
// no pointer lists) and the one the simulator's hot loops traverse.
// Every array is indexed by Task.Slot, and the adjacency rows hold
// predecessor/successor slots as contiguous int32s, so recomputing a
// ready time or releasing successors touches a handful of dense cache
// lines rather than one scattered Task struct per edge.
//
// Invariants, laid out contiguously once by Build/Manual and
// maintained incrementally by ReplaceConfig:
//
//   - ID[slot] is the live task's ID at that slot, or -1 while the
//     slot is free. Because IDs are unique forever and slots are
//     recycled, comparing a remembered (slot, id) pair against
//     ID[slot] is an O(1) is-this-task-still-alive test — and the
//     only liveness record there is (see TaskGraph.Live).
//   - In[slot]/Out[slot] reference live slots only: removing a task
//     scrubs it from every surviving neighbour's row before its slot
//     is freed, so traversals never need a dead check.
//   - Exe[slot] and Key[slot] cache the task's execution time and
//     schedule resource (device, or numDevices+link for Comm tasks).
//   - Task[slot] maps back to the owning *Task for API boundaries
//     (timelines, error messages); it is nil for free slots.
//
// The view is owned by its TaskGraph: read-only for everyone else,
// safe for concurrent readers on a frozen Plan base, private to the
// owning goroutine on a mutable Instance.
//
// # Copy-on-write
//
// A Plan.Instance shares the frozen base's arrays and row backing
// verbatim (see TaskGraph.clone); the first ReplaceConfig privatizes
// the slot-indexed arrays and row headers (TaskGraph.materialize) and
// allocates the inOwned/outOwned bitsets. Row *contents* stay shared
// until a mutation touches them: in-place writes (removeIn/removeOut,
// noteDead, noteNew's row reset) fault the row private first, while
// appends never need a fault because every shared row is cut with its
// capacity pinned to its length, so append reallocates instead of
// writing into the shared backing.
type Adj struct {
	// In and Out are the per-slot predecessor and successor slot rows.
	In, Out [][]int32
	// ID holds the live task ID per slot (-1 = free slot).
	ID []int32
	// Exe caches Task.Exe per slot.
	Exe []time.Duration
	// Key caches Task.ScheduleKey per slot.
	Key []int32
	// Task maps slots back to live tasks (nil = free slot).
	Task []*Task

	// inOwned/outOwned, when non-nil, mark rows whose backing is
	// private to this graph; unmarked rows still alias the frozen base
	// plan's backing and must be faulted before any in-place write.
	// Both are nil on a graph that owns every row (a fresh Build).
	inOwned, outOwned []bool
}

// noteNew registers a task ReplaceConfig creates, growing the arrays
// to cover its slot and resetting any recycled rows. (Build and Manual
// never come here: layout sizes the arrays once for all their tasks.)
func (a *Adj) noteNew(t *Task, key int) {
	for len(a.ID) <= t.Slot {
		a.In = append(a.In, nil)
		a.Out = append(a.Out, nil)
		a.ID = append(a.ID, -1)
		a.Exe = append(a.Exe, 0)
		a.Key = append(a.Key, 0)
		a.Task = append(a.Task, nil)
		if a.inOwned != nil {
			// Fresh slots start with nil rows, trivially private.
			a.inOwned = append(a.inOwned, true)
			a.outOwned = append(a.outOwned, true)
		}
	}
	a.ID[t.Slot] = int32(t.ID)
	a.Exe[t.Slot] = t.Exe
	a.Key[t.Slot] = int32(key)
	a.Task[t.Slot] = t
	a.resetRows(t.Slot)
}

// resetRows empties a slot's rows for reuse. Owned rows keep their
// backing (appends refill it in place); rows still aliasing the base
// are dropped to nil so future appends allocate privately.
func (a *Adj) resetRows(slot int) {
	if a.inOwned != nil && !a.inOwned[slot] {
		a.In[slot] = nil
		a.inOwned[slot] = true
	} else {
		a.In[slot] = a.In[slot][:0]
	}
	if a.outOwned != nil && !a.outOwned[slot] {
		a.Out[slot] = nil
		a.outOwned[slot] = true
	} else {
		a.Out[slot] = a.Out[slot][:0]
	}
}

// noteDead frees a removed task's slot. The caller must already have
// scrubbed the slot from every surviving neighbour's row.
func (a *Adj) noteDead(t *Task) {
	a.ID[t.Slot] = -1
	a.Task[t.Slot] = nil
	a.resetRows(t.Slot)
}

// removeIn deletes one occurrence of victim from slot's In row,
// faulting the row private first when it still aliases shared backing.
func (a *Adj) removeIn(slot int, victim int32) {
	row := a.In[slot]
	if a.inOwned != nil && !a.inOwned[slot] {
		row = append(make([]int32, 0, len(row)), row...)
		a.inOwned[slot] = true
	}
	a.In[slot] = removeSlot(row, victim)
}

// removeOut is removeIn for the Out row.
func (a *Adj) removeOut(slot int, victim int32) {
	row := a.Out[slot]
	if a.outOwned != nil && !a.outOwned[slot] {
		row = append(make([]int32, 0, len(row)), row...)
		a.outOwned[slot] = true
	}
	a.Out[slot] = removeSlot(row, victim)
}

// removeSlot deletes one occurrence of slot from a row the caller
// owns. Rows are unordered multisets (ready times are max/count
// reductions), so the removal swaps with the tail instead of shifting.
func removeSlot(row []int32, slot int32) []int32 {
	for i, s := range row {
		if s == slot {
			row[i] = row[len(row)-1]
			return row[:len(row)-1]
		}
	}
	return row
}

// Options control task-graph construction. Every graph is a training
// graph, like the paper's: forward, backward and parameter
// synchronization. The zero value builds it with ring all-reduce, which
// is what every optimizer uses; only the synchronization ablation sets
// a field.
type Options struct {
	// StarSync replaces the ring all-reduce with a star (all replicas
	// send to the primary, which broadcasts back) — the
	// parameter-server-style ablation (the "ablation-sync" experiment,
	// docs/EXPERIMENTS.md).
	StarSync bool
}

// TaskGraph is the constructed graph plus the indexes needed for
// incremental updates.
type TaskGraph struct {
	G     *graph.Graph
	Topo  *device.Topology
	Strat *config.Strategy
	Est   perfmodel.Estimator
	Opts  Options

	Tasks  []*Task
	nextID int

	// Slot allocator: dead tasks return their slot to the free list, so
	// numSlots (the size a simulator state array needs) tracks the peak
	// alive count rather than the total tasks ever created.
	numSlots  int
	freeSlots []int

	// frozen marks the immutable base graph of a Plan: structural
	// mutation (ReplaceConfig, Compact) panics. Simulation still works —
	// sim.State keeps all timing in its own arrays.
	frozen bool

	// Per-op task groups, indexed by op ID.
	fwd    [][]*Task // forward compute tasks, by grid index
	bwd    [][]*Task // backward compute tasks, by grid index
	extras [][]*Task // sync comm + update tasks owned by the op

	// Cross-op communication tasks, keyed by (producer, consumer) op IDs.
	edgeComm map[[2]int][]*Task

	// adj is the slot-indexed flat structure view the simulator hot
	// path reads — and the only adjacency representation (see Adj). It
	// is maintained through every ReplaceConfig.
	adj Adj

	// bulk marks a graph under construction by Build or Manual: newTask
	// only records the task and dep stages each edge as a (from, to)
	// slot pair in edges, and layout then sizes the Adj arrays and rows
	// once for the whole graph instead of growing them task by task.
	bulk  bool
	edges []int32

	// shared marks an Instance still aliasing its frozen base Plan's
	// arrays; the first structural mutation calls materialize to
	// privatize them (copy-on-write).
	shared bool

	numDead int
}

// Live reports whether t is a live member of this graph: the adjacency
// slot table still maps t's slot to t's ID. Deadness is graph-relative
// — a task removed by one Instance's ReplaceConfig stays live in the
// base Plan and in every other instance.
func (tg *TaskGraph) Live(t *Task) bool {
	return t.Slot < len(tg.adj.ID) && tg.adj.ID[t.Slot] == int32(t.ID)
}

// Preds returns t's predecessors in this graph, freshly allocated.
// It exists for API boundaries and tests; hot paths read the Adj rows
// directly.
func (tg *TaskGraph) Preds(t *Task) []*Task {
	row := tg.adj.In[t.Slot]
	out := make([]*Task, len(row))
	for i, s := range row {
		out[i] = tg.adj.Task[s]
	}
	return out
}

// Succs returns t's successors in this graph, freshly allocated.
func (tg *TaskGraph) Succs(t *Task) []*Task {
	row := tg.adj.Out[t.Slot]
	out := make([]*Task, len(row))
	for i, s := range row {
		out[i] = tg.adj.Task[s]
	}
	return out
}

// Adj returns the slot-indexed flat view of the live task structure.
// The view is read-only for callers and shares the graph's ownership
// rules: safe for concurrent readers on a frozen Plan base, single-
// goroutine on a mutable Instance. The inner slices are reallocated
// by structural mutation, so callers must re-read them through the
// returned pointer after any ReplaceConfig.
func (tg *TaskGraph) Adj() *Adj { return &tg.adj }

// Build constructs the task graph for a strategy. The strategy must be
// valid for (g, topo); Build panics otherwise, since the search layer
// only ever proposes valid configs.
func Build(g *graph.Graph, topo *device.Topology, strat *config.Strategy, est perfmodel.Estimator, opts Options) *TaskGraph {
	if err := strat.Validate(g, topo); err != nil {
		panic(fmt.Sprintf("taskgraph: %v", err))
	}
	tg := &TaskGraph{
		G: g, Topo: topo, Strat: strat, Est: est, Opts: opts,
		fwd:      make([][]*Task, g.NumOps()),
		bwd:      make([][]*Task, g.NumOps()),
		extras:   make([][]*Task, g.NumOps()),
		edgeComm: make(map[[2]int][]*Task),
		bulk:     true,
	}
	for _, op := range g.ComputeOps() {
		tg.buildComputeTasks(op)
	}
	for _, op := range g.ComputeOps() {
		for _, in := range op.Inputs {
			if in.Kind != graph.Input {
				tg.buildEdge(in, op)
			}
		}
		tg.buildSync(op)
	}
	// Lay the staged edges out as one contiguous CSR backing array:
	// paid once per Build, read by every simulation.
	tg.layout()
	return tg
}

func (tg *TaskGraph) newTask(t *Task) *Task {
	t.ID = tg.nextID
	tg.nextID++
	if t.ID > math.MaxInt32 {
		// The flat adjacency view stores IDs as int32; 2^31 tasks over
		// a graph's lifetime is far beyond any search budget.
		panic("taskgraph: task ID overflows int32")
	}
	if n := len(tg.freeSlots); n > 0 {
		t.Slot = tg.freeSlots[n-1]
		tg.freeSlots = tg.freeSlots[:n-1]
	} else {
		t.Slot = tg.numSlots
		tg.numSlots++
	}
	tg.Tasks = append(tg.Tasks, t)
	if !tg.bulk {
		tg.adj.noteNew(t, t.ScheduleKey(tg.Topo.NumDevices()))
	}
	return t
}

// NumSlots returns the size of the per-task state arrays a simulator
// needs to cover every live task's Slot.
func (tg *TaskGraph) NumSlots() int { return tg.numSlots }

// dep wires a dependency into the slot-indexed adjacency rows — the
// single adjacency representation — or, during a bulk build, stages it
// for layout. Every builder edge goes through here.
func (tg *TaskGraph) dep(from, to *Task) {
	if tg.bulk {
		tg.edges = append(tg.edges, int32(from.Slot), int32(to.Slot))
		return
	}
	tg.adj.Out[from.Slot] = append(tg.adj.Out[from.Slot], int32(to.Slot))
	tg.adj.In[to.Slot] = append(tg.adj.In[to.Slot], int32(from.Slot))
}

// Connect stages an ordering dependency between two tasks. It exists
// for hand-assembled task graphs (tests, worked examples); Build wires
// dependencies itself. The edge is recorded on the task and moved into
// the adjacency rows by Manual, once slots exist.
func Connect(from, to *Task) { from.staged = append(from.staged, to) }

// Manual wraps hand-assembled tasks into a TaskGraph for direct
// simulation (e.g. reproducing the worked example of Figure 5). Task IDs
// are assigned in slice order. Dependencies (Connect) must already be
// wired when Manual is called.
func Manual(topo *device.Topology, tasks []*Task) *TaskGraph {
	tg := &TaskGraph{Topo: topo, edgeComm: make(map[[2]int][]*Task), bulk: true}
	for _, t := range tasks {
		tg.newTask(t)
	}
	for _, t := range tasks {
		for _, to := range t.staged {
			tg.dep(t, to)
		}
		t.staged = nil
	}
	tg.layout()
	return tg
}

// layout ends a bulk build: it sizes the slot-indexed Adj arrays once
// for every task and lays the staged edges out as CSR rows in one
// contiguous backing array, slot by slot, each slot's In row before its
// Out row — the layout the simulator sweeps. A counting pass sizes the
// rows and a fill pass in staging order keeps each row's entries in the
// order dep wired them, exactly as per-row appends would have. Rows are
// cut with their capacity pinned to their length, which is also what
// makes copy-on-write sharing safe: a later incremental append
// (ReplaceConfig rewiring a survivor — in this graph or in an Instance
// sharing the backing) reallocates that row instead of clobbering its
// neighbour. A bulk build recycles no slots, so every slot is live.
func (tg *TaskGraph) layout() {
	n := tg.numSlots
	numDevices := tg.Topo.NumDevices()
	a := &tg.adj
	a.ID = make([]int32, n)
	a.Exe = make([]time.Duration, n)
	a.Key = make([]int32, n)
	a.Task = make([]*Task, n)
	for _, t := range tg.Tasks {
		a.ID[t.Slot] = int32(t.ID)
		a.Exe[t.Slot] = t.Exe
		a.Key[t.Slot] = int32(t.ScheduleKey(numDevices))
		a.Task[t.Slot] = t
	}
	// Row r is slot r/2's In row (r even) or Out row (r odd). end[r]
	// first counts the row's entries, then holds its start as the fill
	// cursor, and after the fill its end — the next row's start.
	edges := tg.edges
	end := make([]int32, 2*n)
	for e := 0; e < len(edges); e += 2 {
		end[2*edges[e]+1]++ // from's Out row
		end[2*edges[e+1]]++ // to's In row
	}
	var pos int32
	for r, cnt := range end {
		end[r] = pos
		pos += cnt
	}
	backing := make([]int32, len(edges))
	for e := 0; e < len(edges); e += 2 {
		from, to := edges[e], edges[e+1]
		backing[end[2*from+1]] = to
		end[2*from+1]++
		backing[end[2*to]] = from
		end[2*to]++
	}
	a.In = make([][]int32, n)
	a.Out = make([][]int32, n)
	var lo int32
	for slot := 0; slot < n; slot++ {
		mid, hi := end[2*slot], end[2*slot+1]
		a.In[slot] = backing[lo:mid:mid]
		a.Out[slot] = backing[mid:hi:hi]
		lo = hi
	}
	a.inOwned, a.outOwned = nil, nil
	tg.bulk, tg.edges = false, nil
}

// buildComputeTasks creates the forward (and backward) compute tasks of
// an op, with the forward->backward dependency per task index.
func (tg *TaskGraph) buildComputeTasks(op *graph.Op) {
	c := tg.Strat.Config(op.ID)
	n := c.NumTasks()
	regions := tensor.Partition(op.Out, c.Degrees)
	fwd := make([]*Task, n)
	for k := 0; k < n; k++ {
		dev := tg.Topo.Device(c.Devices[k])
		fwd[k] = tg.newTask(&Task{
			Kind: Compute, Op: op, Pass: perfmodel.Forward, Index: k,
			Device: c.Devices[k], Link: -1,
			Exe: tg.Est.ExecTime(op, regions[k], dev, perfmodel.Forward),
		})
	}
	tg.fwd[op.ID] = fwd
	bwd := make([]*Task, n)
	for k := 0; k < n; k++ {
		dev := tg.Topo.Device(c.Devices[k])
		bwd[k] = tg.newTask(&Task{
			Kind: Compute, Op: op, Pass: perfmodel.Backward, Index: k,
			Device: c.Devices[k], Link: -1,
			Exe: tg.Est.ExecTime(op, regions[k], dev, perfmodel.Backward),
		})
		tg.dep(fwd[k], bwd[k])
	}
	tg.bwd[op.ID] = bwd
}

// buildEdge wires dependencies (and communication tasks) between the
// tasks of producer prod and consumer cons for the tensor flowing
// between them (Section 5.1 step 2): for every task pair with shared
// sub-tensors, a direct dependency if co-located, otherwise a
// communication task on the connection between their devices. The
// backward pass mirrors each transfer in the reverse direction.
//
// The edge is the builder's hot loop — every consumer task against
// every producer task — so it allocates per edge, not per pair: both
// grids are partitioned once, each consumer task's input region is
// written into one reused buffer, and overlaps are priced with
// IntersectVolume instead of materialized.
func (tg *TaskGraph) buildEdge(prod, cons *graph.Op) {
	key := [2]int{prod.ID, cons.ID}
	inputIdx := -1
	for i, in := range cons.Inputs {
		if in.ID == prod.ID {
			inputIdx = i
			break
		}
	}
	if inputIdx < 0 {
		panic(fmt.Sprintf("taskgraph: %q does not consume %q", cons.Name, prod.Name))
	}
	var comms []*Task
	prodRegions := tensor.Partition(prod.Out, tg.Strat.Config(prod.ID).Degrees)
	consRegions := tensor.Partition(cons.Out, tg.Strat.Config(cons.ID).Degrees)
	var buf [4]tensor.Interval
	for ck, outRegion := range consRegions {
		need := graph.InputRegion(cons, outRegion, inputIdx, buf[:0])
		if need.Empty() {
			continue
		}
		for pk, pt := range tg.fwd[prod.ID] {
			vol := prodRegions[pk].IntersectVolume(need)
			if vol == 0 {
				continue
			}
			ct := tg.fwd[cons.ID][ck]
			srcDev, dstDev := pt.Device, ct.Device
			if srcDev == dstDev {
				tg.dep(pt, ct)
				tg.dep(tg.bwd[cons.ID][ck], tg.bwd[prod.ID][pk])
				continue
			}
			bytes := vol * tensor.ElemBytes
			path := tg.Topo.Route(srcDev, dstDev)
			fc := tg.newTask(&Task{
				Kind: Comm, Op: cons, Pass: perfmodel.Forward,
				Device: -1, Link: path.BottleneckLink,
				SrcDev: srcDev, DstDev: dstDev,
				Bytes: bytes, Exe: path.TransferTime(bytes),
			})
			tg.dep(pt, fc)
			tg.dep(fc, ct)
			rpath := tg.Topo.Route(dstDev, srcDev)
			bc := tg.newTask(&Task{
				Kind: Comm, Op: cons, Pass: perfmodel.Backward,
				Device: -1, Link: rpath.BottleneckLink,
				SrcDev: dstDev, DstDev: srcDev,
				Bytes: bytes, Exe: rpath.TransferTime(bytes),
			})
			tg.dep(tg.bwd[cons.ID][ck], bc)
			tg.dep(bc, tg.bwd[prod.ID][pk])
			comms = append(comms, fc, bc)
		}
	}
	tg.edgeComm[key] = comms
}

// buildSync emits the gradient-synchronization and weight-update tasks
// of an op (skipped for weightless ops). Tasks
// that replicate a weight shard all-reduce their gradients over a ring
// of the distinct devices holding replicas; every device then runs an
// Update task for its local copy.
func (tg *TaskGraph) buildSync(op *graph.Op) {
	tg.extras[op.ID] = nil
	if !op.HasWeights() {
		return
	}
	c := tg.Strat.Config(op.ID)
	w := op.Weights(c.Degrees)
	if w.Elems == 0 {
		return
	}
	var extras []*Task
	// Group backward tasks by weight shard: tasks sharing all Parameter
	// dimension coordinates accumulate gradients for the same shard.
	shards := map[int][]*Task{}
	for k, bt := range tg.bwd[op.ID] {
		// The shard ID folds the Parameter-dimension grid coordinates
		// row-major; decoding k from its last dimension (as GridCoords
		// does) builds the same number without materializing them.
		shardID, scale, rest := 0, 1, k
		for i := len(c.Degrees) - 1; i >= 0; i-- {
			d := c.Degrees[i]
			if op.Out.Kind(i) == tensor.Parameter {
				shardID += rest % d * scale
				scale *= d
			}
			rest /= d
		}
		shards[shardID] = append(shards[shardID], bt)
	}
	shardIDs := make([]int, 0, len(shards))
	for id := range shards {
		shardIDs = append(shardIDs, id)
	}
	sort.Ints(shardIDs)

	shardRegion := tensor.Region{Iv: []tensor.Interval{{Lo: 0, Hi: int(w.Elems)}}}
	shardBytes := w.Elems * tensor.ElemBytes
	for _, id := range shardIDs {
		replicas := shards[id]
		// Distinct devices holding this shard, with the local backward
		// tasks contributing gradients on each.
		byDev := map[int][]*Task{}
		var devs []int
		for _, bt := range replicas {
			if _, ok := byDev[bt.Device]; !ok {
				devs = append(devs, bt.Device)
			}
			byDev[bt.Device] = append(byDev[bt.Device], bt)
		}
		sort.Ints(devs)

		updates := make([]*Task, len(devs))
		for i, dev := range devs {
			updates[i] = tg.newTask(&Task{
				Kind: Update, Op: op, Pass: perfmodel.Update, Index: id,
				Device: dev, Link: -1,
				Exe: tg.Est.ExecTime(op, shardRegion, tg.Topo.Device(dev), perfmodel.Update),
			})
		}
		if len(devs) == 1 {
			for _, bt := range byDev[devs[0]] {
				tg.dep(bt, updates[0])
			}
			extras = append(extras, updates[0])
			continue
		}
		if tg.Opts.StarSync {
			extras = append(extras, tg.buildStarSync(op, devs, byDev, updates, shardBytes)...)
		} else {
			extras = append(extras, tg.buildRingSync(op, devs, byDev, updates, shardBytes)...)
		}
		extras = append(extras, updates...)
	}
	tg.extras[op.ID] = extras
}

// buildRingSync models a ring all-reduce: each of the n ring links
// carries 2*(n-1)/n of the shard (scatter-reduce + all-gather volume).
// Each link's transfer depends on the gradients at its source; each
// device's update depends on its incoming transfer.
func (tg *TaskGraph) buildRingSync(op *graph.Op, devs []int, byDev map[int][]*Task, updates []*Task, shardBytes int64) []*Task {
	n := len(devs)
	var out []*Task
	for i := 0; i < n; i++ {
		src, dst := devs[i], devs[(i+1)%n]
		bytes := 2 * shardBytes * int64(n-1) / int64(n)
		path := tg.Topo.Route(src, dst)
		ct := tg.newTask(&Task{
			Kind: Comm, Op: op, Pass: perfmodel.Backward,
			Device: -1, Link: path.BottleneckLink,
			SrcDev: src, DstDev: dst,
			Bytes: bytes, Exe: path.TransferTime(bytes), Sync: true,
		})
		for _, bt := range byDev[src] {
			tg.dep(bt, ct)
		}
		tg.dep(ct, updates[(i+1)%n])
		out = append(out, ct)
	}
	return out
}

// buildStarSync models a parameter-server style reduction: every
// secondary device ships its full gradient shard to the primary, which
// updates and broadcasts the result back.
func (tg *TaskGraph) buildStarSync(op *graph.Op, devs []int, byDev map[int][]*Task, updates []*Task, shardBytes int64) []*Task {
	primary := devs[0]
	var out []*Task
	for i := 1; i < len(devs); i++ {
		up := tg.Topo.Route(devs[i], primary)
		in := tg.newTask(&Task{
			Kind: Comm, Op: op, Pass: perfmodel.Backward,
			Device: -1, Link: up.BottleneckLink,
			SrcDev: devs[i], DstDev: primary,
			Bytes: shardBytes, Exe: up.TransferTime(shardBytes), Sync: true,
		})
		for _, bt := range byDev[devs[i]] {
			tg.dep(bt, in)
		}
		tg.dep(in, updates[0])
		out = append(out, in)
	}
	for _, bt := range byDev[primary] {
		tg.dep(bt, updates[0])
	}
	for i := 1; i < len(devs); i++ {
		down := tg.Topo.Route(primary, devs[i])
		bc := tg.newTask(&Task{
			Kind: Comm, Op: op, Pass: perfmodel.Backward,
			Device: -1, Link: down.BottleneckLink,
			SrcDev: primary, DstDev: devs[i],
			Bytes: shardBytes, Exe: down.TransferTime(shardBytes), Sync: true,
		})
		tg.dep(updates[0], bc)
		tg.dep(bc, updates[i])
		out = append(out, bc)
	}
	return out
}
