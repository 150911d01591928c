package taskgraph

import (
	"time"

	"flexflow/internal/config"
	"flexflow/internal/device"
	"flexflow/internal/graph"
	"flexflow/internal/perfmodel"
)

// Plan is a compiled, immutable task graph: the structure/state split
// behind the concurrent search runtime. Compile builds the graph once —
// paying the estimator lookups, route queries and region intersections
// of Build exactly once per problem — and freezes it; the Plan is then
// shared read-only by any number of goroutines:
//
//   - Base returns the frozen graph itself. Simulating it is safe
//     concurrently (sim.State keeps every mutable value in its own
//     arrays), but ReplaceConfig on it panics.
//   - Instance returns a private mutable copy for a chain or worker
//     that needs to mutate structure (ReplaceConfig). The copy is a
//     pure pointer-remap — no estimator, route or region work — and
//     preserves task IDs and slots, so a sim.State cloned from the
//     base timeline rebinds to it directly (sim.State.CloneFor).
//
// The concurrency contract: the Plan (and its Base graph) is never
// written after Compile; every Instance is owned by exactly one
// goroutine.
type Plan struct {
	base *TaskGraph
}

// Compile builds and freezes the task graph for a strategy. The
// strategy must be valid for (g, topo); Compile panics otherwise, like
// Build.
func Compile(g *graph.Graph, topo *device.Topology, strat *config.Strategy, est perfmodel.Estimator, opts Options) *Plan {
	tg := Build(g, topo, strat, est, opts)
	tg.frozen = true
	return &Plan{base: tg}
}

// Base returns the frozen task graph. It is safe for concurrent
// read-only use (simulation, metrics); structural mutation panics.
func (p *Plan) Base() *TaskGraph { return p.base }

// Strategy returns a copy of the strategy the plan was compiled for.
func (p *Plan) Strategy() *config.Strategy { return p.base.Strat.Clone() }

// NumTasks returns the number of live tasks in the plan.
func (p *Plan) NumTasks() int { return p.base.Alive() }

// Instance returns a mutable copy-on-write view of the plan's task
// graph, owned by the caller. Task IDs, slots and creation order are
// preserved, so two instances applying the same ReplaceConfig sequence
// stay bit-identical — the property the parallel Neighborhood sweep
// relies on. Creation is near-O(1): tasks are immutable and shared by
// pointer, and the adjacency arrays alias the frozen base until the
// instance's first mutation faults them private (see clone and
// TaskGraph.materialize).
func (p *Plan) Instance() *TaskGraph { return p.base.clone() }

// clone creates a copy-on-write view of a frozen graph: every slice,
// map and Task pointer is shared verbatim with the base, and the
// result is flagged shared so the first structural mutation
// (ReplaceConfig, Compact) privatizes the mutable arrays via
// materialize. Tasks is cut with its capacity pinned to its length so
// the instance's first task append reallocates instead of writing the
// base's spare capacity. Sharing is safe because tasks are immutable,
// the base is frozen (never written), and layout pinned every
// adjacency row's capacity to its length.
func (tg *TaskGraph) clone() *TaskGraph {
	return &TaskGraph{
		G: tg.G, Topo: tg.Topo, Strat: tg.Strat, Est: tg.Est, Opts: tg.Opts,
		Tasks:     tg.Tasks[:len(tg.Tasks):len(tg.Tasks)],
		nextID:    tg.nextID,
		numDead:   tg.numDead,
		numSlots:  tg.numSlots,
		freeSlots: tg.freeSlots,
		fwd:       tg.fwd,
		bwd:       tg.bwd,
		extras:    tg.extras,
		edgeComm:  tg.edgeComm,
		adj:       tg.adj,
		shared:    true,
	}
}

// materialize privatizes a shared instance's mutable containers — the
// strategy, the slot free list, the per-op task groups, and the
// adjacency's slot-indexed arrays and row headers. Row *contents* are
// not copied here; they fault individually on first in-place write
// (Adj.removeIn/removeOut/resetRows). ReplaceConfig and Compact call
// this on entry, so a never-mutated instance costs a handful of words.
func (tg *TaskGraph) materialize() {
	if !tg.shared {
		return
	}
	tg.shared = false
	if tg.Strat != nil {
		tg.Strat = tg.Strat.Clone()
	}
	// freeSlots must be deep-copied, not capacity-pinned: the allocator
	// pops then pushes, and a push after a pop would overwrite backing
	// the base still reads.
	tg.freeSlots = append([]int(nil), tg.freeSlots...)
	tg.fwd = append([][]*Task(nil), tg.fwd...)
	tg.bwd = append([][]*Task(nil), tg.bwd...)
	tg.extras = append([][]*Task(nil), tg.extras...)
	ec := make(map[[2]int][]*Task, len(tg.edgeComm))
	for k, v := range tg.edgeComm {
		ec[k] = v
	}
	tg.edgeComm = ec
	a := &tg.adj
	a.ID = append([]int32(nil), a.ID...)
	a.Exe = append([]time.Duration(nil), a.Exe...)
	a.Key = append([]int32(nil), a.Key...)
	a.Task = append([]*Task(nil), a.Task...)
	a.In = append([][]int32(nil), a.In...)
	a.Out = append([][]int32(nil), a.Out...)
	a.inOwned = make([]bool, len(a.In))
	a.outOwned = make([]bool, len(a.Out))
}

// materializeAll is materialize plus an eager fault of every adjacency
// row — the old eager-copy Instance behaviour. It exists as a test
// hook: differential tests pin the lazy per-row fault path
// bit-identical against it.
func (tg *TaskGraph) materializeAll() {
	tg.materialize()
	a := &tg.adj
	if a.inOwned == nil {
		return // graph already owned every row (fresh Build)
	}
	for slot := range a.In {
		if !a.inOwned[slot] {
			a.In[slot] = append(make([]int32, 0, len(a.In[slot])), a.In[slot]...)
			a.inOwned[slot] = true
		}
		if !a.outOwned[slot] {
			a.Out[slot] = append(make([]int32, 0, len(a.Out[slot])), a.Out[slot]...)
			a.outOwned[slot] = true
		}
	}
}
