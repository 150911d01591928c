// Package sim implements the execution simulator of Section 5: given a
// task graph it predicts the execution timeline of one training
// iteration under the paper's assumptions (A1-A4): predictable task
// times, fully-utilizable connection bandwidth, FIFO scheduling per
// device, and negligible runtime overhead.
//
// Both simulation algorithms are provided:
//
//   - Simulate (the full algorithm, Section 5.2) builds the timeline
//     from scratch, processing tasks in ready-time order like Dijkstra's
//     algorithm.
//   - ApplyDelta (the delta algorithm, Section 5.3) starts from the
//     previous timeline and re-simulates only the tasks affected by a
//     single operation's configuration change, propagating updates like
//     Bellman-Ford.
//
// Both produce the identical, deterministic timeline: per-resource
// execution order is the total order (readyTime, taskID), which the
// engine maintains as a fixpoint. The differential tests in this package
// assert full/delta equality over randomized mutation sequences.
//
// # Representation
//
// The hot loops never chase Task pointers: they sweep the graph's
// slot-indexed flat adjacency view (taskgraph.Adj) — int32 slot rows
// packed into one CSR-style backing array — and identify tasks by
// (slot, id) pairs. A slot whose current ID differs from a reference's
// recorded id belongs to a removed task (the slot may already be
// recycled by a new one), which makes liveness a single array compare.
//
// Per-task timing state lives in fixed-size pages (pageSize tstates
// each) addressed by slot, with per-page copy-on-write ownership: a
// CloneFor copies only the page table and the per-resource timeline
// headers, and a page or timeline row is physically copied the first
// time the clone writes it. All reads go through rd, all writes through
// wr (which faults the page private first) — a pointer obtained from rd
// must never be written through, and must not be held across a call
// that may write (the page backing it may be replaced by a fault).
//
// # Ownership
//
// The task graph is structure, the State is state: Simulate and
// ApplyDelta never write into tasks — every mutable value (ready/start/
// end times, per-resource timelines, scheduling scratch, the work queue)
// lives in the State's own pages, indexed by Task.Slot. A frozen
// taskgraph.Plan base can therefore be simulated by any number of
// goroutines concurrently, each with its own State.
//
// A State itself is owned by exactly one goroutine; it is not safe for
// concurrent use and is never locked — with one deliberate exception:
// CloneFor only reads the source and marks it sealed (an atomic flag),
// so any number of chains may clone one base concurrently. Sealing
// records that the source's pages are now shared; if the source is
// later mutated (Simulate/ApplyDelta), it first drops ownership of
// everything it shared, so its own writes fault private copies and the
// clones' view is never disturbed.
//
// When a State is attached to a mutable graph, every ReplaceConfig must
// be followed by ApplyDelta (or a full Simulate) before the next
// ReplaceConfig: slots of removed tasks are recycled, and ApplyDelta is
// the point where the State retires its references to them.
package sim

import (
	"fmt"
	"math/bits"
	"sync/atomic"
	"time"

	"flexflow/internal/taskgraph"
)

// tstate is one task's mutable simulation state, indexed by Task.Slot.
type tstate struct {
	// ready/start/end are the task's current timeline values.
	ready, start, end time.Duration
	// key dedups work-queue entries together with queued: a live queue
	// entry exists for the task at ready time key, so re-pushing at an
	// unchanged ready time is a no-op.
	key time.Duration
	// pos is the task's index in its resource's execution order
	// (-1 when unscheduled).
	pos int32
	// pending counts unevaluated predecessors: the engine defers a
	// task's first evaluation until all inputs have been evaluated,
	// like Algorithm 1's NOTREADY/READY states.
	pending int32
	// done marks tasks that have been evaluated at least once.
	done   bool
	queued bool
	// stale marks a pending task whose ready — accumulated as the max
	// end of its inputs as they are first evaluated — missed a later
	// change to one of those ends; it is recomputed from the inputs on
	// release.
	stale bool
}

// Timing pages: slot s lives in pages[s>>pageShift][s&pageMask]. 512
// tstates is ~24KB per page — big enough that a 100k-slot graph is a
// ~200-entry page table (so CloneFor is cheap), small enough that a
// delta touching a handful of tasks faults only a few KB.
const (
	pageShift = 9
	pageSize  = 1 << pageShift
	pageMask  = pageSize - 1
)

// ref identifies a task as it was when scheduled: its slot plus the ID
// the slot held. Slots of removed tasks are recycled, so a ref whose id
// no longer matches Adj.ID[slot] is dead — an O(1) liveness test with
// no pointer chase.
type ref struct {
	slot, id int32
}

// State is a simulation state: per-resource execution timelines plus
// the per-task timing pages, all owned by the state (the task graph is
// never written).
type State struct {
	TG *taskgraph.TaskGraph

	numDevices int
	res        [][]ref // resource ID -> execution order
	Makespan   time.Duration

	// Stats counts engine work for the Table 4 style comparisons.
	Stats Stats

	// FixpointBudget, when positive, caps the number of evaluations
	// ApplyDelta's incremental fixpoint may perform before falling back
	// to a full simulation. Zero means the automatic budget. It is a
	// test hook for exercising the fallback path; it never applies to
	// Simulate itself (the fallback must always be allowed to finish).
	FixpointBudget int

	adj *taskgraph.Adj
	pq  workQueue

	// pages is the paged per-slot timing store; pageOwned tracks
	// copy-on-write ownership per page (nil means the state owns every
	// page — the root-state fast path). resOwned is the same for the
	// res timeline rows. sealed is set (atomically — CloneFor runs
	// concurrently) when a clone shares our backing; the next mutation
	// drops ownership of everything first (privatize). Pages are
	// fixed-size arrays behind pointers: the slot&pageMask index needs
	// no bounds check and the page table is one word per page.
	pages     []*[pageSize]tstate
	pageOwned []bool
	resOwned  []bool
	sealed    atomic.Bool
	// unowned counts the false entries of pageOwned. When the last
	// shared page faults private the table is dropped (nil), so wr
	// skips the ownership check until the next seal.
	unowned int

	scratch []int32 // reused affected-slot buffer for ApplyDelta
}

// Stats counts simulator work.
type Stats struct {
	FullSims  int
	DeltaSims int
	// Pops is the number of task (re)evaluations performed.
	Pops int64
	// SuffixTasks accumulates the size of every ApplyDelta affected set:
	// the truncated-suffix tasks plus the added tasks each delta
	// re-evaluated; divided by DeltaSims it says how much of the graph a
	// proposal really touches. Full simulations (including
	// fixpoint-budget fallbacks) do not count here; they are visible in
	// FullSims/Fallbacks.
	SuffixTasks int64
	// Fallbacks counts delta simulations that exceeded the fixpoint
	// budget and were redone from scratch (should stay at/near zero).
	Fallbacks int
	// Rebases counts work-queue pushes below the queue's floor (the last
	// popped ready time), each of which re-placed the whole queue (see
	// workQueue). Zero on every measured workload; a growing count means
	// the monotone queue is paying O(queue) per push there.
	Rebases int64
}

// NewState creates a simulation state for the task graph. Call Simulate
// to populate the timeline.
func NewState(tg *taskgraph.TaskGraph) *State {
	s := &State{
		TG:         tg,
		numDevices: tg.Topo.NumDevices(),
		res:        make([][]ref, tg.Topo.NumDevices()+len(tg.Topo.Links)),
		adj:        tg.Adj(),
	}
	s.growPages(tg.NumSlots())
	return s
}

// growPages extends the page table to cover n slots. New pages are
// always owned (freshly allocated, shared with nobody).
func (s *State) growPages(n int) {
	need := (n + pageMask) >> pageShift
	for len(s.pages) < need {
		s.pages = append(s.pages, new([pageSize]tstate))
		if s.pageOwned != nil {
			s.pageOwned = append(s.pageOwned, true)
		}
	}
}

// rd returns the slot's timing state for reading. The pointer must not
// be written through, and must not be held across any call that may
// write timing state (a copy-on-write fault replaces the whole page).
func (s *State) rd(slot int32) *tstate {
	return &s.pages[slot>>pageShift][slot&pageMask]
}

// wr returns the slot's timing state for writing, faulting the page
// private first if it is still shared with the clone source. Within one
// Simulate/ApplyDelta run a wr pointer stays valid (a page faults at
// most once, on its first write).
func (s *State) wr(slot int32) *tstate {
	p := slot >> pageShift
	if s.pageOwned != nil && !s.pageOwned[p] {
		s.faultPage(p)
	}
	return &s.pages[p][slot&pageMask]
}

func (s *State) faultPage(p int32) {
	fresh := *s.pages[p]
	s.pages[p] = &fresh
	s.pageOwned[p] = true
	if s.unowned--; s.unowned == 0 {
		s.pageOwned = nil
	}
}

// orderW returns a resource's execution order for in-place writing,
// copying it private first if the row is still shared.
func (s *State) orderW(key int32) []ref {
	if s.resOwned != nil && !s.resOwned[key] {
		shared := s.res[key]
		s.res[key] = append(make([]ref, 0, len(shared)+8), shared...)
		s.resOwned[key] = true
	}
	return s.res[key]
}

// privatize runs at the top of every mutation: if the state was sealed
// by CloneFor, its pages and timeline rows are shared with the clones,
// so ownership of everything is dropped — subsequent writes fault
// private copies and the clones keep their frozen view.
func (s *State) privatize() {
	if !s.sealed.Load() {
		return
	}
	s.sealed.Store(false)
	if s.pageOwned == nil {
		s.pageOwned = make([]bool, len(s.pages))
	} else {
		clear(s.pageOwned)
	}
	s.unowned = len(s.pages)
	if s.resOwned == nil {
		s.resOwned = make([]bool, len(s.res))
	} else {
		clear(s.resOwned)
	}
	for i, o := range s.res {
		s.res[i] = o[:len(o):len(o)] // pin caps: appends must reallocate
	}
}

// CloneFor returns an independent copy of the state rebound to tg,
// which must hold the same live tasks (matching IDs and slots) as the
// state's own graph — i.e. an Instance of the same Plan, cloned before
// any divergent ReplaceConfig. Timelines, timing pages and Stats are
// all carried over, so the clone continues with ApplyDelta immediately,
// no re-Simulate needed. This is the cheap per-chain/per-worker setup
// path of the concurrent search runtime.
//
// The clone shares the source's timing pages and timeline rows
// copy-on-write: only the page table and row headers are copied here
// (a few KB at 100k tasks), and pages are physically copied one at a
// time as the clone writes them. CloneFor only reads the source (plus
// one atomic store sealing it), so concurrent clones of one base are
// safe; the source itself may be mutated afterwards — it unshares
// first — but not while other goroutines are still cloning it.
func (s *State) CloneFor(tg *taskgraph.TaskGraph) *State {
	s.sealed.Store(true)
	out := &State{
		TG:         tg,
		numDevices: s.numDevices,
		res:        make([][]ref, len(s.res)),
		resOwned:   make([]bool, len(s.res)),
		Makespan:   s.Makespan,
		Stats:      s.Stats,
		adj:        tg.Adj(),
		pages:      append([]*[pageSize]tstate(nil), s.pages...),
		pageOwned:  make([]bool, len(s.pages)),
		unowned:    len(s.pages),
	}
	for r, order := range s.res {
		out.res[r] = order[:len(order):len(order)]
	}
	if tg != s.TG {
		a, b := s.adj.ID, tg.Adj().ID
		if len(a) != len(b) {
			panic("sim: CloneFor target graph does not match the state's tasks")
		}
		// Instances share the Plan's ID backing until their first
		// divergent mutation, so identical backing proves identical
		// tasks in O(1); the element compare is the cold fallback.
		if len(a) > 0 && &a[0] != &b[0] {
			for i := range a {
				if a[i] != b[i] {
					panic("sim: CloneFor target graph does not match the state's tasks")
				}
			}
		}
	}
	return out
}

// Clone returns an independent copy of the state bound to the same task
// graph.
func (s *State) Clone() *State { return s.CloneFor(s.TG) }

// Times returns the task's (ready, start, end) from the last
// Simulate/ApplyDelta call.
func (s *State) Times(t *taskgraph.Task) (ready, start, end time.Duration) {
	st := s.rd(int32(t.Slot))
	return st.ready, st.start, st.end
}

// ensure rebinds the flat adjacency view and grows the timing pages to
// cover every slot the graph has allocated (ReplaceConfig can mint new
// slots when an op's task count grows past the previous peak).
func (s *State) ensure() {
	s.adj = s.TG.Adj()
	s.growPages(s.TG.NumSlots())
}

type workItem struct {
	ready    time.Duration
	id, slot int32
}

// workQueue is a monotone radix queue over (ready, id) — the fixpoint
// loop's priority queue. The loop pops items in non-decreasing ready
// order and almost every push is at or above the last popped ready
// (a released successor is ready no earlier than its input's end, a
// device successor no earlier than its predecessor in the (ready, id)
// order), so items are bucketed by how far their ready lies above that
// floor: bucket bits.Len64(ready^last) holds the items whose highest
// bit differing from last is bucket-1, and a bitmap marks the
// non-empty buckets. A pop from an empty bucket 0 finds the lowest
// non-empty bucket in one bit scan, moves last up to its minimum and
// re-places its items, all of which land in lower buckets — each item
// moves at most 63 times, in practice a few, against the log-depth
// sifts of a heap. Bucket 0 holds the items with ready == last, kept
// sorted by id, so pops follow the (ready, id) total order exactly and
// the schedule is the one any correct priority queue would produce.
//
// Monotonicity is an observation, not an invariant: when a task moves
// later in its resource order, removeFromOrder re-queues the device
// successor that slid into its old position at that successor's
// earlier ready. A push below last therefore re-bases the queue —
// every queued item is re-placed against the new floor, which is
// exact and O(queue length) — and is counted in Stats.Rebases, so a
// workload that breaks monotonicity shows up as a count, not only as
// lost time.
type workQueue struct {
	last time.Duration
	// mask bit i marks buckets[i] non-empty, for i >= 1; bucket 0 is
	// buckets[0][head:], sorted by id.
	mask    uint64
	head    int
	buckets [64][]workItem
	spill   []workItem // re-base scratch
}

func (q *workQueue) empty() bool {
	return q.mask == 0 && q.head == len(q.buckets[0])
}

// reset empties the queue and drops its floor to zero.
func (q *workQueue) reset() {
	q.buckets[0], q.head = q.buckets[0][:0], 0
	for m := q.mask; m != 0; m &= m - 1 {
		i := bits.TrailingZeros64(m)
		q.buckets[i] = q.buckets[i][:0]
	}
	q.mask, q.last = 0, 0
}

// place files an item with ready >= last into its bucket.
func (q *workQueue) place(it workItem) {
	i := bits.Len64(uint64(it.ready ^ q.last))
	if i > 0 {
		q.buckets[i] = append(q.buckets[i], it)
		q.mask |= 1 << i
		return
	}
	// Equal ready: keep bucket 0 sorted by id. Ids mostly arrive in
	// increasing order, so the append is the common case.
	b := q.buckets[0]
	n := len(b)
	if n == q.head || b[n-1].id < it.id {
		q.buckets[0] = append(b, it)
		return
	}
	lo, hi := q.head, n
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if b[mid].id < it.id {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	b = append(b, workItem{})
	copy(b[lo+1:], b[lo:])
	b[lo] = it
	q.buckets[0] = b
}

// push queues an item, reporting whether it fell below the floor and
// forced a re-base.
func (q *workQueue) push(it workItem) (rebased bool) {
	if it.ready >= q.last {
		q.place(it)
		return false
	}
	spill := append(q.spill[:0], q.buckets[0][q.head:]...)
	for m := q.mask; m != 0; m &= m - 1 {
		spill = append(spill, q.buckets[bits.TrailingZeros64(m)]...)
	}
	q.reset()
	q.last = it.ready
	q.place(it)
	for _, x := range spill {
		q.place(x)
	}
	q.spill = spill
	return true
}

// pop removes and returns the (ready, id)-minimal item; the queue must
// not be empty.
func (q *workQueue) pop() workItem {
	if q.head == len(q.buckets[0]) {
		q.buckets[0], q.head = q.buckets[0][:0], 0
		i := bits.TrailingZeros64(q.mask)
		src := q.buckets[i]
		m := src[0].ready
		for _, it := range src[1:] {
			if it.ready < m {
				m = it.ready
			}
		}
		// Every item of bucket i agrees with the new floor above bit
		// i-1, so re-placing lands them all in lower buckets and never
		// appends to src while it is being read.
		q.last = m
		q.buckets[i] = src[:0]
		q.mask &^= 1 << i
		for _, it := range src {
			q.place(it)
		}
	}
	it := q.buckets[0][q.head]
	q.head++
	return it
}

func (s *State) push(slot int32) {
	st := s.wr(slot)
	if st.queued && st.key == st.ready {
		return // identical entry already queued
	}
	st.queued = true
	st.key = st.ready
	if s.pq.push(workItem{ready: st.ready, id: s.adj.ID[slot], slot: slot}) {
		s.Stats.Rebases++
	}
}

// Simulate runs the full simulation algorithm: it clears all timing
// state and rebuilds the timeline from scratch, returning the makespan
// (the predicted per-iteration execution time). Tasks enter the ready
// queue only once all predecessors have been evaluated (Algorithm 1's
// NOTREADY -> READY transition), so each task is normally evaluated
// exactly once; re-evaluations only occur to repair ready-time ties.
func (s *State) Simulate() time.Duration {
	s.Stats.FullSims++
	s.privatize()
	s.ensure()
	// A full rebuild overwrites every live slot and every timeline, so
	// shared pages are replaced with fresh zero pages (no copy) and
	// shared timeline rows are dropped rather than copied. Everything is
	// then owned, so the ownership tables go until the next seal.
	for p, owned := range s.pageOwned {
		if !owned {
			s.pages[p] = new([pageSize]tstate)
		}
	}
	s.pageOwned, s.unowned = nil, 0
	for i := range s.res {
		if s.resOwned != nil && !s.resOwned[i] {
			s.res[i] = nil
		} else {
			s.res[i] = s.res[i][:0]
		}
	}
	s.resOwned = nil
	s.pq.reset()
	a := s.adj
	for slot := range a.ID {
		if a.ID[slot] < 0 {
			// Free slot (it may still be referenced by stale timeline
			// entries; those are skipped by the id check on pop).
			continue
		}
		st := s.rd(int32(slot)) // every page is owned here
		*st = tstate{pos: -1, pending: int32(len(a.In[slot]))}
		if st.pending == 0 {
			s.push(int32(slot))
		}
	}
	if !s.run(s.budget()) {
		panic("sim: full simulation exceeded its fixpoint budget")
	}
	s.finish()
	return s.Makespan
}

// ApplyDelta incorporates an incremental task-graph change (produced by
// TaskGraph.ReplaceConfig) into an existing timeline, re-simulating only
// the affected portion (Algorithm 2). It returns the new makespan.
//
// The affected portion is bounded in *time*: no removed task started and
// no added/touched task becomes ready before the earliest change point
// T0, and along any FIFO resource timeline start/end times are monotone,
// so every task completing by T0 keeps its exact slot. T0 is the
// earliest of the removed tasks' starts, the added chain heads' ready
// times and the touched tasks' starts and ready times. A touched task's
// ready term counts only when all its inputs are done: one fed by an
// added task is ready no earlier than some added chain head, which
// already bounds T0 (the added input's end has just been reset to 0,
// and reading it would pin T0 to the head of the timeline). The engine
// truncates each timeline at T0 and re-schedules only the suffixes plus
// the added tasks, evaluating each affected task once (plus tie
// repairs). If the fixpoint exceeds its budget (differential tests show
// it does not), it falls back to a full simulation, so the result is
// always exact.
//
// An affected task's ready time is accumulated rather than re-read at
// release: the pending-count pass seeds it with the latest end among
// its inputs that are already done, and evaluate raises it as each
// remaining input is first evaluated (see tstate.stale for the one case
// that falls back to re-reading the inputs).
//
// Truncation resets a task's scheduling state but keeps its previous
// ready/start/end values: when the re-evaluation converges to the same
// end time, the early-cutoff rule skips re-pushing already-scheduled
// successors, stopping the propagation wavefront at the first ring of
// unchanged tasks. Truncation's pending-gating is also why the suffix
// is re-evaluated once per task, Dijkstra-style: a dependency-driven
// variant that keeps survivors scheduled and relaxes changed ready
// times through the fixpoint was measured to evaluate hot aggregation
// points (weight updates, sync barriers) 20-30x each on tightly packed
// timelines — Bellman-Ford wave churn — and lost by two orders of
// magnitude at the 50k-task scale.
//
// Slot recycling note: an added task may occupy a removed task's slot.
// The loops below therefore read every removed task's state (the T0
// bound) before the added-task reset writes anything, and detect dead
// timeline entries by their recorded id (a dead entry's slot may hold
// a different live task, or no task at all).
func (s *State) ApplyDelta(cs taskgraph.ChangeSet) time.Duration {
	s.Stats.DeltaSims++
	s.privatize()
	s.ensure()
	s.pq.reset()
	a := s.adj
	const inf = time.Duration(1<<63 - 1)
	t0 := inf

	for _, t := range cs.Removed {
		st := s.rd(int32(t.Slot))
		if st.done && st.start < t0 {
			t0 = st.start
		}
	}
	for _, t := range cs.Added {
		*s.wr(int32(t.Slot)) = tstate{pos: -1}
	}
	for _, t := range cs.Added {
		// Chain heads (all predecessors already scheduled) bound the
		// earliest time an added task can perturb the schedule; deeper
		// added tasks are covered transitively.
		if r, n := s.settled(int32(t.Slot)); n == 0 && r < t0 {
			t0 = r
		}
	}
	for _, t := range cs.Touched {
		if st := s.rd(int32(t.Slot)); st.start < t0 {
			t0 = st.start
		}
		// The ready term only counts with every input done (see the
		// ApplyDelta doc comment).
		if r, n := s.settled(int32(t.Slot)); n == 0 && r < t0 {
			t0 = r
		}
	}
	if t0 == inf {
		// Nothing to do (e.g. a config replaced by an identical one).
		s.finish()
		return s.Makespan
	}

	// Truncate every resource timeline at T0: pop the suffix of tasks
	// that start at/after T0 or end after it (start and end are monotone
	// along a FIFO timeline), resetting them for re-scheduling. Dead
	// entries always fall in the suffix because no removed task started
	// before T0; their slots may already belong to new tasks, so their
	// state is never touched here.
	affected := s.scratch[:0]
	for r := range s.res {
		order := s.res[r]
		cut := len(order)
		for cut > 0 {
			e := order[cut-1]
			if a.ID[e.slot] != e.id {
				cut-- // removed task (slot possibly recycled)
				continue
			}
			st := s.rd(e.slot)
			if st.end > t0 || st.start >= t0 {
				cut--
				continue
			}
			break
		}
		if cut == len(order) {
			continue // untouched timeline: the row stays shared
		}
		for _, e := range order[cut:] {
			if a.ID[e.slot] != e.id {
				continue // removed; the slot's state is not ours to reset
			}
			st := s.wr(e.slot)
			st.pos = -1
			st.done = false
			affected = append(affected, e.slot)
		}
		// Shrinking writes nothing into the backing array, so a shared
		// row may stay shared: the first in-place write (insertOrdered /
		// removeFromOrder) copies the surviving prefix via orderW.
		s.res[r] = order[:cut]
	}
	for _, t := range cs.Added {
		affected = append(affected, int32(t.Slot))
	}
	s.scratch = affected
	s.Stats.SuffixTasks += int64(len(affected))

	// Pending counts over the affected set, with ready seeded from the
	// inputs that are already done (evaluate folds in the rest as they
	// resolve); seeds are tasks whose every input is done.
	for _, slot := range affected {
		r, n := s.settled(slot)
		st := s.wr(slot)
		st.ready, st.pending, st.stale = r, n, false
		if n == 0 {
			s.push(slot)
		}
	}
	budget := s.budget()
	if s.FixpointBudget > 0 {
		budget = int64(s.FixpointBudget)
	}
	if !s.run(budget) {
		s.Stats.Fallbacks++
		return s.Simulate()
	}
	// Unaffected tasks all end by t0, so the makespan is determined by
	// the re-scheduled suffix — no full scan needed.
	makespan := t0
	for _, slot := range affected {
		if e := s.rd(slot).end; e > makespan {
			makespan = e
		}
	}
	s.Makespan = makespan
	return s.Makespan
}

func (s *State) budget() int64 {
	n := int64(s.TG.Alive())
	return 200*n + 10000
}

// settled returns the latest end among a task's done inputs and the
// number of inputs not done yet; with none pending, ready is the task's
// ready time (inputs not yet done will re-trigger the task when they
// complete). Adjacency rows hold live tasks only, so no dead checks are
// needed.
func (s *State) settled(slot int32) (ready time.Duration, pending int32) {
	for _, p := range s.adj.In[slot] {
		if ps := s.rd(p); !ps.done {
			pending++
		} else if ps.end > ready {
			ready = ps.end
		}
	}
	return ready, pending
}

// run drains the work queue until fixpoint, processing tasks in
// (readyTime, taskID) order. Returns false if the budget is exhausted;
// partial work is still counted in Stats.Pops either way.
func (s *State) run(budget int64) bool {
	pops := int64(0)
	for !s.pq.empty() {
		it := s.pq.pop()
		if s.adj.ID[it.slot] != it.id {
			continue // task removed since it was queued
		}
		st := s.wr(it.slot)
		if !st.queued || it.ready != st.key {
			continue // stale queue entry (re-pushed or already handled)
		}
		st.queued = false
		pops++
		if pops > budget {
			s.Stats.Pops += pops
			return false
		}
		s.evaluate(it.slot)
	}
	s.Stats.Pops += pops
	return true
}

// evaluate recomputes one task's schedule slot and propagates changes.
func (s *State) evaluate(slot int32) {
	st := s.wr(slot)
	a := s.adj
	key := a.Key[slot]
	self := ref{slot: slot, id: a.ID[slot]}
	order := s.res[key]

	inList := st.pos >= 0
	moved := false
	if inList {
		// Reposition if the order key changed relative to neighbours.
		pos := int(st.pos)
		outOfPlace := (pos > 0 && !s.less(order[pos-1], self)) ||
			(pos+1 < len(order) && !s.less(self, order[pos+1]))
		if outOfPlace {
			if next, ok := s.removeFromOrder(slot); ok {
				s.push(next)
			}
			inList = false
			moved = true
		}
	}
	if !inList {
		s.insertOrdered(key, self)
	}
	order = s.res[key]

	var prevEnd time.Duration
	if st.pos > 0 {
		prevEnd = s.rd(order[st.pos-1].slot).end
	}
	start := st.ready
	if prevEnd > start {
		start = prevEnd
	}
	end := start + a.Exe[slot]
	first := !st.done
	st.done = true
	changed := end != st.end || moved
	if start == st.start && end == st.end && !moved && !first {
		return
	}
	st.start, st.end = start, end

	// The device successor's start depends on our end.
	if int(st.pos)+1 < len(order) {
		s.push(order[st.pos+1].slot)
	}
	if !changed && !first {
		return
	}
	for _, succ := range a.Out[slot] {
		ss := s.wr(succ)
		if !ss.done {
			if first {
				// Our first evaluation releases one of succ's pending
				// inputs and folds our end into its ready time; succ
				// enters the queue when the last one resolves.
				ss.pending--
				if end > ss.ready {
					ss.ready = end
				}
			} else {
				// We moved an end succ's ready already saw (a max that
				// cannot be undone): recompute it from the inputs on
				// release, or right away if succ is already queued.
				ss.stale = true
			}
			if ss.pending > 0 {
				continue
			}
			if ss.stale {
				ss.ready, _ = s.settled(succ)
				ss.stale = false
			}
			s.push(succ)
			continue
		}
		// succ was already evaluated (a surviving task downstream of a
		// delta change). Early cutoff: if our end time converged back to
		// the value succ last saw, its ready time cannot change on our
		// account — whoever does change re-pushes it themselves.
		if !changed {
			continue
		}
		if r, _ := s.settled(succ); r != ss.ready {
			ss.ready = r
			s.push(succ)
		}
	}
}

// less is the deterministic per-resource execution order: (ready, ID).
func (s *State) less(a, b ref) bool {
	ra, rb := s.rd(a.slot).ready, s.rd(b.slot).ready
	if ra != rb {
		return ra < rb
	}
	return a.id < b.id
}

// removeFromOrder deletes the task from its resource timeline and
// returns the slot of the task that moved into its place (its former
// successor), if any.
func (s *State) removeFromOrder(slot int32) (next int32, ok bool) {
	key := s.adj.Key[slot]
	order := s.orderW(key)
	pos := int(s.rd(slot).pos)
	copy(order[pos:], order[pos+1:])
	order = order[:len(order)-1]
	s.res[key] = order
	for i := pos; i < len(order); i++ {
		s.wr(order[i].slot).pos = int32(i)
	}
	s.wr(slot).pos = -1
	if pos < len(order) {
		return order[pos].slot, true
	}
	return 0, false
}

// insertOrdered inserts the task into its resource timeline at its
// sorted position by (Ready, ID). Fixpoint processing pops tasks in
// ready order, so during a rebuild almost every insert lands at the
// end of its timeline — that case is one comparison, no search.
func (s *State) insertOrdered(key int32, e ref) {
	order := s.orderW(key)
	lo, hi := 0, len(order)
	if n := len(order); n == 0 || s.less(order[n-1], e) {
		lo = n
	} else {
		for lo < hi {
			mid := (lo + hi) / 2
			if s.less(order[mid], e) {
				lo = mid + 1
			} else {
				hi = mid
			}
		}
	}
	order = append(order, ref{})
	copy(order[lo+1:], order[lo:])
	order[lo] = e
	s.res[key] = order
	for i := lo; i < len(order); i++ {
		s.wr(order[i].slot).pos = int32(i)
	}
}

// finish recomputes the makespan and verifies every live task was
// scheduled.
func (s *State) finish() {
	var makespan time.Duration
	a := s.adj
	for slot, id := range a.ID {
		if id < 0 {
			continue
		}
		st := s.rd(int32(slot))
		if st.pos < 0 {
			panic(fmt.Sprintf("sim: task %v never scheduled (cyclic task graph?)", a.Task[slot]))
		}
		if st.end > makespan {
			makespan = st.end
		}
	}
	s.Makespan = makespan
}

// Timeline returns the execution order of the given resource (device ID,
// or numDevices+linkID for links) as live tasks, in schedule order. The
// slice is freshly built on each call.
func (s *State) Timeline(resource int) []*taskgraph.Task {
	a := s.TG.Adj()
	order := s.res[resource]
	out := make([]*taskgraph.Task, 0, len(order))
	for _, e := range order {
		if a.ID[e.slot] == e.id {
			out = append(out, a.Task[e.slot])
		}
	}
	return out
}

// CriticalPathLowerBound returns the longest dependency-chain time
// ignoring resource contention — a lower bound any correct schedule must
// respect (used by invariant tests).
func CriticalPathLowerBound(tg *taskgraph.TaskGraph) time.Duration {
	a := tg.Adj()
	longest := make([]time.Duration, len(a.ID))
	seen := make([]bool, len(a.ID))
	var best time.Duration
	// Tasks were created in topological order of the DAG? Not
	// necessarily across ReplaceConfig calls, so DFS over the
	// adjacency rows instead.
	var visit func(slot int32) time.Duration
	visit = func(slot int32) time.Duration {
		if seen[slot] {
			return longest[slot]
		}
		seen[slot] = true // cycle guard; task graphs are DAGs
		var in time.Duration
		for _, p := range a.In[slot] {
			if d := visit(p); d > in {
				in = d
			}
		}
		longest[slot] = in + a.Exe[slot]
		return longest[slot]
	}
	for slot := range a.ID {
		if a.ID[slot] < 0 {
			continue
		}
		if d := visit(int32(slot)); d > best {
			best = d
		}
	}
	return best
}

// SerialUpperBound returns the sum of all task times — the time a
// single resource executing everything serially would need; any
// schedule's makespan is at most this.
func SerialUpperBound(tg *taskgraph.TaskGraph) time.Duration {
	var sum time.Duration
	for _, t := range tg.Tasks {
		if tg.Live(t) {
			sum += t.Exe
		}
	}
	return sum
}
