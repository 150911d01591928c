package sim

import (
	"testing"
	"time"

	"flexflow/internal/config"
	"flexflow/internal/device"
)

// TestFallbackCountsPartialPops pins the Stats.Pops accounting on the
// fallback path: a delta fixpoint that exhausts its budget must still
// count the evaluations it performed before giving up (they are real
// work for the Table-4-style comparisons), on top of the full
// simulation it falls back to.
func TestFallbackCountsPartialPops(t *testing.T) {
	g := smallCNN()
	topo := device.NewSingleNode(4, "P100")
	tg, st := buildStrategySim(t, g, topo, config.DataParallel(g, topo))
	st.Simulate()

	op := g.ComputeOps()[1]
	cs := tg.ReplaceConfig(op.ID, config.OnDevice(op, 1))

	// A from-scratch simulation of the mutated graph: the ground-truth
	// makespan and the pop count of the fallback's inner Simulate.
	fresh := NewState(tg)
	want := fresh.Simulate()
	fullPops := fresh.Stats.Pops

	before := st.Stats.Pops
	st.FixpointBudget = 1
	got := st.ApplyDelta(cs)
	if st.Stats.Fallbacks != 1 {
		t.Fatalf("Fallbacks = %d, want 1", st.Stats.Fallbacks)
	}
	if got != want {
		t.Fatalf("fallback makespan %v != full %v", got, want)
	}
	// The budgeted run pops budget+1 tasks before bailing (the pop that
	// exceeds the budget is counted too — it was taken off the queue),
	// then the fallback Simulate runs unbudgeted (FixpointBudget never
	// applies to Simulate, or this very call would panic).
	if wantPops := before + 2 + fullPops; st.Stats.Pops != wantPops {
		t.Fatalf("Pops = %d, want %d (partial work dropped?)", st.Stats.Pops, wantPops)
	}

	// The state must be fully usable after a fallback: later deltas
	// still agree with from-scratch simulation.
	st.FixpointBudget = 0
	op2 := g.ComputeOps()[2]
	cs2 := tg.ReplaceConfig(op2.ID, config.OnDevice(op2, 2))
	got2 := st.ApplyDelta(cs2)
	if want2 := NewState(tg).Simulate(); got2 != want2 {
		t.Fatalf("post-fallback delta %v != full %v", got2, want2)
	}
	if st.Stats.Fallbacks != 1 {
		t.Fatalf("unbudgeted delta fell back: %+v", st.Stats)
	}
}

// TestRecycledSlotCrossesCut is the remove-then-add regression test for
// ApplyDelta's truncation loop: a removed task's slot is immediately
// recycled by an added task, so the stale timeline entries crossing the
// T0 cut reference slots that now belong to different live tasks. The
// truncation must detect them by id and must not touch the recycled
// slot's (reset) state.
func TestRecycledSlotCrossesCut(t *testing.T) {
	g := smallCNN()
	topo := device.NewSingleNode(4, "P100")
	tg, st := buildStrategySim(t, g, topo, config.DataParallel(g, topo))
	st.Simulate()
	ops := g.ComputeOps()

	// Shrink one op from data-parallel to a single device: many tasks
	// die, and the rebuilt tasks reuse the freshly freed slots.
	cs := tg.ReplaceConfig(ops[1].ID, config.OnDevice(ops[1], 3))
	freed := map[int]bool{}
	for _, dead := range cs.Removed {
		freed[dead.Slot] = true
	}
	recycled := false
	for _, added := range cs.Added {
		if freed[added.Slot] {
			recycled = true
			break
		}
	}
	if !recycled {
		t.Fatal("test vacuous: no added task reuses a removed task's slot")
	}
	if got, want := st.ApplyDelta(cs), NewState(tg).Simulate(); got != want {
		t.Fatalf("delta %v != full %v after shrink", got, want)
	}

	// Grow a different op back across all devices: its new tasks reuse
	// slots freed by the first mutation, crossing resource timelines.
	cs2 := tg.ReplaceConfig(ops[2].ID, config.SampleParallel(ops[2], []int{0, 1, 2, 3}))
	reusedAcross := false
	for _, added := range cs2.Added {
		if freed[added.Slot] {
			reusedAcross = true
			break
		}
	}
	if got, want := st.ApplyDelta(cs2), NewState(tg).Simulate(); got != want {
		t.Fatalf("delta %v != full %v after regrow (reusedAcross=%v)", got, want, reusedAcross)
	}
	if st.Stats.Fallbacks != 0 {
		t.Fatalf("unexpected fallback: %+v", st.Stats)
	}
}

// TestStaleReadyRecomputedOnRelease constructs the case the release-time
// ready accumulation cannot handle on its own: an input whose end was
// already folded into a pending successor's ready is re-evaluated to a
// different end before the successor's last input resolves. A max
// cannot be undone, so the successor must be marked stale and its ready
// recomputed from its inputs on release. On the Figure 5 graph, t5:1
// waits on c3:1 and c3:2; c3:1's end is folded in at a wrong (later)
// value, then c3:1 is re-evaluated back to its true end while t5:1
// still waits on c3:2.
func TestStaleReadyRecomputedOnRelease(t *testing.T) {
	tg, tasks := figure5(t)
	st := NewState(tg)
	want := st.Simulate()
	wantTimes := timesSnapshot(st)
	a, b, succ := int32(tasks["c3:1"].Slot), int32(tasks["c3:2"].Slot), int32(tasks["t5:1"].Slot)
	trueReady, _ := st.settled(succ)

	wrong := st.rd(a).end + 10*time.Second
	st.wr(a).end = wrong
	st.wr(b).done = false
	s := st.wr(succ)
	s.done, s.pending, s.ready = false, 1, wrong
	st.pq.reset()

	st.evaluate(a) // a re-evaluation: !first, end moves back
	if s := st.rd(succ); !s.stale || s.queued {
		t.Fatalf("after re-evaluating c3:1: stale=%v queued=%v, want a stale, unreleased t5:1", s.stale, s.queued)
	}
	st.evaluate(b) // t5:1's last pending input resolves
	if s := st.rd(succ); s.stale || !s.queued || s.ready != trueReady {
		t.Fatalf("on release: stale=%v queued=%v ready=%v, want ready recomputed to %v", s.stale, s.queued, s.ready, trueReady)
	}
	if !st.run(st.budget()) {
		t.Fatal("fixpoint exceeded its budget")
	}
	st.finish()
	if st.Makespan != want || !timesEqual(timesSnapshot(st), wantTimes) {
		t.Fatalf("repaired timeline differs from the full simulation (makespan %v, want %v)", st.Makespan, want)
	}
}

// TestMovedTaskRebasesQueue constructs the one known source of a
// non-monotone push: a task whose ready time grows moves later in its
// resource order, and removeFromOrder re-queues the device successor
// that slid into its old position at that successor's own, earlier
// ready. The push falls below the last popped ready, so the work queue
// must re-base (counted in Stats.Rebases) and still pop that successor
// first.
func TestMovedTaskRebasesQueue(t *testing.T) {
	tg, tasks := figure5(t)
	st := NewState(tg)
	st.Simulate()
	// GPU0 runs t1:1, t1:2, t2:1, t2:2, all ready at 0. Make t1:1 ready
	// at 3s and pop it, as the fixpoint loop would.
	moved, next := int32(tasks["t1:1"].Slot), int32(tasks["t1:2"].Slot)
	st.pq.reset()
	st.wr(moved).ready = 3 * time.Second
	st.push(moved)
	if it := st.pq.pop(); it.slot != moved {
		t.Fatalf("popped slot %d, want t1:1", it.slot)
	}
	st.wr(moved).queued = false
	rebases := st.Stats.Rebases

	st.evaluate(moved)
	if got := st.Stats.Rebases - rebases; got != 1 {
		t.Fatalf("Rebases grew by %d, want 1", got)
	}
	if it := st.pq.pop(); it.slot != next || it.ready != 0 {
		t.Fatalf("first pop after the re-base: %+v, want t1:2 at ready 0", it)
	}
	if pos := st.rd(moved).pos; pos != 3 {
		t.Fatalf("t1:1 at position %d of GPU0, want last (3)", pos)
	}
}
