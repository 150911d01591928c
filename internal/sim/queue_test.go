package sim

import (
	"math/rand"
	"sort"
	"testing"
	"time"
)

// sortItems sorts by the engine's (ready, id) total order.
func sortItems(items []workItem) {
	sort.Slice(items, func(i, j int) bool {
		if items[i].ready != items[j].ready {
			return items[i].ready < items[j].ready
		}
		return items[i].id < items[j].id
	})
}

// TestWorkQueueMatchesSort is the queue differential: random push/pop
// sequences — mostly at or above the last popped ready, as the engine
// pushes, but with pushes below it (the re-base path), equal-ready
// pushes with smaller ids (bucket 0's ordered insert), ties and wide
// ready ranges mixed in — must pop exactly the order of a sort-based
// reference, and push must report a re-base exactly when an item falls
// below the queue's floor: the last popped ready, or a lower ready a
// re-base has since dropped it to.
func TestWorkQueueMatchesSort(t *testing.T) {
	for seed := int64(1); seed <= 200; seed++ {
		rng := rand.New(rand.NewSource(seed))
		var q workQueue
		var ref []workItem
		var last, floor time.Duration
		nextID := int32(1 << 20)
		spread := time.Duration(1) << uint(rng.Intn(40))
		for step := 0; step < 400; step++ {
			if len(ref) > 0 && rng.Intn(3) == 0 {
				sortItems(ref)
				want := ref[0]
				ref = ref[1:]
				if got := q.pop(); got != want {
					t.Fatalf("seed %d step %d: pop %+v, want %+v", seed, step, got, want)
				}
				last, floor = want.ready, want.ready
				continue
			}
			var ready time.Duration
			switch rng.Intn(8) {
			case 0: // below the last pop: forces a re-base
				if last > 0 {
					ready = time.Duration(rng.Int63n(int64(last)))
				}
			case 1, 2: // equal to the last pop, often with a smaller id
				ready = last
			default:
				ready = last + time.Duration(rng.Int63n(int64(spread)+1))
			}
			id := nextID
			if rng.Intn(2) == 0 {
				id = int32(rng.Intn(1 << 20))
			} else {
				nextID++
			}
			it := workItem{ready: ready, id: id, slot: id}
			ref = append(ref, it)
			if rebased := q.push(it); rebased != (ready < floor) {
				t.Fatalf("seed %d step %d: push at %v over floor %v reported rebase=%v", seed, step, ready, floor, rebased)
			}
			if ready < floor {
				floor = ready
			}
		}
		for len(ref) > 0 {
			sortItems(ref)
			if got := q.pop(); got != ref[0] {
				t.Fatalf("seed %d drain: pop %+v, want %+v", seed, got, ref[0])
			}
			ref = ref[1:]
		}
		if !q.empty() {
			t.Fatalf("seed %d: queue not empty after draining the reference", seed)
		}
	}
}

// TestWorkQueueReset pins reset: it drops every queued item and the
// floor, so a push after it never counts as a re-base.
func TestWorkQueueReset(t *testing.T) {
	var q workQueue
	for i := int32(0); i < 10; i++ {
		q.push(workItem{ready: time.Duration(1000 * (i + 1)), id: i})
	}
	q.push(workItem{ready: 5000, id: 99})
	if it := q.pop(); it.ready != 1000 {
		t.Fatalf("pop %+v, want ready 1000", it)
	}
	q.reset()
	if !q.empty() {
		t.Fatal("queue not empty after reset")
	}
	if q.push(workItem{ready: 1, id: 1}) {
		t.Fatal("push after reset re-based")
	}
	if it := q.pop(); it.ready != 1 || !q.empty() {
		t.Fatalf("pop %+v after reset, want the single pushed item", it)
	}
}
