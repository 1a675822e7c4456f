package core

import (
	"sync"
	"testing"

	"repro/internal/cg"
)

func TestInternerDenseIDs(t *testing.T) {
	in := newInterner()
	a := in.intern("alpha")
	b := in.intern("beta")
	if a != 0 || b != 1 {
		t.Fatalf("ids = %d, %d; want dense 0, 1", a, b)
	}
	if got := in.intern("alpha"); got != a {
		t.Fatalf("re-intern = %d, want %d", got, a)
	}
	if in.keyOf(b) != "beta" || in.size() != 2 {
		t.Fatalf("keyOf/size wrong: %q, %d", in.keyOf(b), in.size())
	}
}

func TestInternerConcurrent(t *testing.T) {
	in := newInterner()
	keys := []string{"a", "b", "c", "d", "e", "f", "g", "h"}
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				k := keys[i%len(keys)]
				if in.keyOf(in.intern(k)) != k {
					t.Error("intern/keyOf mismatch")
					return
				}
			}
		}()
	}
	wg.Wait()
	if in.size() != len(keys) {
		t.Fatalf("size = %d, want %d", in.size(), len(keys))
	}
}

func TestRingQueueFIFOAndCompaction(t *testing.T) {
	q := &ringQueue{}
	for i := uint64(0); i < 500; i++ {
		q.push(i)
		if i%2 == 1 { // drain in pairs to force head movement
			for j := i - 1; j <= i; j++ {
				got, ok := q.pop()
				if !ok || got != j {
					t.Fatalf("pop = %d,%v; want %d", got, ok, j)
				}
			}
		}
	}
	if q.size() != 0 {
		t.Fatalf("size = %d, want 0", q.size())
	}
	if len(q.buf) >= 500 {
		t.Fatalf("popped prefix retained: len(buf) = %d", len(q.buf))
	}
	if _, ok := q.pop(); ok {
		t.Fatal("pop on empty queue succeeded")
	}
}

func TestLIFOQueue(t *testing.T) {
	q := &lifoQueue{}
	q.push(1)
	q.push(2)
	q.push(3)
	for _, want := range []uint64{3, 2, 1} {
		got, ok := q.pop()
		if !ok || got != want {
			t.Fatalf("pop = %d,%v; want %d", got, ok, want)
		}
	}
}

func TestSchedulerCoalescesAndTerminates(t *testing.T) {
	s := newScheduler(ScheduleFIFO, 4, 2, nil)
	s.push(1)
	s.push(1) // coalesced: still queued
	id, ok := s.pop(0)
	if !ok || id != 1 {
		t.Fatalf("pop = %d,%v", id, ok)
	}
	s.push(1) // running: marks dirty
	s.done(1) // dirty: requeued
	id, ok = s.pop(0)
	if !ok || id != 1 {
		t.Fatalf("requeue pop = %d,%v", id, ok)
	}
	s.done(1)
	if _, ok := s.pop(0); ok {
		t.Fatal("pop after fixpoint should report done")
	}
}

// TestSchedulerStealsAcrossShards: ids 1,2,3 land on shards 1,2,3, so a
// worker homed on shard 0 must take all of them off other shards, then
// observe the fixpoint. Those pops count as steals only when another
// worker exists to steal from.
func TestSchedulerStealsAcrossShards(t *testing.T) {
	for _, c := range []struct{ workers, steals int }{{1, 0}, {2, 3}} {
		stats := &cg.Stats{}
		s := newScheduler(ScheduleFIFO, 4, c.workers, stats)
		s.pushShard(1, []uint64{1})
		s.pushShard(2, []uint64{2})
		s.pushShard(3, []uint64{3})
		seen := map[uint64]bool{}
		for i := 0; i < 3; i++ {
			id, ok := s.pop(0)
			if !ok {
				t.Fatalf("workers=%d: pop %d failed", c.workers, i)
			}
			seen[id] = true
			s.done(id)
		}
		if len(seen) != 3 {
			t.Fatalf("workers=%d: popped %d distinct ids, want 3", c.workers, len(seen))
		}
		if _, ok := s.pop(0); ok {
			t.Fatalf("workers=%d: pop after fixpoint should report done", c.workers)
		}
		if got := stats.SchedSteals(); got != int64(c.steals) {
			t.Errorf("workers=%d: steals = %d, want %d", c.workers, got, c.steals)
		}
	}
}

func TestSchedulerBatchPush(t *testing.T) {
	s := newScheduler(ScheduleFIFO, 2, 2, nil)
	// One batch of same-shard ids (shard 0 owns even ids with mask 1).
	s.pushShard(0, []uint64{0, 2, 4, 2}) // duplicate 2 coalesces
	if got := s.liveDepth(); got != 3 {
		t.Fatalf("liveDepth = %d, want 3", got)
	}
	for i := 0; i < 3; i++ {
		id, ok := s.pop(0)
		if !ok || id%2 != 0 {
			t.Fatalf("pop %d = %d,%v", i, id, ok)
		}
		s.done(id)
	}
	if _, ok := s.pop(0); ok {
		t.Fatal("pop after fixpoint should report done")
	}
}

func TestSchedulerStop(t *testing.T) {
	s := newScheduler(ScheduleFIFO, 4, 2, nil)
	s.push(7)
	s.stop()
	if _, ok := s.pop(0); ok {
		t.Fatal("pop after stop should fail")
	}
}
