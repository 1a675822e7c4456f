package core

import (
	"testing"

	"repro/internal/cg"
)

// The worklist's pop order is pinned, not incidental: replacing it with one
// plain stack changed steps, widenings, configurations or results on 246 of
// the 508 benchmark programs. These tests fix each rule of that order.

// popAll drains w, finishing each step at once, and returns the pop order.
func popAll(w *worklist) []uint64 {
	var out []uint64
	for {
		id, ok := w.pop()
		if !ok {
			return out
		}
		out = append(out, id)
		w.done(id)
	}
}

func equalIDs(a, b []uint64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// TestWorklistPopsLowestClassFirst: id sits in class id % 32, and the
// lowest non-empty class pops first, whatever the push order.
func TestWorklistPopsLowestClassFirst(t *testing.T) {
	w := &worklist{}
	for _, id := range []uint64{3, 31, 2, 64, 1} {
		w.push(id)
	}
	// Classes: 64 → 0, 1 → 1, 2 → 2, 3 → 3, 31 → 31.
	if got, want := popAll(w), []uint64{64, 1, 2, 3, 31}; !equalIDs(got, want) {
		t.Fatalf("pop order = %v, want %v", got, want)
	}
}

// TestLIFOQueue: within one class the last push pops first.
func TestLIFOQueue(t *testing.T) {
	w := &worklist{}
	for _, id := range []uint64{1, 33, 65} {
		w.push(id)
	}
	if got, want := popAll(w), []uint64{65, 33, 1}; !equalIDs(got, want) {
		t.Fatalf("pop order = %v, want %v", got, want)
	}
}

// TestSchedulerCoalescesAndTerminates: a push onto a queued id folds into
// the pending visit and is counted; the run converges when nothing is
// queued or running.
func TestSchedulerCoalescesAndTerminates(t *testing.T) {
	stats := &cg.Stats{}
	w := &worklist{stats: stats}
	w.push(1)
	w.push(1) // coalesced: still queued
	if got := stats.SchedCoalesced(); got != 1 {
		t.Fatalf("SchedCoalesced = %d, want 1", got)
	}
	if w.queued.Load() != 1 || w.pending.Load() != 1 {
		t.Fatalf("queued, pending = %d, %d; want 1, 1", w.queued.Load(), w.pending.Load())
	}
	id, ok := w.pop()
	if !ok || id != 1 {
		t.Fatalf("pop = %d,%v", id, ok)
	}
	w.push(1) // running: marks dirty
	w.push(1) // dirty: coalesced into the requeue
	w.done(1) // requeued
	if got := stats.SchedCoalesced(); got != 2 {
		t.Fatalf("SchedCoalesced = %d, want 2", got)
	}
	id, ok = w.pop()
	if !ok || id != 1 {
		t.Fatalf("requeue pop = %d,%v", id, ok)
	}
	w.done(1)
	if _, ok := w.pop(); ok {
		t.Fatal("pop after fixpoint should report done")
	}
	if w.queued.Load() != 0 || w.pending.Load() != 0 {
		t.Fatalf("queued, pending = %d, %d after the fixpoint", w.queued.Load(), w.pending.Load())
	}
	if w.depthHW != 1 || w.pendingHW != 1 {
		t.Fatalf("high-water marks = %d, %d; want 1, 1", w.depthHW, w.pendingHW)
	}
}

// TestSchedulerBatchPush: one step's successors are pushed in step order.
// A push onto the id being stepped requeues it after the step, on top of
// its class, above the successors pushed during the step.
func TestSchedulerBatchPush(t *testing.T) {
	w := &worklist{}
	w.push(1)
	if id, _ := w.pop(); id != 1 {
		t.Fatalf("pop = %d, want 1", id)
	}
	for _, id := range []uint64{33, 1, 2} { // 33 and 1 share class 1
		w.push(id)
	}
	w.done(1)
	if got, want := popAll(w), []uint64{1, 33, 2}; !equalIDs(got, want) {
		t.Fatalf("pop order = %v, want %v", got, want)
	}
}

// TestSchedulerStop: a stopped run pops nothing and drops later pushes.
func TestSchedulerStop(t *testing.T) {
	w := &worklist{}
	w.push(7)
	w.stop()
	w.push(8)
	if _, ok := w.pop(); ok {
		t.Fatal("pop after stop should fail")
	}
	if got := w.queued.Load(); got != 1 {
		t.Fatalf("queued = %d after a push onto a stopped run, want 1", got)
	}
}
