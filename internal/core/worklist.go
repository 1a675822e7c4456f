package core

import (
	"math/bits"
	"sync/atomic"

	"repro/internal/cg"
)

// worklistClasses is how many LIFO stacks the worklist spreads ids over.
const worklistClasses = 32

// Per-configuration worklist states. A configuration is idle (not queued,
// not being stepped), queued, running (being stepped), or running with a
// push that arrived during its step (dirty), which requeues it when the
// step is done.
const (
	cfgIdle uint8 = iota
	cfgQueued
	cfgRunning
	cfgRunningDirty
)

// worklist orders the configurations awaiting a (re)visit. Id id sits on
// the LIFO stack of class id % worklistClasses, and pop takes the top of
// the lowest non-empty class. That order is pinned: it is the visit order
// one-worker runs have always had, and replacing it with one plain stack
// changed steps, widenings, configurations or results on 246 of the 508
// benchmark programs.
//
// A push onto a queued configuration coalesces into its upcoming visit,
// which then sees every revision the entry received since it was queued.
// A push onto the configuration being stepped marks it dirty, and done
// requeues it on top of its class.
//
// One goroutine drives the worklist. queued and pending are atomics only
// because the progress sampler and the live metric gauges read them from
// another goroutine.
type worklist struct {
	stacks   [worklistClasses][]uint64
	nonEmpty uint32  // bit c is set when stacks[c] is non-empty
	state    []uint8 // per id, indexed by the dense interned id
	stopped  bool
	stats    *cg.Stats
	// queued counts configurations on the stacks; pending counts those
	// queued or running. The run has converged when pending is zero.
	queued, pending atomic.Int64
	// High-water marks of queued and pending, for the metrics gauges.
	depthHW, pendingHW int64
}

// push requests a (re)visit of configuration id. A stopped worklist drops
// it.
func (w *worklist) push(id uint64) {
	if w.stopped {
		return
	}
	for uint64(len(w.state)) <= id {
		w.state = append(w.state, cfgIdle)
	}
	switch w.state[id] {
	case cfgIdle:
		w.state[id] = cfgQueued
		w.enqueue(id)
		w.pendingHW = max(w.pendingHW, w.pending.Add(1))
	case cfgQueued, cfgRunningDirty:
		w.stats.AddSchedCoalesced(1)
	case cfgRunning:
		w.state[id] = cfgRunningDirty
	}
}

// enqueue puts id on top of its class stack.
func (w *worklist) enqueue(id uint64) {
	c := id % worklistClasses
	w.stacks[c] = append(w.stacks[c], id)
	w.nonEmpty |= 1 << c
	w.depthHW = max(w.depthHW, w.queued.Add(1))
}

// pop takes the next configuration to step and marks it running. ok is
// false once the fixpoint is reached or the run was stopped.
func (w *worklist) pop() (id uint64, ok bool) {
	if w.stopped || w.nonEmpty == 0 {
		return 0, false
	}
	c := bits.TrailingZeros32(w.nonEmpty)
	s := w.stacks[c]
	id = s[len(s)-1]
	w.stacks[c] = s[:len(s)-1]
	if len(s) == 1 {
		w.nonEmpty &^= 1 << c
	}
	w.queued.Add(-1)
	w.state[id] = cfgRunning
	return id, true
}

// done reports that the step of id finished: a configuration pushed during
// its step is requeued, any other goes idle.
func (w *worklist) done(id uint64) {
	if w.state[id] == cfgRunningDirty && !w.stopped {
		w.state[id] = cfgQueued
		w.enqueue(id)
		return
	}
	w.state[id] = cfgIdle
	w.pending.Add(-1)
}

// stop aborts the run (step budget exhausted): later pushes are dropped
// and pop reports no work.
func (w *worklist) stop() { w.stopped = true }
