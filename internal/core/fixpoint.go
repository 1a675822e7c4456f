package core

import (
	"fmt"
	"runtime"
	"sync"

	"repro/internal/obs"
)

// The fixpoint driver: one worklist loop for every worker count.
//
// Options.Workers goroutines (one by default) pop configuration ids from
// the sharded scheduler, step a snapshot of the table entry, and commit
// the successors back. The scheduler folds a push onto a queued
// configuration into its upcoming visit and marks a configuration being
// stepped dirty, so it is revisited after the step: one step covers every
// revision its entry received since it was last stepped. With one worker
// the run is deterministic — ids are interned densely in first-insert
// order and pops follow the shard order — and it is the reference the
// multi-worker runs are checked against.
//
// With several workers the loop tolerates stale reads: stepping an
// outdated snapshot of a configuration produces successors that the
// join/widen ladder absorbs, and the dirty marking guarantees the
// configuration is revisited after any revision that raced with an
// in-flight step. The one successor kind the ladder cannot absorb is a
// give-up (⊤): once in the table it never goes away, so a ⊤ derived from a
// stale intermediate version would poison the result. Give-up successors
// are therefore deferred — recorded per-entry (tableEntry.stuckTops) and
// overwritten by each re-step — and committed only at convergence, from
// the final entry versions (engine.commitStuckTops). Combined with the
// state-derived revision counters driving the join→widen ladder
// (tableEntry.rev — arrival order cannot shift when widening or give-up
// fires), the deterministic finish() post-pass and parameter
// canonicalization (helper names are assigned by appearance order inside
// each state, not globally), the converged Finals, Tops and Matches aim to
// be independent of worker interleaving (DESIGN.md §12 names the residual
// order dependence in the widening chain's content).
//
// Successor commits are batched per shard: a step canonicalizes and
// interns all of its successors outside any lock, then revises the
// same-shard ones inside one table-shard critical section and hands the
// changed ids to the matching scheduler shard in one push critical
// section (process → commitBatch → scheduler.pushShard).

// run seeds the table with init, spawns the workers and blocks until the
// fixpoint is reached (scheduler pending count hits zero) or the step
// budget aborts the run.
func (e *engine) run(init *State, schedule string) {
	// Oversubscribing the machine buys nothing — extra workers just churn
	// through park/wake cycles on the scheduler condvar — so the pool is
	// clamped to GOMAXPROCS. The floor of 2 keeps a multi-worker request
	// genuinely concurrent even on a single-core host: the equivalence and
	// race suites rely on real interleavings.
	workers := e.opts.workers()
	if max := runtime.GOMAXPROCS(0); workers > max {
		if max < 2 {
			max = 2
		}
		workers = max
	}
	e.sched = newScheduler(schedule, len(e.shards), workers, e.stats())
	if reg := e.opts.Metrics; reg != nil {
		// Live scheduler gauges, evaluated at render time (for the -http
		// metrics listener; they settle to the final values once the run
		// converges).
		job := obs.Labels("job", fmt.Sprintf("%d", e.opts.TracePID))
		sched := e.sched
		reg.GaugeFuncVec("psdf_sched_queue_depth", "configurations currently queued", job,
			func() float64 { return float64(sched.liveDepth()) })
		reg.GaugeFuncVec("psdf_sched_pending", "configurations queued or running", job,
			func() float64 { return float64(sched.livePending()) })
	}
	e.registerProgress()
	seed, _ := e.prepare("", []succ{{st: init, action: "start"}}, 0)
	e.commitBatch(seed, 0)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		// Worker lanes are tids 1..Workers; tid 0 is the driver goroutine
		// (seed commit, finish post-pass and the caller's analyze span).
		// Home shards are spread evenly so workers drain disjoint queue
		// slices until they have to steal.
		home := w * len(e.shards) / workers
		go func(tid, home int) {
			defer wg.Done()
			e.withProfileLabels("fixpoint", tid, func() { e.workerLoop(tid, home) })
		}(w+1, home)
	}
	wg.Wait()
}

// workerLoop is one worker's drain loop: pop, step, repeat until the
// fixpoint is reached or the run is aborted.
func (e *engine) workerLoop(tid, home int) {
	for {
		dsp := e.span(tid, obs.PhaseDequeue, "")
		id, ok := e.sched.pop(home)
		dsp.End()
		if !ok {
			return
		}
		e.rec().Record("dequeue", e.opts.TracePID, tid, "", "")
		e.process(id, tid)
		e.sched.done(id)
	}
}

// prepSucc is a step successor prepared for a batched commit:
// canonicalized, keyed and interned outside any lock.
type prepSucc struct {
	st     *State
	action string
	key    string
	id     uint64
}

// process steps one configuration: snapshot the table state under its
// shard lock, release the lock, run the (expensive) transfer/matching step
// on the private snapshot, then commit the successors in per-shard
// batches. Terminal entries (Top or all-at-exit) are left for finish() to
// classify.
func (e *engine) process(id uint64, tid int) {
	fromKey := e.in.keyOf(id)
	sp := e.span(tid, obs.PhaseStep, fromKey)
	defer sp.End()
	sh := e.lockShard(id)
	entry := sh.m[id]
	var snap *State
	if entry != nil && !entry.st.Top && !e.allAtExit(entry.st) {
		snap = entry.st.Clone()
	}
	sh.mu.Unlock()
	if snap == nil {
		return
	}
	if e.steps.Add(1) > int64(e.opts.maxSteps()) {
		e.steps.Add(-1)
		e.budgetHit.Store(true)
		e.rec().Record("budget", e.opts.TracePID, tid, fromKey, "step budget exhausted")
		e.sched.stop()
		snap.Release()
		return
	}
	e.rec().Record("step", e.opts.TracePID, tid, fromKey, "")
	preps, tops := e.prepare(fromKey, e.step(snap, tid, fromKey), tid)
	// step always clones before returning successors, so the private
	// snapshot is dead here and its graph storage can go back to the arena.
	snap.Release()
	e.commitBatch(preps, tid)
	// Record this step's give-up verdict on the entry, replacing the
	// previous step's. The scheduler runs at most one step per id at a
	// time, so verdict writes for an id are ordered; a revision that races
	// with this step marks the id dirty, and the requeued re-step
	// overwrites the verdict derived from the stale snapshot.
	sh = e.lockShard(id)
	if entry := sh.m[id]; entry != nil {
		entry.stuckTops = tops
	}
	sh.mu.Unlock()
}

// prepare readies a step's successors for commitBatch outside any lock:
// it drops unreachable ones, canonicalizes, renders the shape key and
// interns it, and appends the pCFG edges under one resMu acquisition.
// Give-up successors are returned separately, for the deferred commit.
func (e *engine) prepare(fromKey string, succs []succ, tid int) (preps []prepSucc, tops []succ) {
	var edges []PCFGEdge
	for _, sa := range succs {
		if sa.st.Top {
			tops = append(tops, sa)
			continue
		}
		if len(sa.st.Sets) == 0 {
			// Unreachable configuration (inconsistent constraints): drop.
			sa.st.Release()
			continue
		}
		sa.st.CanonicalizeParams()
		key := sa.st.ShapeKey()
		isp := e.span(tid, obs.PhaseInsert, key)
		preps = append(preps, prepSucc{st: sa.st, action: sa.action, key: key, id: e.in.intern(key)})
		edges = append(edges, PCFGEdge{From: fromKey, To: key, Action: sa.action})
		isp.End()
	}
	if len(edges) > 0 {
		e.resMu.Lock()
		e.res.Edges = append(e.res.Edges, edges...)
		e.resMu.Unlock()
	}
	return preps, tops
}

// commitBatch merges a step's prepared successors into the table, one
// critical section per touched shard, then schedules the configurations
// that changed with one scheduler push per shard. Table shards and
// scheduler shards share the id mask, so each commit group maps to
// exactly one scheduler shard.
func (e *engine) commitBatch(preps []prepSucc, tid int) {
	if len(preps) == 0 {
		return
	}
	done := make([]bool, len(preps))
	var changed []uint64
	for i := range preps {
		if done[i] {
			continue
		}
		si := preps[i].id & e.shardMask
		changed = changed[:0]
		csp := e.span(tid, obs.PhaseCommit, preps[i].key)
		sh := e.lockShard(preps[i].id)
		for j := i; j < len(preps); j++ {
			if done[j] || preps[j].id&e.shardMask != si {
				continue
			}
			done[j] = true
			p := preps[j]
			if e.opts.onRevision != nil {
				e.opts.onRevision(p.key, p.st.Clone())
			}
			entry := sh.m[p.id]
			if entry == nil {
				sh.m[p.id] = &tableEntry{st: p.st}
				changed = append(changed, p.id)
				e.tracef("new    %-40s %s", p.key, p.st)
				continue
			}
			if e.reviseEntry(entry, p.st, p.key, tid) {
				changed = append(changed, p.id)
			}
		}
		saved := 0
		for j := i + 1; j < len(preps); j++ {
			if done[j] && preps[j].id&e.shardMask == si {
				saved++
			}
		}
		sh.mu.Unlock()
		csp.End()
		if saved > 0 {
			e.stats().AddBatchedSaved(int64(saved))
		}
		if rec := e.rec(); rec != nil {
			rec.Record("commit", e.opts.TracePID, tid, preps[i].key,
				fmt.Sprintf("shard=%d changed=%d", si, len(changed)))
		}
		e.sched.pushShard(si, changed)
	}
}

// lockShard locks the shard owning id, counting contended acquisitions.
func (e *engine) lockShard(id uint64) *tableShard {
	sh := e.shard(id)
	if !sh.mu.TryLock() {
		e.stats().AddShardContention(1)
		sh.mu.Lock()
	}
	return sh
}
