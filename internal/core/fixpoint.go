package core

import (
	"fmt"

	"repro/internal/obs"
)

// Fixpoint iteration: one worklist loop on the calling goroutine.
//
// The loop pops a configuration id off the worklist, steps a snapshot of
// its table entry, and commits the successors back in step order. The
// worklist folds a push onto a queued configuration into its upcoming
// visit and requeues a configuration pushed during its own step, so one
// step covers every revision its entry received since it was last
// stepped. The run is deterministic: ids are interned densely in
// first-insert order and the worklist's pop order depends on ids only.
//
// Give-up (⊤) successors are not committed during the run. They are
// recorded on their source entry (tableEntry.stuckTops), replaced by each
// re-step, and committed at convergence from the final entry versions
// (engine.commitStuckTops): a ⊤ once in the table never goes away, while
// a later revision of the source entry may step past the dead end.

// run seeds the table with init and steps configurations until the
// fixpoint is reached or the step budget stops the run.
func (e *engine) run(init *State) {
	e.work = &worklist{stats: e.stats()}
	if reg := e.opts.Metrics; reg != nil {
		// Live worklist gauges, evaluated at render time (for the -http
		// metrics listener; they settle to the final values once the run
		// converges).
		job := obs.Labels("job", fmt.Sprintf("%d", e.opts.TracePID))
		work := e.work
		reg.GaugeFuncVec("psdf_sched_queue_depth", "configurations currently queued", job,
			func() float64 { return float64(work.queued.Load()) })
		reg.GaugeFuncVec("psdf_sched_pending", "configurations queued or running", job,
			func() float64 { return float64(work.pending.Load()) })
	}
	e.registerProgress()
	seed, _ := e.prepare("", []succ{{st: init, action: "start"}})
	e.commit(seed)
	e.withProfileLabels("fixpoint", func() {
		for {
			dsp := e.span(obs.PhaseDequeue, "")
			id, ok := e.work.pop()
			dsp.End()
			if !ok {
				return
			}
			e.rec().Record("dequeue", e.opts.TracePID, 0, "", "")
			e.process(id)
			e.work.done(id)
		}
	})
}

// prepSucc is a step successor prepared for commit: canonicalized, keyed
// and interned.
type prepSucc struct {
	st     *State
	action string
	key    string
	id     uint64
}

// process steps one configuration and commits its successors. Terminal
// entries (Top or all-at-exit) are left for finish() to classify.
func (e *engine) process(id uint64) {
	fromKey := e.in.keyOf(id)
	sp := e.span(obs.PhaseStep, fromKey)
	defer sp.End()
	entry := e.entry(id)
	if entry == nil || entry.st.Top || e.allAtExit(entry.st) {
		return
	}
	if e.steps.Add(1) > int64(e.opts.maxSteps()) {
		e.steps.Add(-1)
		e.budgetHit = true
		e.rec().Record("budget", e.opts.TracePID, 0, fromKey, "step budget exhausted")
		e.work.stop()
		return
	}
	// Step a clone: step reorders and rewrites its input, and committing
	// the successors may revise this very entry.
	snap := entry.st.Clone()
	e.rec().Record("step", e.opts.TracePID, 0, fromKey, "")
	preps, tops := e.prepare(fromKey, e.step(snap, fromKey))
	// step always clones before returning successors, so the snapshot is
	// dead here and its graph storage can go back to the arena.
	snap.Release()
	e.commit(preps)
	// This step's give-up verdict replaces the previous step's.
	entry.stuckTops = tops
}

// prepare readies a step's successors for commit: it drops unreachable
// ones, canonicalizes, renders the shape key, interns it, and records the
// pCFG edges. Give-up successors are returned separately, for the
// deferred commit.
func (e *engine) prepare(fromKey string, succs []succ) (preps []prepSucc, tops []succ) {
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
		isp := e.span(obs.PhaseInsert, key)
		preps = append(preps, prepSucc{st: sa.st, action: sa.action, key: key, id: e.in.intern(key)})
		e.res.Edges = append(e.res.Edges, PCFGEdge{From: fromKey, To: key, Action: sa.action})
		isp.End()
	}
	return preps, tops
}

// commit merges a step's prepared successors into the table in step order
// and pushes every configuration that changed.
func (e *engine) commit(preps []prepSucc) {
	for _, p := range preps {
		csp := e.span(obs.PhaseCommit, p.key)
		if e.opts.onRevision != nil {
			e.opts.onRevision(p.key, p.st.Clone())
		}
		changed := true
		if entry := e.entry(p.id); entry == nil {
			e.setEntry(p.id, &tableEntry{st: p.st})
			if e.opts.Log != nil {
				e.logState("new configuration", p.key, p.st)
			}
		} else {
			changed = e.reviseEntry(entry, p.st, p.key)
		}
		csp.End()
		if rec := e.rec(); rec != nil {
			rec.Record("commit", e.opts.TracePID, 0, p.key, fmt.Sprintf("changed=%v", changed))
		}
		if changed {
			e.work.push(p.id)
		}
	}
}

// entry returns the table entry of configuration id, or nil.
func (e *engine) entry(id uint64) *tableEntry {
	if id < uint64(len(e.table)) {
		return e.table[id]
	}
	return nil
}

// setEntry installs the table entry of configuration id.
func (e *engine) setEntry(id uint64, entry *tableEntry) {
	for uint64(len(e.table)) <= id {
		e.table = append(e.table, nil)
	}
	e.table[id] = entry
}
