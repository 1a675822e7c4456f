package core

import "repro/internal/obs"

// Fixpoint iteration: one worklist loop on the calling goroutine.
//
// The loop pops a configuration id off the worklist, steps its table
// entry in place, and commits the successors back in step order. The
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
// entries (Top or all-at-exit) are left for finish() to classify. The step
// span opens only once the step counts towards Result.Steps, so the trace
// and the result agree; it closes after the commit, charged to the stepped
// node with the number of successors the step spawned.
func (e *engine) process(id uint64) {
	fromKey := e.in.keyOf(id)
	entry := e.entry(id)
	if entry == nil || entry.st.Top || e.allAtExit(entry.st) {
		return
	}
	if e.steps.Add(1) > int64(e.opts.maxSteps()) {
		e.steps.Add(-1)
		e.budgetHit = true
		e.mark(obs.PhaseGiveup, -1, fromKey, "step budget exhausted")
		e.work.stop()
		return
	}
	sp := e.span(obs.PhaseStep, fromKey)
	succs, node := e.step(entry.st, fromKey)
	spawned := len(succs)
	preps, tops := e.prepare(fromKey, succs)
	e.commit(preps)
	// This step's give-up verdict replaces the previous step's.
	entry.stuckTops = tops
	sp.EndAt(node, int64(spawned), "")
}

// prepare readies a step's successors for commit: it drops unreachable
// ones, canonicalizes, renders the shape key, interns it, and records the
// pCFG edges. Give-up successors are returned separately, for the
// deferred commit. The prepared list is the engine's scratch, valid until
// the next prepare: commit consumes it first.
func (e *engine) prepare(fromKey string, succs []succ) (preps []prepSucc, tops []succ) {
	preps = e.preps[:0]
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
		csp := e.span(obs.PhaseCanon, fromKey)
		sa.st.CanonicalizeParams()
		// The key is rendered on the stack and looked up as bytes. Only a
		// configuration seen for the first time allocates its key; the
		// prepared successor and the edge share the interned string.
		var buf [64]byte
		b := sa.st.appendShapeKey(buf[:0])
		csp.End()
		isp := e.span(obs.PhaseInsert, "")
		id, key := e.in.internBytes(b)
		preps = append(preps, prepSucc{st: sa.st, action: sa.action, key: key, id: id})
		e.res.Edges = append(e.res.Edges, PCFGEdge{From: fromKey, To: key, Action: sa.action})
		isp.WithKey(key).End()
	}
	e.preps = preps
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
			e.setEntry(p.id, e.newEntry(p.st))
			if e.opts.Log != nil {
				e.logState("new configuration", p.key, p.st)
			}
		} else {
			changed = e.reviseEntry(entry, p.st, p.key)
		}
		if changed {
			csp.EndDetail("changed")
			e.work.push(p.id)
		} else {
			csp.EndDetail("unchanged")
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
