package core

// Test-only exports: the arrival-order permutation suite lives in the
// external core_test package (building real matchers needs the client
// packages, which import core), so the pieces it drives — the revision
// recording hook and a bare revision-replay harness — are surfaced here.

// WithRevisionHook returns opts with the engine's revision recording hook
// installed: fn observes a private clone of every canonicalized successor
// state delivered to the configuration table, keyed by shape.
func WithRevisionHook(opts Options, fn func(key string, st *State)) Options {
	opts.onRevision = fn
	return opts
}

// ReplayResult is the outcome of replaying one key's revision stream into
// a fresh table entry: the converged state's identity and the ladder
// counters the determinism invariant promises are arrival-order
// independent.
type ReplayResult struct {
	FullKey string
	// ResolvedKey is FullKey after the finish()-style helper resolution and
	// projection — the representation the engine actually promises is
	// arrival-order independent (raw FullKey may carry redundant bound
	// atoms naming the same value through different surviving helpers).
	ResolvedKey string
	Rev         int
	Widenings   int64
	Top         bool
	TopWhy      string
	// Terminal marks the configurations whose constraint block is part of
	// the determinism contract: ⊤ verdicts and all-at-exit states (what the
	// engine reports as finals). Intermediate configurations may carry
	// residual process-set aliasing constraints that record the particular
	// combine pairing order; those never surface in results, so only the
	// constraint-free portion of their key is order-invariant.
	Terminal bool
}

// ReplayRevisions feeds states into a fresh table entry exactly the way
// the engine does — the first creates the entry, the rest go through
// reviseEntry — and reports the converged entry. Input states are cloned,
// never consumed.
func ReplayRevisions(opts Options, key string, states []*State) ReplayResult {
	e := newReplayEngine(opts)
	entry := &tableEntry{st: states[0].Clone()}
	for _, st := range states[1:] {
		e.reviseEntry(entry, st.Clone(), key)
	}
	resolved := entry.st.Clone()
	resolved.ResolveHelpers()
	return ReplayResult{
		FullKey:     entry.st.FullKey(),
		ResolvedKey: resolved.FullKey(),
		Rev:         entry.rev,
		Widenings:   e.widenings.Load(),
		Top:         entry.st.Top,
		TopWhy:      entry.st.TopWhy,
		Terminal:    entry.st.Top || e.allAtExit(entry.st),
	}
}

// newReplayEngine is a bare engine with an empty table, for replays.
func newReplayEngine(opts Options) *engine {
	return &engine{
		opts:    opts,
		in:      newInterner(),
		res:     &Result{},
		obsSeen: map[string]bool{},
	}
}

// ReplayCombines replays states into a fresh table entry like
// ReplayRevisions and returns the combine result each later non-⊤ revision
// produces against the entry, canonicalized as reviseEntry canonicalizes
// it. Each combine runs on a copy of the entry, so the replay itself is
// undisturbed. Input states are cloned, never consumed.
func ReplayCombines(opts Options, key string, states []*State) []*State {
	e := newReplayEngine(opts)
	entry := &tableEntry{st: states[0].Clone()}
	var out []*State
	for _, st := range states[1:] {
		if !entry.st.Top && !st.Top {
			trial := &tableEntry{st: entry.st.Clone(), rev: entry.rev, widenParam: entry.widenParam}
			in := st.Clone()
			in.AlignTo(trial.st)
			res := e.combine(trial, in)
			if !res.Top {
				res.CanonicalizeParams()
			}
			out = append(out, res)
		}
		e.reviseEntry(entry, st.Clone(), key)
	}
	return out
}

// Identity exposes the engine's binary state identity.
func Identity(st *State) []byte { return st.identity() }

// DirtyKeys drops st's cached keys, so the next ShapeKey or Identity call
// rebuilds its key.
func DirtyKeys(st *State) { st.dirtyKeys() }

// BoundsObsKey exposes the rank-bounds observation dedupe key.
func BoundsObsKey(o CommBoundsObs) string { return boundsObsKey(o) }
