package core

import (
	"bytes"
	"fmt"

	"repro/internal/ast"
	"repro/internal/cfg"
	"repro/internal/procset"
	"repro/internal/sym"
)

// Test-only exports: the arrival-order permutation suite lives in the
// external core_test package (building real matchers needs the client
// packages, which import core), so the pieces it drives — the revision
// recording hook and a bare revision-replay harness — are surfaced here.

// WithForcedStall returns opts with the stall watchdog's progress reading
// pinned to zero: the converged run is held open until the watchdog fires,
// so it dumps exactly once. Requires StallTimeout > 0.
func WithForcedStall(opts Options) Options {
	opts.forceStall = true
	return opts
}

// WithoutBoundTable returns opts with the analysis memo's bound table
// turned off, so every bound is built as without a memo.
func WithoutBoundTable(opts Options) Options {
	opts.noBoundTable = true
	return opts
}

// Memo returns the analysis memo st belongs to (nil outside an analysis).
func Memo(st *State) *procset.Memo { return st.memo }

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
		opts: opts,
		in:   newInterner(),
		res:  &Result{},
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
			res := e.combine(trial, in, key)
			if !res.Top {
				res.CanonicalizeParams()
			}
			out = append(out, res)
		}
		e.reviseEntry(entry, st.Clone(), key)
	}
	return out
}

// Identity exposes the engine's binary state identity, encoded afresh.
func Identity(st *State) []byte { return st.appendIdentity(nil) }

// VarName is the constraint-graph name of program variable name read by
// set psID, as the translation resolves it.
func VarName(st *State, psID int, name string) string { return st.varAtom(psID, name).String() }

// AffineAt exposes the translation that resolves id on a range.
func AffineAt(st *State, ps *ProcSet, rng procset.Set, e ast.Expr) (Affine, bool) {
	return st.affineAt(ps, rng, e)
}

// HasResidual reports whether a form keeps a polynomial residual.
func HasResidual(a Affine) bool { return !a.res.IsZero() }

// EntailsLEAtom exposes the atom form of EntailsLE.
func EntailsLEAtom(st *State, l, r procset.Atom) bool { return st.entailsLEAtom(l, r) }

// AppendAtom and AppendExpr expose the identity encodings of a bound atom
// and of a polynomial.
func AppendAtom(b []byte, a procset.Atom) []byte { return appendAtom(b, a) }
func AppendExpr(b []byte, e sym.Expr) []byte     { return appendExpr(b, e) }

// BoundsRecorder runs the engine's rank-bounds recording, dedupe included,
// on a bare engine.
type BoundsRecorder struct{ e *engine }

func NewBoundsRecorder() *BoundsRecorder { return &BoundsRecorder{e: newReplayEngine(Options{})} }

// Record checks and records ps's observations as the engine does.
func (r *BoundsRecorder) Record(st *State, ps *ProcSet) { r.e.recordCommBounds(st, ps) }

// Observations returns the observations kept so far, in recording order.
func (r *BoundsRecorder) Observations() []CommBoundsObs { return r.e.res.CommBounds }

// ReplayEntries feeds states into a fresh table entry as ReplayRevisions
// does and calls visit with the entry state after the first delivery and
// after every revision that changed it: the states the engine steps, in
// place, before the next delivery. Input states are cloned, never
// consumed.
func ReplayEntries(opts Options, key string, states []*State, visit func(*State)) {
	e := newReplayEngine(opts)
	entry := &tableEntry{st: states[0].Clone()}
	visit(entry.st)
	for _, st := range states[1:] {
		if e.reviseEntry(entry, st.Clone(), key) {
			visit(entry.st)
		}
	}
}

// Delivery is one successor state the engine delivered to its table, with
// its shape key, as the revision hook observes it.
type Delivery struct {
	Key string
	St  *State
}

// FilterDecision is one delivery the duplicate filter judged in a replay:
// the identities of the incoming state and of the entry before the
// revision, whether the filter dropped the delivery (the entry's seen
// chain did not grow), and the identity of the entry after a revision
// that changed it to a non-⊤ state (nil otherwise).
type FilterDecision struct {
	Key                        string
	Incoming, Entry, Committed []byte
	Dropped                    bool
}

// ReplayFilter replays a run's deliveries, in order, into the table of one
// bare engine, so the seen chains of all entries share its seen log as in
// the run: a key's first delivery creates its entry, the rest go through
// reviseEntry. It reports every delivery the filter judged (neither the
// entry nor the incoming state ⊤). The entry's identity is taken as
// reviseEntry takes it, recording it on the chain if need be, before the
// chain's head is noted. Input states are cloned, never consumed.
func ReplayFilter(opts Options, dels []Delivery) []FilterDecision {
	var out []FilterDecision
	replayDeliveries(opts, dels, func(e *engine, entry *tableEntry, st *State, key string) {
		if entry.st.Top || st.Top {
			e.reviseEntry(entry, st, key)
			return
		}
		fd := FilterDecision{Key: key, Incoming: st.appendIdentity(nil), Entry: bytes.Clone(e.entryIdentity(entry))}
		head := entry.seen
		changed := e.reviseEntry(entry, st, key)
		fd.Dropped = entry.seen == head
		if changed && !entry.st.Top {
			fd.Committed = entry.st.appendIdentity(nil)
		}
		out = append(out, fd)
	})
	return out
}

// StaleEntryRecords replays a run's deliveries as ReplayFilter does and
// checks, after every revision, that an entry which points at a record of
// its identity (tableEntry.cur) holds exactly that identity. It returns
// how many revisions left such a record and a description of the first
// stale one ("" when none is).
func StaleEntryRecords(opts Options, dels []Delivery) (checked int, stale string) {
	replayDeliveries(opts, dels, func(e *engine, entry *tableEntry, st *State, key string) {
		e.reviseEntry(entry, st, key)
		if entry.cur.chunk == 0 {
			return
		}
		checked++
		if stale == "" && !bytes.Equal(e.seen.at(entry.cur), entry.st.appendIdentity(nil)) {
			stale = fmt.Sprintf("revision %d at %s: the entry's identity record is stale", checked, key)
		}
	})
	return checked, stale
}

// replayDeliveries feeds clones of dels into the table of one bare engine:
// a key's first delivery creates its entry, and revise handles the rest.
func replayDeliveries(opts Options, dels []Delivery, revise func(e *engine, entry *tableEntry, st *State, key string)) {
	e := newReplayEngine(opts)
	entries := map[string]*tableEntry{}
	for _, d := range dels {
		st := d.St.Clone()
		if entry := entries[d.Key]; entry != nil {
			revise(e, entry, st, d.Key)
		} else {
			entries[d.Key] = e.newEntry(st)
		}
	}
}

// Stepper steps states as the engine steps a table entry, on a bare engine
// over one CFG.
type Stepper struct{ e *engine }

// NewStepper returns a Stepper over g; opts must carry the Matcher.
func NewStepper(g *cfg.Graph, opts Options) *Stepper {
	e := newReplayEngine(opts)
	e.g = g
	e.visited = make([]bool, len(g.Nodes))
	e.descs = make([]string, len(g.Nodes))
	e.branches = make([]string, len(g.Nodes))
	return &Stepper{e}
}

// Step steps st itself and returns its successors. ⊤ and all-at-exit
// states are not stepped, as process leaves them for finish (nil).
func (s *Stepper) Step(st *State) []*State {
	if st.Top || s.e.allAtExit(st) {
		return nil
	}
	var out []*State
	succs, _ := s.e.step(st, "")
	for _, sa := range succs {
		out = append(out, sa.st)
	}
	return out
}
