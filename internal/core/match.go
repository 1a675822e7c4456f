package core

import (
	"sync"

	"repro/internal/ast"
	"repro/internal/procset"
	"repro/internal/tri"
)

// MatchPlan describes the outcome of a successful send-receive match
// attempt: the matched sender and receiver sub-ranges and the leftover
// pieces that must remain blocked (the paper's split/release bookkeeping
// returned by matchSendsRecvs).
type MatchPlan struct {
	// SenderMatched is the sub-range of the sender set whose sends matched.
	SenderMatched procset.Set
	// SenderRests are the leftover sender pieces (possibly empty ranges,
	// filtered by the engine).
	SenderRests []procset.Set
	// RecvMatched is the receiver sub-range that matched.
	RecvMatched procset.Set
	// RecvRests are the leftover receiver pieces.
	RecvRests []procset.Set
}

// ShiftPlan matches senders whose partner is id + off with receivers whose
// partner is id - off: the image of the senders is their range shifted by
// off, and the matched receivers are the intersection of that image with
// the receivers. It returns nil when the match is not exact. A constant
// off converts to a shared sym.Const both ways.
func ShiftPlan(ctx procset.Ctx, senders, receivers procset.Set, off Affine) *MatchPlan {
	image := senders.OffsetExpr(ctx.Memo, off.Expr())
	if !image.IsValid() {
		return nil
	}
	inter, ok := procset.Intersect(ctx, image, receivers)
	// Matching must be exact (Section VI): the matched subset has to be
	// provably non-empty, otherwise the leftover ranges would not exactly
	// represent the remaining blocked processes. Ambiguous boundary cases
	// are resolved by the engine's emptiness case-split instead.
	if !ok || !inter.IsValid() || inter.Empty(ctx) != tri.False {
		return nil
	}
	matched := inter.OffsetExpr(ctx.Memo, off.Neg().Expr())
	if !matched.IsValid() {
		return nil
	}
	sRests, ok := procset.Subtract(ctx, senders, matched)
	if !ok {
		return nil
	}
	rRests, ok := procset.Subtract(ctx, receivers, inter)
	if !ok {
		return nil
	}
	return &MatchPlan{SenderMatched: matched, SenderRests: sRests, RecvMatched: inter, RecvRests: rRests}
}

// Matcher is the client-analysis interface of the framework (the underlined
// operations of Fig 4): it decides whether the communication expressions of
// two blocked process sets match, i.e. whether the send expression
// surjectively maps a sender subset onto a receiver subset with
// (recv ∘ send) the identity on the senders.
//
// Implementations: clients/symbolic (Section VII, var+c expressions) and
// clients/cartesian (Section VIII, HSM expressions over grids).
//
// One analysis calls its Matcher from one goroutine. Concurrent analyses
// (AnalyzeAll) each need their own Matcher.
type Matcher interface {
	// Match attempts to match the send facet of sender against the receive
	// facet of receiver. dest is sender's partner expression, src is
	// receiver's. Returns a plan on success.
	Match(st *State, sender *ProcSet, dest ast.Expr, receiver *ProcSet, src ast.Expr) (*MatchPlan, bool)
	// SelfMatch proves a whole-set permutation exchange: dest maps ps onto
	// itself bijectively and src inverts it (used for sendrecv and for
	// send-then-recv exchanges such as the NAS-CG transpose).
	SelfMatch(st *State, ps *ProcSet, dest, src ast.Expr) bool
}

// MatchMemo caches send-receive matching decisions. Repeated loop
// iterations and symmetric process-set splits pose the same matching query
// over and over; a client whose decision procedure is a pure function of a
// canonicalized query rendering (e.g. the cartesian client's HSM proofs,
// which depend only on the identity HSMs, the communication expressions and
// the program's global invariants) can answer from the memo instead of
// re-running the search. Only the boolean decision is cached — plans embed
// the querying state's concrete ranges and are rebuilt by the caller.
//
// The zero value is ready to use. Its methods lock a mutex because the
// progress sampler reads the hit/miss counters from another goroutine
// while the analysis runs. The critical section is a map probe — the
// decision procedure itself runs outside it.
type MatchMemo struct {
	mu      sync.Mutex
	hits    int
	misses  int
	entries map[string]bool
}

// Lookup returns the cached decision for the key rendered in key and
// whether one exists, maintaining the hit/miss counters. It allocates
// nothing: the key is looked up as bytes.
func (m *MatchMemo) Lookup(key []byte) (res, ok bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	res, ok = m.entries[string(key)]
	if ok {
		m.hits++
	} else {
		m.misses++
	}
	return res, ok
}

// Store records a decision for the key rendered in key, which it copies
// into a string.
func (m *MatchMemo) Store(key []byte, res bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.entries == nil {
		m.entries = map[string]bool{}
	}
	m.entries[string(key)] = res
}

// Len reports the number of cached decisions.
func (m *MatchMemo) Len() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return len(m.entries)
}

// HitCount reports queries answered from the memo.
func (m *MatchMemo) HitCount() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.hits
}

// MissCount reports queries that ran the underlying decision procedure.
func (m *MatchMemo) MissCount() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.misses
}

// HitRate reports the fraction of queries served from the memo.
func (m *MatchMemo) HitRate() float64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.hits+m.misses == 0 {
		return 0
	}
	return float64(m.hits) / float64(m.hits+m.misses)
}
