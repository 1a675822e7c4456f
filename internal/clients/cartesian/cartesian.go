// Package cartesian implements the paper's Section VIII client analysis:
// send-receive matching over cartesian process topologies using
// Hierarchical Sequence Maps. It extends the Section VII symbolic matcher —
// simple var+c patterns are still matched by range arithmetic — with HSM
// proofs of surjectivity (set-equality) and identity (sequence-equality)
// for expressions built from +, -, *, / and % over the process rank, such
// as the NAS-CG transpose and d-dimensional nearest-neighbor stencils.
package cartesian

import (
	"fmt"
	"sort"
	"strings"
	"sync/atomic"

	"repro/internal/ast"
	"repro/internal/cg"
	"repro/internal/clients/symbolic"
	"repro/internal/core"
	"repro/internal/hsm"
	"repro/internal/obs"
	"repro/internal/procset"
	"repro/internal/sym"
)

// Matcher is the Section VIII client analysis. One analysis uses it from
// one goroutine; its counters stay readable from others (the progress
// sampler reads them mid-run).
type Matcher struct {
	simple symbolic.Matcher
	ctx    *hsm.Ctx
	prover *hsm.Prover

	// memo caches whole-set HSM match decisions. The HSM proof outcome is a
	// pure function of (identity HSMs, communication expressions, global
	// invariants): the conversions and prover searches never consult the
	// querying state's constraint graph. The identity HSMs are derived from
	// the sets' current ranges by idHSM, so the memo key is built after
	// idHSM succeeds and captures the ranges through the HSM keys; invFP
	// pins the invariants (fixed at construction).
	memo  core.MatchMemo
	invFP string
	// key is the buffer hsmDecision renders its memo keys into.
	key []byte

	// hsmMatches counts matches proved by HSM reasoning (instrumentation:
	// matches the simple client could not handle); hsmAttempts counts HSM
	// match attempts.
	hsmMatches  atomic.Int64
	hsmAttempts atomic.Int64
}

// HSMMatchCount reports matches proved by HSM reasoning.
func (m *Matcher) HSMMatchCount() int { return int(m.hsmMatches.Load()) }

// HSMAttemptCount reports HSM match attempts.
func (m *Matcher) HSMAttemptCount() int { return int(m.hsmAttempts.Load()) }

// New builds a cartesian matcher from the program's global invariants
// (collected with core.ScanInvariants): multiplicative equalities such as
// np = nrows*ncols become HSM normalization substitutions, and declared
// lower bounds discharge positivity side conditions.
func New(inv *core.Invariants) *Matcher {
	ctx := hsm.NewCtx()
	var fp []string
	for name, repl := range inv.Subst {
		ctx.WithInvariant(name, repl)
		fp = append(fp, name+"="+repl.Key())
	}
	for name, lb := range inv.LowerBounds {
		ctx.WithLowerBound(name, lb)
		fp = append(fp, fmt.Sprintf("%s>=%d", name, lb))
	}
	sort.Strings(fp)
	return &Matcher{ctx: ctx, prover: hsm.NewProver(ctx), invFP: strings.Join(fp, ",")}
}

// Prover exposes the underlying HSM prover (instrumentation).
func (m *Matcher) Prover() *hsm.Prover { return m.prover }

// ProverSearches reports the cumulative memo-missing prover searches.
// Safe to call concurrently with an in-flight analysis: the counter is an
// atomic. The engine's progress sampler reads it live (interface-asserted,
// so core needs no hsm dependency).
func (m *Matcher) ProverSearches() int64 { return m.prover.Searches.Load() }

// ProverSearchNs reports cumulative wall time inside memo-missing prover
// searches, in nanoseconds. Concurrency-safe like ProverSearches.
func (m *Matcher) ProverSearchNs() int64 { return m.prover.SearchNs.Load() }

// SetObs points the matcher's HSM prover at an analysis's observers:
// searches that miss the memo emit obs.PhaseProver spans on the prover lane
// of job pid and, with labels, run under the prover pprof label.
// core.Analyze calls it with the analysis's Tracer, TracePID and
// ProfileLabels before the fixpoint starts.
func (m *Matcher) SetObs(tr *obs.Tracer, pid int, labels bool) {
	m.prover.Tracer = tr
	m.prover.TracePID = pid
	m.prover.ProfileLabels = labels
}

// SimpleMatches reports how many matches the embedded Section VII matcher
// handled.
func (m *Matcher) SimpleMatches() int { return m.simple.MatchCount() }

// Memo exposes the match-decision cache (instrumentation).
func (m *Matcher) Memo() *core.MatchMemo { return &m.memo }

// hsmDecision runs the memoized surjectivity + identity proof for a
// whole-set match: send expression dest maps the set denoted by sIDH
// exactly onto the set denoted by rIDH, and composing the receive
// expression src with the send image is the identity on the senders.
func (m *Matcher) hsmDecision(sIDH, rIDH *hsm.HSM, dest, src ast.Expr) bool {
	// The key joins the invariants, both HSMs and both expressions with a
	// separator no rendering contains. It is rendered into the matcher's
	// buffer and becomes a string only when a decision is stored.
	key := append(m.key[:0], m.invFP...)
	key = sIDH.AppendKey(append(key, keySep))
	key = rIDH.AppendKey(append(key, keySep))
	key = ast.AppendExpr(append(key, keySep), dest)
	key = ast.AppendExpr(append(key, keySep), src)
	m.key = key
	if res, ok := m.memo.Lookup(key); ok {
		return res
	}
	res := func() bool {
		hd, err := m.ctx.Convert(dest, sIDH)
		if err != nil {
			return false
		}
		if !m.prover.SetEqual(hd, rIDH) {
			return false
		}
		comp, err := m.ctx.Convert(src, hd)
		if err != nil {
			return false
		}
		return m.prover.SeqEqual(comp, sIDH)
	}()
	m.memo.Store(key, res)
	return res
}

// keySep separates the parts of an HSM memo key.
const keySep = '\x1f'

// Match first tries the Section VII symbolic matcher; if the expressions
// are beyond var+c, it attempts a whole-set HSM match: the send expression
// must map the sender set onto exactly the receiver set (set-equality) and
// compose with the receive expression to the identity (sequence-equality).
func (m *Matcher) Match(st *core.State, sender *core.ProcSet, dest ast.Expr, receiver *core.ProcSet, src ast.Expr) (*core.MatchPlan, bool) {
	if plan, ok := m.simple.Match(st, sender, dest, receiver, src); ok {
		return plan, ok
	}
	m.hsmAttempts.Add(1)
	sIDH, ok := m.idHSM(sender)
	if !ok {
		return nil, false
	}
	rIDH, ok := m.idHSM(receiver)
	if !ok {
		return nil, false
	}
	// Surjectivity (the send expression's image is exactly the receiver
	// set) and identity (applying the receive expression to the send image
	// yields each sender back), served from the memo on repeat queries. The
	// plan is rebuilt from the current ranges: the cached decision covers
	// only the proof.
	if !m.hsmDecision(sIDH, rIDH, dest, src) {
		return nil, false
	}
	m.hsmMatches.Add(1)
	return &core.MatchPlan{
		SenderMatched: sender.Range,
		RecvMatched:   receiver.Range,
	}, true
}

// SelfMatch proves a whole-set permutation exchange: dest maps the set onto
// itself (set-equality) with src inverting it (sequence-equality of the
// composition with the identity map) — exactly the paper's Section VIII-B
// transpose proofs.
func (m *Matcher) SelfMatch(st *core.State, ps *core.ProcSet, dest, src ast.Expr) bool {
	if m.simple.SelfMatch(st, ps, dest, src) {
		return true
	}
	m.hsmAttempts.Add(1)
	idh, ok := m.idHSM(ps)
	if !ok {
		return false
	}
	if !m.hsmDecision(idh, idh, dest, src) {
		return false
	}
	m.hsmMatches.Add(1)
	return true
}

// idHSM builds the identity HSM [lb : n, 1] for a process set, requiring
// globally meaningful bounds (no per-set variables) and a provably
// non-empty range.
func (m *Matcher) idHSM(ps *core.ProcSet) (*hsm.HSM, bool) {
	lb, ok := globalAtom(ps.Range.LB)
	if !ok {
		return nil, false
	}
	ub, ok := globalAtom(ps.Range.UB)
	if !ok {
		return nil, false
	}
	n := sym.AddConst(sym.Sub(ub, lb), 1)
	if !m.ctx.ProvePos(n) {
		return nil, false
	}
	return hsm.IDRange(lb, n), true
}

// globalAtom picks a bound atom that references no per-set (ps-prefixed)
// variables, so it is meaningful in the HSM context's global namespace.
func globalAtom(b procset.Bound) (sym.Expr, bool) {
	for _, a := range b.Atoms() {
		if a.IsVarPlus() {
			if a.V == cg.AtomZero || !perSet(a.V.String()) {
				return a.Expr(), true
			}
			continue
		}
		e, global := a.Expr(), true
		for _, v := range e.Vars() {
			if perSet(v) {
				global = false
				break
			}
		}
		if global {
			return e, true
		}
	}
	return sym.Zero, false
}

// perSet reports whether v is a per-set (ps-prefixed) variable.
func perSet(v string) bool { return len(v) >= 2 && v[0] == 'p' && v[1] == 's' }

var _ core.Matcher = (*Matcher)(nil)
