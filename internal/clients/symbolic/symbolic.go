// Package symbolic implements the paper's Section VII client analysis: the
// simple symbolic send-receive matcher for message expressions of the form
// var + c (including id + c and plain constants/variables), over process
// sets represented as symbolic ranges backed by constraint graphs.
//
// Matching implements the framework's two conditions (Section VI): the send
// expression surjectively maps the matched sender subset onto the matched
// receiver subset, and the composition of the receive and send expressions
// is the identity on the senders. For var+c expressions this reduces to
// range arithmetic decided by constraint-graph entailment.
package symbolic

import (
	"sync/atomic"

	"repro/internal/ast"
	"repro/internal/core"
	"repro/internal/procset"
	"repro/internal/tri"
)

// Matcher is the Section VII client. The zero value is ready to use; the
// matcher is safe for concurrent use (its instrumentation counters are
// atomic and matching itself only reads the querying state).
type Matcher struct {
	matches atomic.Int64 // successful match operations (instrumentation)
}

// MatchCount reports successful match operations.
func (m *Matcher) MatchCount() int { return int(m.matches.Load()) }

// Match implements core.Matcher.
func (m *Matcher) Match(st *core.State, sender *core.ProcSet, dest ast.Expr, receiver *core.ProcSet, src ast.Expr) (*core.MatchPlan, bool) {
	d, ok := st.AffineID(sender, dest)
	if !ok {
		return nil, false
	}
	s, ok := st.AffineID(receiver, src)
	if !ok {
		return nil, false
	}
	if (d.ID != 0 && d.ID != 1) || (s.ID != 0 && s.ID != 1) {
		return nil, false
	}
	dOfs, sOfs := d.Offset(), s.Offset()
	ctx := st.Ctx()
	S, R := sender.Range, receiver.Range

	var plan *core.MatchPlan
	switch {
	case d.ID == 1 && s.ID == 1:
		// send -> id + c, recv <- id + c'. Identity needs c + c' = 0.
		if !st.EntailsZero(dOfs.Add(sOfs)) {
			return nil, false
		}
		plan = core.ShiftPlan(ctx, S, R, dOfs)
	case d.ID == 0 && s.ID == 1:
		// All matched senders target the constant dOfs; the receiver at
		// dOfs expects sender dOfs + sOfs. Identity forces the matched
		// sender to be that single process.
		target := dOfs
		expectedSender := dOfs.Add(sOfs)
		plan = matchSingletons(st, ctx, S, R, expectedSender, target)
	case d.ID == 1 && s.ID == 0:
		// Receivers name a fixed sender sOfs; senders target id + dOfs.
		// Identity: the sender sOfs maps to sOfs + dOfs, which must be the
		// matched receiver.
		expectedSender := sOfs
		target := sOfs.Add(dOfs)
		plan = matchSingletons(st, ctx, S, R, expectedSender, target)
	default: // both constant
		// Identity on the sender singleton {sOfs} requires recv(send(x))=x:
		// the receiver dOfs expects sOfs, and sOfs targets dOfs.
		expectedSender := sOfs
		target := dOfs
		plan = matchSingletons(st, ctx, S, R, expectedSender, target)
	}
	if plan == nil {
		return nil, false
	}
	m.matches.Add(1)
	return plan, true
}

// matchSingletons handles the cases where the match pairs a single sender
// process with a single receiver process.
func matchSingletons(st *core.State, ctx procset.Ctx, S, R procset.Set, sender, target core.Affine) *core.MatchPlan {
	if _, _, ok := sender.VarPlus(); !ok {
		return nil
	}
	if _, _, ok := target.VarPlus(); !ok {
		return nil
	}
	senderExpr, targetExpr := sender.Expr(), target.Expr()
	if S.Contains(ctx, senderExpr) != tri.True {
		return nil
	}
	if R.Contains(ctx, targetExpr) != tri.True {
		return nil
	}
	sm := procset.Singleton(ctx.Memo, senderExpr)
	rm := procset.Singleton(ctx.Memo, targetExpr)
	sRests, ok := subtract(ctx, S, sm)
	if !ok {
		return nil
	}
	rRests, ok := subtract(ctx, R, rm)
	if !ok {
		return nil
	}
	return &core.MatchPlan{
		SenderMatched: sm,
		SenderRests:   sRests,
		RecvMatched:   rm,
		RecvRests:     rRests,
	}
}

// subtract delegates to the shared procset range algebra.
func subtract(ctx procset.Ctx, whole, part procset.Set) ([]procset.Set, bool) {
	return procset.Subtract(ctx, whole, part)
}

// SelfMatch implements core.Matcher: the symbolic client only proves the
// trivial identity permutation (send -> id matched by recv <- id); richer
// permutations need the cartesian client.
func (m *Matcher) SelfMatch(st *core.State, ps *core.ProcSet, dest, src ast.Expr) bool {
	d, ok := st.AffineID(ps, dest)
	if !ok {
		return false
	}
	s, ok := st.AffineID(ps, src)
	if !ok {
		return false
	}
	if d.ID != 1 || s.ID != 1 {
		return false
	}
	return st.EntailsZero(d.Offset()) && st.EntailsZero(s.Offset())
}

var _ core.Matcher = (*Matcher)(nil)
