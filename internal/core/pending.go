package core

import (
	"fmt"
	"sort"
	"strings"

	"repro/internal/cfg"
	"repro/internal/cg"
	"repro/internal/procset"
	"repro/internal/sym"
	"repro/internal/tri"
)

// The non-blocking send extension (the paper's Section X): with
// Options.NonBlockingSends enabled, a process set executing a send does not
// block; the message is recorded as a *pending send* in the dataflow state
// and the set advances. Receivers later match against pending sends. A loop
// of sends aggregates into a single pending record whose destination range
// grows (the paper's "aggregated send expressions"), so patterns like
// send-everything-then-receive need no pipeline analysis at all.

// PendShape classifies how a pending send maps senders to destinations.
type PendShape int

// Pending-send shapes.
const (
	// PendShift: every sender s targets s + Offset; destinations are the
	// sender range shifted.
	PendShift PendShape = iota
	// PendFan: a single sender targets each process in Dests (accumulated
	// across loop iterations).
	PendFan
)

func (s PendShape) String() string {
	if s == PendShift {
		return "shift"
	}
	return "fan"
}

// PendingSend is an in-flight aggregated message set.
type PendingSend struct {
	Node    int // CFG node of the send
	Shape   PendShape
	Senders procset.Set
	// Offset is the destination offset for PendShift (frozen: it never
	// changes after issue).
	Offset sym.Expr
	// Dests is the destination range for PendFan.
	Dests procset.Set
	// Val is the frozen payload (valid when ValOK).
	Val   sym.Expr
	ValOK bool
}

// DestRange returns the destination process range.
func (p *PendingSend) DestRange() procset.Set {
	if p.Shape == PendFan {
		return p.Dests
	}
	return p.Senders.OffsetExpr(p.Offset)
}

func (p *PendingSend) String() string {
	switch p.Shape {
	case PendShift:
		return fmt.Sprintf("pend n%d %s+(%s)", p.Node, p.Senders, p.Offset)
	default:
		return fmt.Sprintf("pend n%d %s->%s", p.Node, p.Senders, p.Dests)
	}
}

// clonePendings deep-copies a pending list.
func clonePendings(ps []*PendingSend) []*PendingSend {
	out := make([]*PendingSend, len(ps))
	for i, p := range ps {
		cp := *p
		out[i] = &cp
	}
	return out
}

// freeze replaces per-set variables in an affine expression with frozen
// twins pinned to their current value, so the expression stays meaningful
// after the issuing set's state changes. Returns ok=false if a per-set
// variable cannot be frozen into var+c form.
func (st *State) freeze(e sym.Expr) (sym.Expr, bool) {
	out := e
	for _, v := range out.Vars() {
		if !strings.HasPrefix(v, "ps") || !strings.Contains(v, ".") {
			continue // global or already-frozen symbol
		}
		// Prefer a constant or global witness.
		replaced := false
		if c, ok := st.G.ConstVal(v); ok {
			out = sym.Subst(out, v, sym.Const(c))
			replaced = true
		} else {
			for _, w := range st.G.EqualWitnesses(v) {
				if w.Var == cg.ZeroVar {
					out = sym.Subst(out, v, sym.Const(w.C))
					replaced = true
					break
				}
				if !strings.HasPrefix(w.Var, "ps") {
					out = sym.Subst(out, v, sym.VarPlus(w.Var, w.C))
					replaced = true
					break
				}
			}
		}
		if !replaced {
			// Mint a frozen twin equal to the current value.
			fz := fmt.Sprintf("fz%d", st.nextFrozen)
			st.nextFrozen++
			st.G.AddEq(fz, v, 0)
			out = sym.Subst(out, v, sym.Var(fz))
		}
	}
	if _, _, ok := out.AsVarPlusConst(); !ok {
		if !out.IsAffine() {
			return sym.Zero, false
		}
	}
	return out, true
}

// IssueSend records a non-blocking send by set ps at node n, aggregating
// with an existing pending record when possible. Returns false when the
// destination expression is not supported (the caller falls back to the
// blocking treatment).
func (st *State) IssueSend(ps *ProcSet, n *cfg.Node) bool {
	st.dirtyKeys()
	d, ok := st.AffineExprID(ps, n.Dest)
	if !ok {
		return false
	}
	idCoef := d.Coeff(IDMarker)
	ofs := sym.Sub(d, sym.Scale(sym.Var(IDMarker), idCoef))
	frozenOfs, ok := st.freeze(ofs)
	if !ok {
		return false
	}
	if _, _, isVC := frozenOfs.AsVarPlusConst(); !isVC {
		return false
	}
	var val sym.Expr
	valOK := false
	if ve, ok := st.AffineExpr(ps, n.Value); ok {
		if fv, ok := st.freeze(ve); ok {
			if _, _, isVC := fv.AsVarPlusConst(); isVC {
				val, valOK = fv, true
			}
		}
	}
	ctx := st.Ctx()
	switch idCoef {
	case 1:
		st.ownPending()
		p := &PendingSend{
			Node:    n.ID,
			Shape:   PendShift,
			Senders: ps.Range,
			Offset:  frozenOfs,
			Val:     val,
			ValOK:   valOK,
		}
		// Aggregate with an existing shift record at the same node and
		// offset.
		for _, q := range st.Pending {
			if q.Node == p.Node && q.Shape == PendShift && sym.Equal(q.Offset, p.Offset) {
				if u, ok := q.Senders.UnionAdjacent(ctx, p.Senders); ok {
					q.Senders = u
					q.ValOK = q.ValOK && valOK && sym.Equal(q.Val, val)
					return true
				}
				if u, ok := p.Senders.UnionAdjacent(ctx, q.Senders); ok {
					q.Senders = u
					q.ValOK = q.ValOK && valOK && sym.Equal(q.Val, val)
					return true
				}
			}
		}
		st.Pending = append(st.Pending, p)
		return true
	case 0:
		// A fan requires a singleton sender so each (sender, dest) pair is
		// exact.
		if ps.Range.IsSingleton(ctx) != tri.True {
			return false
		}
		st.ownPending()
		dest := procset.Singleton(frozenOfs).Enrich(ctx)
		p := &PendingSend{
			Node:    n.ID,
			Shape:   PendFan,
			Senders: ps.Range,
			Dests:   dest,
			Val:     val,
			ValOK:   valOK,
		}
		for _, q := range st.Pending {
			if q.Node == p.Node && q.Shape == PendFan && q.Senders.SameRange(ctx, p.Senders) == tri.True {
				if u, ok := q.Dests.Enrich(ctx).UnionAdjacent(ctx, dest); ok {
					q.Dests = u
					q.ValOK = q.ValOK && valOK && sym.Equal(q.Val, val)
					return true
				}
				if u, ok := dest.UnionAdjacent(ctx, q.Dests.Enrich(ctx)); ok {
					q.Dests = u
					q.ValOK = q.ValOK && valOK && sym.Equal(q.Val, val)
					return true
				}
			}
		}
		st.Pending = append(st.Pending, p)
		return true
	}
	return false
}

// PendingMatch describes a receive satisfied from a pending send.
type PendingMatch struct {
	Pending     *PendingSend
	RecvMatched procset.Set
	RecvRests   []procset.Set
	// SendersMatched is the sub-range of the pending senders consumed.
	SendersMatched procset.Set
	// Remaining pending pieces that replace the consumed record.
	PendingRests []*PendingSend
}

// MatchPending attempts to satisfy receiver's blocked receive from pending
// send idx. src is the receiver's source expression.
func (st *State) MatchPending(receiver *ProcSet, src sym.Expr, idx int) (*PendingMatch, bool) {
	p := st.Pending[idx]
	ctx := st.Ctx()
	sID := src.Coeff(IDMarker)
	sOfs := sym.Sub(src, sym.Scale(sym.Var(IDMarker), sID))

	switch p.Shape {
	case PendShift:
		// Receiver must name sender = id + sOfs with sOfs = -Offset.
		if sID != 1 || !st.EntailsZero(sym.Add(sOfs, p.Offset)) {
			return nil, false
		}
		dests := p.DestRange()
		if !dests.IsValid() {
			return nil, false
		}
		inter, ok := procset.Intersect(ctx, dests, receiver.Range)
		if !ok || !inter.IsValid() || inter.Empty(ctx) != tri.False {
			return nil, false
		}
		sendersMatched := inter.OffsetExpr(sym.Neg(p.Offset))
		if !sendersMatched.IsValid() {
			return nil, false
		}
		recvRests, ok := procset.Subtract(ctx, receiver.Range, inter)
		if !ok {
			return nil, false
		}
		senderRests, ok := procset.Subtract(ctx, p.Senders, sendersMatched)
		if !ok {
			return nil, false
		}
		var pendRests []*PendingSend
		for _, r := range senderRests {
			if !r.IsValid() || r.Empty(ctx) == tri.True {
				continue
			}
			cp := *p
			cp.Senders = r
			pendRests = append(pendRests, &cp)
		}
		return &PendingMatch{
			Pending:        p,
			RecvMatched:    inter,
			RecvRests:      recvRests,
			SendersMatched: sendersMatched,
			PendingRests:   pendRests,
		}, true
	case PendFan:
		// Receiver must name the constant sender.
		if sID != 0 {
			return nil, false
		}
		senderExpr := p.Senders.LB.Primary()
		if !st.EntailsZero(sym.Sub(sOfs, senderExpr)) {
			return nil, false
		}
		inter, ok := procset.Intersect(ctx, p.Dests, receiver.Range)
		if !ok || !inter.IsValid() || inter.Empty(ctx) != tri.False {
			return nil, false
		}
		recvRests, ok := procset.Subtract(ctx, receiver.Range, inter)
		if !ok {
			return nil, false
		}
		destRests, ok := procset.Subtract(ctx, p.Dests, inter)
		if !ok {
			return nil, false
		}
		var pendRests []*PendingSend
		for _, r := range destRests {
			if !r.IsValid() || r.Empty(ctx) == tri.True {
				continue
			}
			cp := *p
			cp.Dests = r
			pendRests = append(pendRests, &cp)
		}
		return &PendingMatch{
			Pending:        p,
			RecvMatched:    inter,
			RecvRests:      recvRests,
			SendersMatched: p.Senders,
			PendingRests:   pendRests,
		}, true
	}
	return nil, false
}

// ReplacePending swaps pending record idx for its leftover pieces. The
// result is a fresh slice but keeps the surviving element pointers, so a
// sharedPending flag (if set) must stay set — ownPending still deep-copies
// the elements on the next element write.
func (st *State) ReplacePending(idx int, rests []*PendingSend) {
	st.dirtyKeys()
	out := make([]*PendingSend, 0, len(st.Pending)-1+len(rests))
	out = append(out, st.Pending[:idx]...)
	out = append(out, rests...)
	out = append(out, st.Pending[idx+1:]...)
	st.Pending = out
	st.sortPending()
}

// sortPending keeps pending records in a canonical order. A slice that is
// already in order (the common case after the first sort) is left alone; a
// reorder of a still-shared backing array first copies the slice so clones
// sharing the array never observe the swap. Element pointers survive the
// copy, so sharedPending stays set.
func (st *State) sortPending() {
	less := func(a, b *PendingSend) bool {
		if a.Node != b.Node {
			return a.Node < b.Node
		}
		if a.Shape != b.Shape {
			return a.Shape < b.Shape
		}
		return anonRangeKey(a.Senders) < anonRangeKey(b.Senders)
	}
	sorted := true
	for i := 1; i < len(st.Pending); i++ {
		if less(st.Pending[i], st.Pending[i-1]) {
			sorted = false
			break
		}
	}
	if sorted {
		return
	}
	if st.sharedPending {
		st.Pending = append([]*PendingSend(nil), st.Pending...)
	}
	sort.SliceStable(st.Pending, func(i, j int) bool {
		return less(st.Pending[i], st.Pending[j])
	})
}

// dropEmptyPendings removes pending records with provably empty ranges. The
// filter allocates a fresh slice instead of compacting in place: the backing
// array may be shared copy-on-write with a clone (see State.Clone), and an
// in-place shift would corrupt the sharer's view. Element pointers survive,
// so the shared flag is left alone.
func (st *State) dropEmptyPendings() {
	ctx := st.Ctx()
	keep := func(p *PendingSend) bool {
		if !p.Senders.IsValid() || p.Senders.Empty(ctx) == tri.True {
			return false
		}
		if p.Shape == PendFan && (!p.Dests.IsValid() || p.Dests.Empty(ctx) == tri.True) {
			return false
		}
		return true
	}
	n := 0
	for _, p := range st.Pending {
		if keep(p) {
			n++
		}
	}
	if n == len(st.Pending) {
		return
	}
	st.dirtyKeys()
	out := make([]*PendingSend, 0, n)
	for _, p := range st.Pending {
		if keep(p) {
			out = append(out, p)
		}
	}
	st.Pending = out
}
