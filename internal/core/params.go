package core

import (
	"slices"
	"strconv"

	"repro/internal/cg"
	"repro/internal/procset"
	"repro/internal/sem"
	"repro/internal/sym"
)

// Widening parameters ("wp<n>", canonicalized to "k<n>") and frozen-value
// twins ("fz<n>", canonicalized to "f<n>") are existential helper variables
// minted with globally unique names. Two analysis lineages reaching the
// same pCFG node mint different names for the same role, which would make
// their states incomparable and the fixpoint diverge. CanonicalizeParams
// renames them by order of first appearance in the state's canonical
// rendering, so equivalent states become syntactically equal.

// forEachExprVar calls fn for each variable of e in sorted order. Bound
// atoms and pending offsets are almost always var+c, whose one variable is
// read directly instead of allocating the Vars set.
func forEachExprVar(e sym.Expr, fn func(cg.Atom)) {
	if v, _, ok := e.AsVarPlusConst(); ok {
		if v != "" {
			fn(cg.Intern(v))
		}
		return
	}
	for _, v := range e.Vars() {
		fn(cg.Intern(v))
	}
}

// forEachAtomVar calls fn for each variable of a bound atom in sorted
// order; a var+c pair names its one variable without a lookup.
func forEachAtomVar(a procset.Atom, fn func(cg.Atom)) {
	switch {
	case !a.IsVarPlus():
		forEachExprVar(a.Expr(), fn)
	case a.V != cg.AtomZero:
		fn(a.V)
	}
}

// forEachRangeVar calls fn for every variable occurrence in the state's
// ranges, match records and pending sends, in canonical rendering order.
func (st *State) forEachRangeVar(fn func(cg.Atom)) {
	scanSet := func(s procset.Set) {
		for _, a := range s.LB.Atoms() {
			forEachAtomVar(a, fn)
		}
		for _, a := range s.UB.Atoms() {
			forEachAtomVar(a, fn)
		}
	}
	for _, p := range st.Sets {
		scanSet(p.Range)
	}
	for _, m := range st.Matches {
		scanSet(m.Sender)
		scanSet(m.Receiver)
	}
	for _, p := range st.Pending {
		scanSet(p.Senders)
		if p.Shape == PendFan {
			scanSet(p.Dests)
		}
		forEachExprVar(p.Offset, fn)
		if p.ValOK {
			forEachExprVar(p.Val, fn)
		}
	}
}

// maxHelpers sizes the stack buffers of CanonicalizeParams: on the
// benchmark workloads a state's bounds name at most 7 helper variables and
// its graph holds at most 7 stale ones (DESIGN.md §22). A state with more
// allocates its buffers.
const maxHelpers = 8

// CanonicalizeParams renames helper variables to canonical names and drops
// stale ones from the constraint graph. It returns the applied renaming so
// callers can translate names they hold (e.g. the table entry's widening
// parameter); a state with no helper variable at all returns nil without
// allocating, and an already canonical one allocates only the mapping.
func (st *State) CanonicalizeParams() map[string]string {
	st.sortCanonical()
	st.sortPending()
	// Helpers in order of first appearance, and the stale ones (in the
	// graph but in no bound) in name order, the order they are dropped in.
	var orderBuf, staleBuf [maxHelpers]cg.Atom
	order, stale := orderBuf[:0], staleBuf[:0]
	st.forEachRangeVar(func(v cg.Atom) {
		if !slices.Contains(order, v) && sem.IsHelperName(v.String()) {
			order = append(order, v)
		}
	})
	var all [32]cg.Atom
	for _, v := range st.G.AppendAtoms(all[:0]) {
		if sem.IsHelperName(v.String()) && !slices.Contains(order, v) {
			stale = insertByName(stale, 0, v)
		}
	}
	if len(order) == 0 && len(stale) == 0 {
		return nil
	}
	// Canonical names k<n> (for wp<n> or k<n>) and f<n> (for fz<n> or
	// f<n>) in appearance order, composed on the stack; only the changed
	// ones rename.
	mapping := make(map[string]string, len(order))
	var fromBuf, toBuf [maxHelpers]cg.Atom
	from, to := fromBuf[:0], toBuf[:0]
	nk, nf := 0, 0
	for _, v := range order {
		kind, n := byte('k'), &nk
		if v.String()[0] == 'f' {
			kind, n = 'f', &nf
		}
		var buf [24]byte
		want := atomOf(strconv.AppendInt(append(buf[:0], kind), int64(*n), 10))
		*n++
		mapping[v.String()] = want.String()
		if want != v {
			from, to = append(from, v), append(to, want)
		}
	}
	for _, v := range stale {
		st.G.DropA(v)
	}
	if len(from) == 0 {
		return mapping
	}
	st.G.Relabel(from, to)
	st.renameInRanges(from, to)
	if len(st.Pending) > 0 {
		st.ownPending()
	}
	for _, p := range st.Pending {
		p.Senders, _ = p.Senders.Rename(st.memo, from, to)
		if p.Shape == PendFan {
			p.Dests, _ = p.Dests.Rename(st.memo, from, to)
		}
		p.Offset = procset.RenameExpr(p.Offset, from, to)
		if p.ValOK {
			p.Val = procset.RenameExpr(p.Val, from, to)
		}
	}
	return mapping
}

// ResolveHelpers rewrites helper variables in a terminal state's ranges and
// match records to equality witnesses over program symbols (constants, np,
// grid sizes), so reported topology ranges are meaningful outside the
// analysis (e.g. [k0] with k0 = np-2 becomes [np-2]).
func (st *State) ResolveHelpers() {
	for changed := true; changed; {
		changed = false
		used := map[cg.Atom]bool{}
		note := func(a procset.Atom) {
			forEachAtomVar(a, func(v cg.Atom) {
				if sem.IsHelperName(v.String()) {
					used[v] = true
				}
			})
		}
		for _, p := range st.Sets {
			for _, a := range p.Range.LB.Atoms() {
				note(a)
			}
			for _, a := range p.Range.UB.Atoms() {
				note(a)
			}
		}
		for _, m := range st.Matches {
			for _, b := range []procset.Bound{m.Sender.LB, m.Sender.UB, m.Receiver.LB, m.Receiver.UB} {
				for _, a := range b.Atoms() {
					note(a)
				}
			}
		}
		for v := range used {
			for _, w := range st.G.EqualWitnessesA(v) {
				if w.Var == cg.AtomZero {
					st.SubstEverywhere(v.String(), sym.Const(w.C))
					changed = true
					break
				}
				if name := w.Var.String(); !sem.IsHelperName(name) && name[0] != '$' && !isPV(name) {
					st.SubstEverywhere(v.String(), sym.VarPlus(name, w.C))
					changed = true
					break
				}
			}
			if changed {
				break
			}
		}
	}
	// Project residual helpers out of the constraint graph. A helper that no
	// bound references after resolution is a leftover existential witness of
	// the particular join/widen pairing order that built the state; whether
	// one was ever minted depends on that order, so keeping its constraints
	// in G would make the rendered terminal state schedule-dependent. The
	// graph is kept transitively closed, so dropping a row projects the
	// variable out while preserving every consequence among the survivors.
	used := map[string]bool{}
	st.forEachRangeVar(func(v cg.Atom) {
		if sem.IsHelperName(v.String()) {
			used[v.String()] = true
		}
	})
	for _, v := range st.G.Vars() {
		if sem.IsHelperName(v) && !used[v] {
			st.G.Drop(v)
		}
	}
}
