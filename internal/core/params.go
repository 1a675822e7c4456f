package core

import (
	"strconv"
	"strings"

	"repro/internal/cg"
	"repro/internal/procset"
	"repro/internal/sym"
)

// Widening parameters ("wp<n>", canonicalized to "k<n>") and frozen-value
// twins ("fz<n>", canonicalized to "f<n>") are existential helper variables
// minted with globally unique names. Two analysis lineages reaching the
// same pCFG node mint different names for the same role, which would make
// their states incomparable and the fixpoint diverge. CanonicalizeParams
// renames them by order of first appearance in the state's canonical
// rendering, so equivalent states become syntactically equal.

// isHelperVar reports whether v matches ^(wp|fz|k|f)[0-9]+$.
func isHelperVar(v string) bool {
	var digits string
	switch {
	case strings.HasPrefix(v, "wp"), strings.HasPrefix(v, "fz"):
		digits = v[2:]
	case strings.HasPrefix(v, "k"), strings.HasPrefix(v, "f"):
		digits = v[1:]
	default:
		return false
	}
	if digits == "" {
		return false
	}
	for i := 0; i < len(digits); i++ {
		if digits[i] < '0' || digits[i] > '9' {
			return false
		}
	}
	return true
}

// forEachExprVar calls fn for each variable of e in sorted order. Bound
// atoms and pending offsets are almost always var+c, whose one variable is
// read directly instead of allocating the Vars set.
func forEachExprVar(e sym.Expr, fn func(string)) {
	if v, _, ok := e.AsVarPlusConst(); ok {
		if v != "" {
			fn(v)
		}
		return
	}
	for _, v := range e.Vars() {
		fn(v)
	}
}

// forEachAtomVar calls fn for each variable of a bound atom in sorted
// order; a var+c pair names its one variable without a lookup.
func forEachAtomVar(a procset.Atom, fn func(string)) {
	switch {
	case !a.IsVarPlus():
		forEachExprVar(a.Expr(), fn)
	case a.V != cg.AtomZero:
		fn(a.V.String())
	}
}

// forEachRangeVar calls fn for every variable occurrence in the state's
// ranges, match records and pending sends, in canonical rendering order.
func (st *State) forEachRangeVar(fn func(string)) {
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

// CanonicalizeParams renames helper variables to canonical names and drops
// stale ones from the constraint graph. It returns the applied renaming so
// callers can translate names they hold (e.g. the table entry's widening
// parameter); a state with no helper variable at all returns nil without
// allocating.
func (st *State) CanonicalizeParams() map[string]string {
	st.sortCanonical()
	st.sortPending()
	var order []string
	var seen map[string]bool // allocated at the first helper
	st.forEachRangeVar(func(v string) {
		if isHelperVar(v) && !seen[v] {
			if seen == nil {
				seen = map[string]bool{}
			}
			seen[v] = true
			order = append(order, v)
		}
	})
	if order == nil && !st.G.AnyVar(isHelperVar) {
		return nil
	}
	// Desired canonical names in appearance order.
	mapping := map[string]string{}
	nk, nf := 0, 0
	for _, v := range order {
		var want string
		if v[0] == 'f' { // fz<n> or f<n>
			want = "f" + strconv.Itoa(nf)
			nf++
		} else { // wp<n> or k<n>
			want = "k" + strconv.Itoa(nk)
			nk++
		}
		mapping[v] = want
	}
	// Drop stale helper variables (present in G but unused by any bound).
	dropped := false
	for _, v := range st.G.Vars() {
		if isHelperVar(v) && !seen[v] {
			st.G.Drop(v)
			dropped = true
		}
	}
	if dropped {
		st.dirtyKeys()
	}
	// Identity mapping: nothing to do.
	identity := true
	for from, to := range mapping {
		if from != to {
			identity = false
		}
	}
	if identity {
		return mapping
	}
	st.dirtyKeys()
	// Two-phase rename in the constraint graph (deterministic order).
	for i, from := range order {
		if st.G.HasVar(from) {
			st.G.Rename(from, "$p"+strconv.Itoa(i))
		}
	}
	for i, from := range order {
		if tmp := "$p" + strconv.Itoa(i); st.G.HasVar(tmp) {
			st.G.Rename(tmp, mapping[from])
		}
	}
	// Substitute in ranges, matches and pendings (simultaneous).
	env := map[string]sym.Expr{}
	for from, to := range mapping {
		if from != to {
			env[from] = sym.Var(to)
		}
	}
	if len(env) > 0 {
		st.ownMatches()
		st.ownPending()
		for _, p := range st.Sets {
			p.Range = p.Range.SubstAll(env)
		}
		for _, m := range st.Matches {
			m.Sender = m.Sender.SubstAll(env)
			m.Receiver = m.Receiver.SubstAll(env)
		}
		for _, p := range st.Pending {
			p.Senders = p.Senders.SubstAll(env)
			if p.Shape == PendFan {
				p.Dests = p.Dests.SubstAll(env)
			}
			p.Offset = sym.SubstAll(p.Offset, env)
			if p.ValOK {
				p.Val = sym.SubstAll(p.Val, env)
			}
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
		used := map[string]bool{}
		note := func(a procset.Atom) {
			forEachAtomVar(a, func(v string) {
				if isHelperVar(v) {
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
			for _, w := range st.G.EqualWitnesses(v) {
				if w.Var == cg.AtomZero {
					st.SubstEverywhere(v, sym.Const(w.C))
					changed = true
					break
				}
				if name := w.Var.String(); !isHelperVar(name) && name[0] != '$' && !isPSVar(name) {
					st.SubstEverywhere(v, sym.VarPlus(name, w.C))
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
	st.forEachRangeVar(func(v string) {
		if isHelperVar(v) {
			used[v] = true
		}
	})
	dropped := false
	for _, v := range st.G.Vars() {
		if isHelperVar(v) && !used[v] {
			st.G.Drop(v)
			dropped = true
		}
	}
	if dropped {
		st.dirtyKeys()
	}
}

func isPSVar(v string) bool {
	return len(v) > 2 && v[0] == 'p' && v[1] == 's' && containsDot(v)
}

func containsDot(v string) bool {
	for i := 0; i < len(v); i++ {
		if v[i] == '.' {
			return true
		}
	}
	return false
}
