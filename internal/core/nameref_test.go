package core

import (
	"bytes"
	"fmt"
	"maps"
	"slices"
	"sort"
	"strconv"
	"strings"

	"repro/internal/cg"
	"repro/internal/procset"
	"repro/internal/sem"
	"repro/internal/sym"
)

// Reference implementations: the per-set and helper-variable operations as
// they were written over variable names — sorted Graph.Vars scans filtered
// by a "ps<id>." prefix, concatenated names, two-phase renames through
// interned temporaries, and name maps — kept so the atom versions can be
// checked against them result for result and slot for slot.

func refPrefix(id int) string { return "ps" + strconv.Itoa(id) + "." }

func refNamespaceVars(g *cg.Graph, id int) []string {
	prefix := refPrefix(id)
	var out []string
	for _, v := range g.Vars() {
		if strings.HasPrefix(v, prefix) {
			out = append(out, v)
		}
	}
	return out
}

// refForEachBound visits the graph's bounds by name, in slot order.
func refForEachBound(g *cg.Graph, fn func(x, y string, c int64)) {
	g.ForEachBoundA(func(i, j int32, c int64) { fn(g.AtomAt(i).String(), g.AtomAt(j).String(), c) })
}

func refCopyNamespace(st *State, from, to int) {
	fromPrefix, toPrefix := refPrefix(from), refPrefix(to)
	rename := func(v string) string {
		if strings.HasPrefix(v, fromPrefix) {
			return toPrefix + strings.TrimPrefix(v, fromPrefix)
		}
		return v
	}
	type bound struct {
		x, y string
		c    int64
	}
	var toAdd []bound
	refForEachBound(st.G, func(x, y string, c int64) {
		nx, ny := rename(x), rename(y)
		if nx != x || ny != y {
			toAdd = append(toAdd, bound{nx, ny, c})
		}
	})
	for _, b := range toAdd {
		st.G.AddLE(b.x, b.y, b.c)
	}
}

func refCopyBounds(g *cg.Graph, from, to string) {
	type bound struct {
		x, y string
		c    int64
	}
	var toAdd []bound
	refForEachBound(g, func(x, y string, c int64) {
		switch {
		case x == from && y != to:
			toAdd = append(toAdd, bound{to, y, c})
		case y == from && x != to:
			toAdd = append(toAdd, bound{x, to, c})
		}
	})
	for _, b := range toAdd {
		g.AddLE(b.x, b.y, b.c)
	}
}

func refMergeSets(st *State, a, b *ProcSet, merged procset.Set) {
	for _, id := range []int{a.ID, b.ID} {
		for _, v := range refNamespaceVars(st.G, id) {
			st.invalidateVar(cg.Intern(v))
		}
	}
	g1 := st.G.Clone()
	for _, v := range refNamespaceVars(g1, b.ID) {
		g1.Forget(v)
	}
	g2 := st.G.Clone()
	for _, v := range refNamespaceVars(g2, a.ID) {
		g2.Forget(v)
	}
	bPrefix, aPrefix := refPrefix(b.ID), refPrefix(a.ID)
	for _, v := range refNamespaceVars(g2, b.ID) {
		target := aPrefix + strings.TrimPrefix(v, bPrefix)
		if g2.HasVar(target) {
			refCopyBounds(g2, v, target)
			g2.Drop(v)
		} else {
			g2.Rename(v, target)
		}
	}
	st.G = cg.Join(g1, g2)
	a.Range = merged
	for i, p := range st.Sets {
		if p.ID == b.ID {
			st.Sets = append(st.Sets[:i], st.Sets[i+1:]...)
			break
		}
	}
	for _, v := range refNamespaceVars(st.G, b.ID) {
		st.G.Drop(v)
	}
}

// refSubstAll is the name-keyed simultaneous substitution on a set: every
// atom rewritten through sym, only var+c results kept.
func refSubstAll(s procset.Set, env map[string]sym.Expr) procset.Set {
	bound := func(b procset.Bound) procset.Bound {
		var kept []sym.Expr
		for _, a := range b.Atoms() {
			e := sym.SubstAll(a.Expr(), env)
			if _, _, ok := e.AsVarPlusConst(); ok {
				kept = append(kept, e)
			}
		}
		return procset.NewBound(nil, kept...)
	}
	return procset.Set{LB: bound(s.LB), UB: bound(s.UB)}
}

func refRenameSets(st *State, mapping map[int]int) {
	var renames [][2]string
	for from, to := range mapping {
		if from == to {
			continue
		}
		fromPrefix, toPrefix := refPrefix(from), refPrefix(to)
		for _, v := range refNamespaceVars(st.G, from) {
			renames = append(renames, [2]string{v, toPrefix + strings.TrimPrefix(v, fromPrefix)})
		}
	}
	sort.Slice(renames, func(i, j int) bool { return renames[i][0] < renames[j][0] })
	for i, r := range renames {
		st.G.Rename(r[0], fmt.Sprintf("$tmp%d", i))
	}
	for i, r := range renames {
		st.G.Rename(fmt.Sprintf("$tmp%d", i), r[1])
	}
	env := map[string]sym.Expr{}
	for _, r := range renames {
		env[r[0]] = sym.Var(r[1])
	}
	for _, p := range st.Sets {
		if to, ok := mapping[p.ID]; ok {
			p.ID = to
		}
		p.Range = refSubstAll(p.Range, env)
	}
	st.ownMatches()
	for _, m := range st.Matches {
		m.Sender = refSubstAll(m.Sender, env)
		m.Receiver = refSubstAll(m.Receiver, env)
	}
	if st.nextID <= maxID(st.Sets) {
		st.nextID = maxID(st.Sets) + 1
	}
}

func refCanonicalizeParams(st *State) map[string]string {
	st.sortCanonical()
	st.sortPending()
	var order []string
	var seen map[string]bool
	st.forEachRangeVar(func(a cg.Atom) {
		if v := a.String(); sem.IsHelperName(v) && !seen[v] {
			if seen == nil {
				seen = map[string]bool{}
			}
			seen[v] = true
			order = append(order, v)
		}
	})
	anyHelper := false
	for _, v := range st.G.Vars() {
		anyHelper = anyHelper || sem.IsHelperName(v)
	}
	if order == nil && !anyHelper {
		return nil
	}
	mapping := map[string]string{}
	nk, nf := 0, 0
	for _, v := range order {
		var want string
		if v[0] == 'f' {
			want = "f" + strconv.Itoa(nf)
			nf++
		} else {
			want = "k" + strconv.Itoa(nk)
			nk++
		}
		mapping[v] = want
	}
	for _, v := range st.G.Vars() {
		if sem.IsHelperName(v) && !seen[v] {
			st.G.Drop(v)
		}
	}
	identity := true
	for from, to := range mapping {
		if from != to {
			identity = false
		}
	}
	if identity {
		return mapping
	}
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
	env := map[string]sym.Expr{}
	for from, to := range mapping {
		if from != to {
			env[from] = sym.Var(to)
		}
	}
	st.ownMatches()
	st.ownPending()
	for _, p := range st.Sets {
		p.Range = refSubstAll(p.Range, env)
	}
	for _, m := range st.Matches {
		m.Sender = refSubstAll(m.Sender, env)
		m.Receiver = refSubstAll(m.Receiver, env)
	}
	for _, p := range st.Pending {
		p.Senders = refSubstAll(p.Senders, env)
		if p.Shape == PendFan {
			p.Dests = refSubstAll(p.Dests, env)
		}
		p.Offset = sym.SubstAll(p.Offset, env)
		if p.ValOK {
			p.Val = sym.SubstAll(p.Val, env)
		}
	}
	return mapping
}

// slotOrder renders g's variables in slot order.
func slotOrder(g *cg.Graph) string {
	var b strings.Builder
	for _, a := range g.AppendAtoms(nil) {
		b.WriteString(a.String())
		b.WriteByte(' ')
	}
	return b.String()
}

// CompareNameOps runs the namespace scan, CopyNamespace, MergeSets (each
// set with its neighbour, both ways), renameSets (IDs rotated by one set,
// and moved to fresh IDs) and CanonicalizeParams on clones of st, and the
// reference implementations on other clones. It returns the first
// operation whose result differs in FullKey, identity bytes or slot order
// (or, for scans and CanonicalizeParams, in the names returned), and counts
// the comparisons that renamed or moved some variable by kind in cov.
func CompareNameOps(st *State, cov map[string]int) error {
	if st.Top {
		return nil
	}
	same := func(op string, got, want *State) error {
		if g, w := got.FullKey(), want.FullKey(); g != w {
			return fmt.Errorf("%s: FullKey\n got: %s\nwant: %s", op, g, w)
		}
		if g, w := slotOrder(got.G), slotOrder(want.G); g != w {
			return fmt.Errorf("%s: slots\n got: %s\nwant: %s", op, g, w)
		}
		if !bytes.Equal(got.appendIdentity(nil), want.appendIdentity(nil)) {
			return fmt.Errorf("%s: identity bytes differ at FullKey %s", op, got.FullKey())
		}
		return nil
	}
	ids := []int{st.nextID}
	for _, p := range st.Sets {
		ids = append(ids, p.ID)
	}
	for _, id := range ids {
		var got []string
		for _, a := range appendNamespace(nil, st.G, id) {
			got = append(got, a.String())
		}
		if want := refNamespaceVars(st.G, id); strings.Join(got, " ") != strings.Join(want, " ") {
			return fmt.Errorf("namespace %d: %v, want %v", id, got, want)
		}
		if len(got) > 1 {
			cov["scan"]++
		}
	}
	for _, p := range st.Sets {
		got, want := st.Clone(), st.Clone()
		got.CopyNamespace(p.ID, st.nextID)
		refCopyNamespace(want, p.ID, st.nextID)
		if err := same(fmt.Sprintf("CopyNamespace(%d, %d)", p.ID, st.nextID), got, want); err != nil {
			return err
		}
		if got.G.NumVars() > st.G.NumVars() {
			cov["copy"]++
		}
	}
	for i := 0; i+1 < len(st.Sets); i++ {
		for _, ab := range [][2]int{{i, i + 1}, {i + 1, i}} {
			got, want := st.Clone(), st.Clone()
			a, b := ab[0], ab[1]
			got.MergeSets(got.Sets[a], got.Sets[b], got.Sets[a].Range)
			refMergeSets(want, want.Sets[a], want.Sets[b], want.Sets[a].Range)
			if err := same(fmt.Sprintf("MergeSets(%d, %d)", st.Sets[a].ID, st.Sets[b].ID), got, want); err != nil {
				return err
			}
			if len(refNamespaceVars(st.G, st.Sets[b].ID)) > 0 {
				cov["merge"]++
			}
		}
	}
	for _, fresh := range []bool{false, true} {
		got, want := st.Clone(), st.Clone()
		ref := make([]*ProcSet, len(st.Sets))
		mapping := map[int]int{}
		for i, p := range st.Sets {
			id := st.Sets[(i+1)%len(st.Sets)].ID
			if fresh {
				id = st.nextID + i
			}
			ref[i] = &ProcSet{ID: id}
			mapping[p.ID] = id
		}
		got.renameSets(ref)
		refRenameSets(want, mapping)
		if err := same(fmt.Sprintf("renameSets(%v)", mapping), got, want); err != nil {
			return err
		}
		if slotOrder(got.G) != slotOrder(st.G) {
			cov["rename"]++
		}
	}
	for _, scrambled := range []bool{false, true} {
		in := st.Clone()
		if scrambled {
			scrambleHelpers(in)
		}
		got, want := in.Clone(), in.Clone()
		gm, wm := got.CanonicalizeParams(), refCanonicalizeParams(want)
		if !maps.Equal(gm, wm) || (gm == nil) != (wm == nil) {
			return fmt.Errorf("CanonicalizeParams mapping %v, want %v", gm, wm)
		}
		if err := same("CanonicalizeParams", got, want); err != nil {
			return err
		}
		for from, to := range gm {
			if from != to {
				cov["canonicalize"]++
				break
			}
		}
	}
	return nil
}

// scrambleHelpers gives st's helper variables fresh minted names (wp<n>,
// fz<n>) in reverse name order and adds a stale one, so that
// CanonicalizeParams has renames and a drop to make.
func scrambleHelpers(st *State) {
	var from, to []cg.Atom
	note := func(a cg.Atom) {
		if sem.IsHelperName(a.String()) && !slices.Contains(from, a) {
			from = append(from, a)
		}
	}
	st.forEachRangeVar(note)
	for _, a := range st.G.AppendAtoms(nil) {
		note(a)
	}
	sort.Slice(from, func(i, j int) bool { return from[i].String() > from[j].String() })
	for i, a := range from {
		prefix := "wp"
		if a.String()[0] == 'f' {
			prefix = "fz"
		}
		to = append(to, cg.Intern(prefix+strconv.Itoa(1000+i)))
	}
	st.G.Relabel(from, to)
	st.G.AddLE("wp999", "np", 0)
	st.ownMatches()
	st.ownPending()
	for _, p := range st.Sets {
		p.Range, _ = p.Range.Rename(st.memo, from, to)
	}
	for _, m := range st.Matches {
		m.Sender, _ = m.Sender.Rename(st.memo, from, to)
		m.Receiver, _ = m.Receiver.Rename(st.memo, from, to)
	}
	for _, p := range st.Pending {
		p.Senders, _ = p.Senders.Rename(st.memo, from, to)
		p.Dests, _ = p.Dests.Rename(st.memo, from, to)
		p.Offset = procset.RenameExpr(p.Offset, from, to)
		p.Val = procset.RenameExpr(p.Val, from, to)
	}
}
