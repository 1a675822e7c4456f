// Package procset implements the symbolic process-set representation of the
// paper's Section VII-B: contiguous ranges [lb..ub] whose bounds are *sets of
// equivalent expressions* (e.g. {1, i} when the constraint state knows i=1).
// Range emptiness, membership, splitting and widening are all decided
// relative to a constraint graph carrying the currently known facts.
package procset

import (
	"strings"

	"repro/internal/cg"
	"repro/internal/sym"
	"repro/internal/tri"
)

// Bound is one end of a range: a non-empty set of expressions that are all
// known to be equal to the bound's value. Atoms are deduplicated by
// canonical key and kept sorted for deterministic output.
type Bound struct {
	atoms []sym.Expr
}

// NewBound builds a bound from one or more equivalent expressions.
func NewBound(atoms ...sym.Expr) Bound {
	b := Bound{}
	for _, a := range atoms {
		b = b.Insert(a)
	}
	return b
}

// maxAtoms caps the number of equivalent expressions kept per bound.
// Dropping extra atoms loses precision only (they are all equal), and the
// cap keeps bound comparisons from degrading quadratically when enrichment
// keeps finding witnesses.
const maxAtoms = 8

// Insert returns a bound extended with another equivalent expression.
// Atoms stay sorted by key. A full bound or a duplicate atom (the common
// case under enrichment) returns before any key rendering; only a new atom
// pays for the ordered position search.
func (b Bound) Insert(e sym.Expr) Bound {
	if len(b.atoms) >= maxAtoms || b.has(e) {
		return b
	}
	pos := len(b.atoms)
	for i, a := range b.atoms {
		if a.CompareKey(e) > 0 {
			pos = i
			break
		}
	}
	atoms := make([]sym.Expr, 0, len(b.atoms)+1)
	atoms = append(atoms, b.atoms[:pos]...)
	atoms = append(atoms, e)
	atoms = append(atoms, b.atoms[pos:]...)
	return Bound{atoms: atoms}
}

// has reports whether e is already an atom of b.
func (b Bound) has(e sym.Expr) bool {
	for _, a := range b.atoms {
		if sym.Equal(a, e) {
			return true
		}
	}
	return false
}

// Atoms returns the equivalent expressions (do not mutate).
func (b Bound) Atoms() []sym.Expr { return b.atoms }

// IsValid reports whether the bound has at least one atom.
func (b Bound) IsValid() bool { return len(b.atoms) > 0 }

// Primary returns a representative atom: prefer a constant, then the
// lexicographically smallest expression.
func (b Bound) Primary() sym.Expr {
	for _, a := range b.atoms {
		if _, ok := a.IsConst(); ok {
			return a
		}
	}
	if len(b.atoms) == 0 {
		return sym.Zero
	}
	return b.atoms[0]
}

// Offset returns the bound shifted by constant c (applied to every atom).
func (b Bound) Offset(c int64) Bound {
	out := Bound{}
	for _, a := range b.atoms {
		out = out.Insert(sym.AddConst(a, c))
	}
	return out
}

// Subst applies a variable substitution to every atom, dropping atoms that
// stop being affine var+c forms. A bound of var+c atoms none of which uses
// name is returned as is.
func (b Bound) Subst(name string, repl sym.Expr) Bound {
	if b.varPlusWithout(name) {
		return b
	}
	out := Bound{}
	for _, a := range b.atoms {
		na := sym.Subst(a, name, repl)
		if _, _, ok := na.AsVarPlusConst(); ok {
			out = out.Insert(na)
		}
	}
	return out
}

// SubstAll applies a simultaneous substitution to every atom, dropping
// atoms that stop being affine var+c forms.
func (b Bound) SubstAll(env map[string]sym.Expr) Bound {
	out := Bound{}
	for _, a := range b.atoms {
		na := sym.SubstAll(a, env)
		if _, _, ok := na.AsVarPlusConst(); ok {
			out = out.Insert(na)
		}
	}
	return out
}

// varPlusWithout reports whether every atom is a var+c form and none uses
// name, so substituting name keeps every atom as it is.
func (b Bound) varPlusWithout(name string) bool {
	for _, a := range b.atoms {
		if v, _, ok := a.AsVarPlusConst(); !ok || v == name {
			return false
		}
	}
	return true
}

// Uses reports whether any atom references the variable.
func (b Bound) Uses(name string) bool {
	for _, a := range b.atoms {
		if a.Uses(name) {
			return true
		}
	}
	return false
}

// DropUses removes atoms referencing name. The result may be invalid.
func (b Bound) DropUses(name string) Bound {
	out := Bound{}
	for _, a := range b.atoms {
		if !a.Uses(name) {
			out = out.Insert(a)
		}
	}
	return out
}

// Intersect keeps atoms present in both bounds (by key) — the paper's
// widening of bounds. The result may be invalid (no common atom). b's atoms
// are already in key order, so a filtered copy keeps that order; when every
// atom survives, b itself is the result.
func (b Bound) Intersect(o Bound) Bound {
	for i, a := range b.atoms {
		if o.has(a) {
			continue
		}
		atoms := make([]sym.Expr, i, len(b.atoms)-1)
		copy(atoms, b.atoms[:i])
		for _, a := range b.atoms[i+1:] {
			if o.has(a) {
				atoms = append(atoms, a)
			}
		}
		if len(atoms) == 0 {
			return Bound{}
		}
		return Bound{atoms: atoms}
	}
	return b
}

func (b Bound) String() string {
	if len(b.atoms) == 0 {
		return "?"
	}
	return b.Primary().String()
}

// StringAll renders every atom, e.g. "{1,i}".
func (b Bound) StringAll() string {
	if len(b.atoms) <= 1 {
		return b.String()
	}
	parts := make([]string, len(b.atoms))
	for i, a := range b.atoms {
		parts[i] = a.String()
	}
	return "{" + strings.Join(parts, ",") + "}"
}

// ---------------------------------------------------------------------------
// Comparisons relative to a constraint context

// Ctx wraps the facts needed to compare symbolic bounds: a difference
// constraint graph over the same variable namespace as the bound atoms.
type Ctx struct {
	G *cg.Graph
}

// cmpAtoms decides a ? b for two var+c atoms using the context.
// Returns (a <= b + slack) entailment.
func (ctx Ctx) leqAtoms(a, b sym.Expr, slack int64) tri.Bool {
	if d, ok := sym.Cmp(a, b); ok { // a - b constant
		return tri.FromBool(d <= slack)
	}
	va, ca, oka := a.AsVarPlusConst()
	vb, cb, okb := b.AsVarPlusConst()
	if !oka || !okb || ctx.G == nil {
		return tri.Unknown
	}
	na, nb := va, vb
	if na == "" {
		na = cg.ZeroVar
	}
	if nb == "" {
		nb = cg.ZeroVar
	}
	// a <= b + slack  <=>  na - nb <= cb - ca + slack
	if ctx.G.Entails(na, nb, cb-ca+slack) {
		return tri.True
	}
	// Refute: b + slack < a  <=>  nb - na <= ca - cb - slack - 1
	if ctx.G.Entails(nb, na, ca-cb-slack-1) {
		return tri.False
	}
	return tri.Unknown
}

// LeqBound decides lhs <= rhs + slack, trying all atom pairs.
func (ctx Ctx) LeqBound(lhs, rhs Bound, slack int64) tri.Bool {
	res := tri.Unknown
	for _, a := range lhs.atoms {
		for _, b := range rhs.atoms {
			switch ctx.leqAtoms(a, b, slack) {
			case tri.True:
				return tri.True
			case tri.False:
				res = tri.False
			}
		}
	}
	return res
}

// EqBound decides lhs == rhs + slack.
func (ctx Ctx) EqBound(lhs, rhs Bound, slack int64) tri.Bool {
	le := ctx.LeqBound(lhs, rhs, slack)
	ge := ctx.LeqBound(rhs, lhs, -slack)
	return le.And(ge)
}

// Contradictory reports whether the bound's atom class is provably broken:
// two atoms that are supposed to witness the same value are strictly ordered
// under the context. Such a class arises when a witness goes stale — the
// constraint that justified it was weakened by a graph join/widen and a later
// path re-pinned the variable to a different value. Every atom-picking proof
// over a contradictory class is unreliable (LeqBound may prove both a <= x
// and x <= b from different atoms), so callers folding or comparing ranges
// must treat such bounds as unusable.
func (ctx Ctx) Contradictory(b Bound) bool {
	for i := 0; i < len(b.atoms); i++ {
		for j := i + 1; j < len(b.atoms); j++ {
			if ctx.leqAtoms(b.atoms[i], b.atoms[j], -1) == tri.True ||
				ctx.leqAtoms(b.atoms[j], b.atoms[i], -1) == tri.True {
				return true
			}
		}
	}
	return false
}

// ContradictorySet reports whether either bound of s has a broken atom class.
func (ctx Ctx) ContradictorySet(s Set) bool {
	return ctx.Contradictory(s.LB) || ctx.Contradictory(s.UB)
}

// Coherent reports whether every comparable pair of atoms in the class is
// provably equal under the context — the class invariant (all atoms
// witness one value) is certified rather than assumed. A sound fixpoint
// leaves only coherent classes, but a stale witness can survive a graph
// join/widen without being provably Contradictory: {np - 2, 2} under
// np >= 4 admits np = 4 (equal) yet breaks at np = 5. Pairs with no
// finite difference bound between their variables at all (e.g. a loop
// counter projected away when its frame left the loop) are skipped: such
// atoms are inert — no proof can pick them and concretization never
// binds them — so demanding a proof about them would reject legitimate
// results. Terminal match records failing this check cannot be certified.
func (ctx Ctx) Coherent(b Bound) bool {
	for i := 0; i < len(b.atoms); i++ {
		for j := i + 1; j < len(b.atoms); j++ {
			if !ctx.comparableAtoms(b.atoms[i], b.atoms[j]) {
				continue
			}
			if ctx.leqAtoms(b.atoms[i], b.atoms[j], 0) != tri.True ||
				ctx.leqAtoms(b.atoms[j], b.atoms[i], 0) != tri.True {
				return false
			}
		}
	}
	return true
}

// comparableAtoms reports whether the context relates a and b at all: a
// syntactic constant difference, or a finite difference bound between
// their variables in either direction.
func (ctx Ctx) comparableAtoms(a, b sym.Expr) bool {
	if _, ok := sym.Cmp(a, b); ok {
		return true
	}
	va, _, oka := a.AsVarPlusConst()
	vb, _, okb := b.AsVarPlusConst()
	if !oka || !okb || ctx.G == nil {
		return false
	}
	na, nb := va, vb
	if na == "" {
		na = cg.ZeroVar
	}
	if nb == "" {
		nb = cg.ZeroVar
	}
	if !ctx.G.HasVar(na) || !ctx.G.HasVar(nb) {
		return false
	}
	if _, ok := ctx.G.DiffBound(na, nb); ok {
		return true
	}
	_, ok := ctx.G.DiffBound(nb, na)
	return ok
}

// CoherentSet reports whether both bounds of s have certified atom classes.
func (ctx Ctx) CoherentSet(s Set) bool {
	return ctx.Coherent(s.LB) && ctx.Coherent(s.UB)
}

// Enrich adds to b every var+c expression the context proves equal to it.
// Each witness is checked against the decoded atoms before any expression is
// built, so enriching an already-enriched bound allocates nothing; the new
// atoms are merged into b in one allocation.
func (ctx Ctx) Enrich(b Bound) Bound {
	if ctx.G == nil || !b.IsValid() || len(b.atoms) >= maxAtoms {
		return b
	}
	// have holds b's atoms decoded as var+c, then each new atom; fresh holds
	// the new atoms in arrival order, so the cap keeps the first ones found.
	var have [maxAtoms]varPlus
	var fresh [maxAtoms]sym.Expr
	for i, a := range b.atoms {
		have[i].v, have[i].c, have[i].ok = a.AsVarPlusConst()
	}
	n, k := len(b.atoms), 0
	var buf [16]cg.Witness // witness lists are short; a longer one spills to the heap
	for i := 0; i < len(b.atoms) && n < maxAtoms; i++ {
		if !have[i].ok {
			continue
		}
		name := have[i].v
		if name == "" {
			name = cg.ZeroVar
		}
		// A variable the graph lacks has no witnesses: the append returns
		// buf empty, with one atom-table lookup instead of two.
		for _, w := range ctx.G.AppendEqualWitnesses(buf[:0], name) {
			// name = w.Var + w.C, so the atom name + c = w.Var + w.C + c.
			nv := varPlus{v: w.Var, c: w.C + have[i].c, ok: true}
			if nv.v == cg.ZeroVar {
				nv.v = ""
			}
			if containsVarPlus(have[:n], nv) {
				continue
			}
			have[n] = nv
			if nv.v == "" {
				fresh[k] = sym.Const(nv.c)
			} else {
				fresh[k] = sym.VarPlus(nv.v, nv.c)
			}
			n, k = n+1, k+1
			if n == maxAtoms {
				break // the cap drops every further witness
			}
		}
	}
	if k == 0 {
		return b
	}
	return b.merge(fresh[:k])
}

// varPlus is an atom decoded by AsVarPlusConst; v == "" is the bare constant
// c, and ok is false for an atom of any other shape.
type varPlus struct {
	v  string
	c  int64
	ok bool
}

func containsVarPlus(have []varPlus, x varPlus) bool {
	for _, h := range have {
		if h == x {
			return true
		}
	}
	return false
}

// merge returns b extended with fresh, atoms that are new to b and to each
// other, keeping key order: fresh is sorted in place, then merged with b's
// atoms into one new slice.
func (b Bound) merge(fresh []sym.Expr) Bound {
	for i := 1; i < len(fresh); i++ {
		for j := i; j > 0 && fresh[j-1].CompareKey(fresh[j]) > 0; j-- {
			fresh[j-1], fresh[j] = fresh[j], fresh[j-1]
		}
	}
	atoms := make([]sym.Expr, 0, len(b.atoms)+len(fresh))
	i := 0
	for _, e := range fresh {
		for i < len(b.atoms) && b.atoms[i].CompareKey(e) < 0 {
			atoms = append(atoms, b.atoms[i])
			i++
		}
		atoms = append(atoms, e)
	}
	return Bound{atoms: append(atoms, b.atoms[i:]...)}
}

// ---------------------------------------------------------------------------
// Sets

// Set is a contiguous symbolic range [LB..UB] of process IDs. A set with
// LB > UB (per the context) is empty. The zero Set is invalid.
type Set struct {
	LB, UB Bound
}

// Range builds [lb..ub].
func Range(lb, ub sym.Expr) Set { return Set{NewBound(lb), NewBound(ub)} }

// Singleton builds [e..e].
func Singleton(e sym.Expr) Set { return Range(e, e) }

// IsValid reports whether both bounds carry at least one atom.
func (s Set) IsValid() bool { return s.LB.IsValid() && s.UB.IsValid() }

// Empty decides whether the set is empty (LB > UB) in the context.
func (s Set) Empty(ctx Ctx) tri.Bool {
	// Empty iff NOT (LB <= UB).
	return ctx.LeqBound(s.LB, s.UB, 0).Not()
}

// Singleton decides whether the set has exactly one element (LB == UB).
func (s Set) IsSingleton(ctx Ctx) tri.Bool { return ctx.EqBound(s.LB, s.UB, 0) }

// Contains decides whether expression e lies within [LB..UB].
func (s Set) Contains(ctx Ctx, e sym.Expr) tri.Bool {
	b := NewBound(e)
	lo := ctx.LeqBound(s.LB, b, 0)
	hi := ctx.LeqBound(b, s.UB, 0)
	return lo.And(hi)
}

// ContainsSet decides whether o ⊆ s.
func (s Set) ContainsSet(ctx Ctx, o Set) tri.Bool {
	if o.Empty(ctx) == tri.True {
		return tri.True
	}
	lo := ctx.LeqBound(s.LB, o.LB, 0)
	hi := ctx.LeqBound(o.UB, s.UB, 0)
	return lo.And(hi)
}

// SameRange decides whether s and o denote the same range.
func (s Set) SameRange(ctx Ctx, o Set) tri.Bool {
	return ctx.EqBound(s.LB, o.LB, 0).And(ctx.EqBound(s.UB, o.UB, 0))
}

// Offset translates the whole range by constant c.
func (s Set) Offset(c int64) Set { return Set{s.LB.Offset(c), s.UB.Offset(c)} }

// OffsetExpr translates the range by a symbolic amount, keeping only atoms
// that remain in var+c form. The result may be invalid if no atom survives.
func (s Set) OffsetExpr(ofs sym.Expr) Set {
	return Set{s.LB.OffsetExpr(ofs), s.UB.OffsetExpr(ofs)}
}

// OffsetExpr shifts the bound by a symbolic amount, keeping affine atoms.
func (b Bound) OffsetExpr(ofs sym.Expr) Bound {
	out := Bound{}
	for _, a := range b.atoms {
		na := sym.Add(a, ofs)
		if _, _, ok := na.AsVarPlusConst(); ok {
			out = out.Insert(na)
		}
	}
	return out
}

// RemovePoint splits s around a member x, returning the (possibly empty)
// left part [LB..x-1], the singleton [x..x], and right part [x+1..UB].
// The caller is responsible for having checked Contains(x).
func (s Set) RemovePoint(x sym.Expr) (left, mid, right Set) {
	xb := NewBound(x)
	left = Set{s.LB, xb.Offset(-1)}
	mid = Set{xb, xb}
	right = Set{xb.Offset(1), s.UB}
	return left, mid, right
}

// SplitBelow splits s at pivot x into [LB..x-1] and [x..UB] (elements < x
// and elements >= x).
func (s Set) SplitBelow(x sym.Expr) (lt, ge Set) {
	xb := NewBound(x)
	return Set{s.LB, xb.Offset(-1)}, Set{xb, s.UB}
}

// UnionAdjacent merges s and o when they are adjacent or overlapping
// contiguous ranges (s before o). ok=false when adjacency cannot be proved.
func (s Set) UnionAdjacent(ctx Ctx, o Set) (Set, bool) {
	if s.Empty(ctx) == tri.True {
		return o, true
	}
	if o.Empty(ctx) == tri.True {
		return s, true
	}
	// s.UB + 1 >= o.LB (no gap) and s.LB <= o.LB (ordering).
	noGap := ctx.LeqBound(o.LB, s.UB, 1)
	ordered := ctx.LeqBound(s.LB, o.LB, 0)
	if noGap != tri.True || ordered != tri.True {
		return Set{}, false
	}
	// New upper bound = max(s.UB, o.UB); prove one side dominates.
	if ctx.LeqBound(s.UB, o.UB, 0) == tri.True {
		return Set{s.LB, o.UB}, true
	}
	if ctx.LeqBound(o.UB, s.UB, 0) == tri.True {
		return Set{s.LB, s.UB}, true
	}
	return Set{}, false
}

// Intersect computes the intersection of two contiguous ranges:
// [max(lb1,lb2)..min(ub1,ub2)], requiring the bound order to be provable in
// the context.
func Intersect(ctx Ctx, a, b Set) (Set, bool) {
	lb, ok := pickGreater(ctx, a.LB, b.LB)
	if !ok {
		return Set{}, false
	}
	ub, ok := pickLesser(ctx, a.UB, b.UB)
	if !ok {
		return Set{}, false
	}
	return Set{LB: lb, UB: ub}, true
}

func pickGreater(ctx Ctx, a, b Bound) (Bound, bool) {
	if ctx.LeqBound(a, b, 0) == tri.True {
		return b, true
	}
	if ctx.LeqBound(b, a, 0) == tri.True {
		return a, true
	}
	return Bound{}, false
}

func pickLesser(ctx Ctx, a, b Bound) (Bound, bool) {
	if ctx.LeqBound(a, b, 0) == tri.True {
		return a, true
	}
	if ctx.LeqBound(b, a, 0) == tri.True {
		return b, true
	}
	return Bound{}, false
}

// Subtract computes whole \ part for a contiguous part of a contiguous
// whole, returning the leftover pieces (at most two). The caller must have
// established part ⊆ whole and part non-empty for the result to be exact.
func Subtract(ctx Ctx, whole, part Set) ([]Set, bool) {
	if whole.SameRange(ctx, part) == tri.True {
		return nil, true
	}
	if whole.ContainsSet(ctx, part) != tri.True {
		return nil, false
	}
	var rests []Set
	if ctx.EqBound(whole.LB, part.LB, 0) != tri.True {
		rests = append(rests, Set{LB: whole.LB, UB: part.LB.Offset(-1)})
	}
	if ctx.EqBound(part.UB, whole.UB, 0) != tri.True {
		rests = append(rests, Set{LB: part.UB.Offset(1), UB: whole.UB})
	}
	return rests, true
}

// Widen intersects the bound atom sets pairwise (Section VII-D). Both sides
// should be Enriched first. ok=false when either intersection is empty.
func (s Set) Widen(o Set) (Set, bool) {
	lb := s.LB.Intersect(o.LB)
	ub := s.UB.Intersect(o.UB)
	if !lb.IsValid() || !ub.IsValid() {
		return Set{}, false
	}
	return Set{lb, ub}, true
}

// Subst rewrites variable name to repl in both bounds. The result may be
// invalid if every atom mentioned the variable in a non-affine way.
func (s Set) Subst(name string, repl sym.Expr) Set {
	return Set{s.LB.Subst(name, repl), s.UB.Subst(name, repl)}
}

// SubstAll applies a simultaneous substitution to both bounds.
func (s Set) SubstAll(env map[string]sym.Expr) Set {
	return Set{s.LB.SubstAll(env), s.UB.SubstAll(env)}
}

// Uses reports whether either bound references the variable.
func (s Set) Uses(name string) bool { return s.LB.Uses(name) || s.UB.Uses(name) }

// Enrich expands both bounds with context-equal atoms.
func (s Set) Enrich(ctx Ctx) Set {
	return Set{ctx.Enrich(s.LB), ctx.Enrich(s.UB)}
}

// ConcreteSlice enumerates the set's members under a concrete environment
// (for testing against the simulator). Each bound is evaluated through an
// atom whose variables env all binds — the atoms are equality witnesses, so
// any fully-bound one is exact, while Eval on an atom with an unbound
// variable (an internal ps-var witness, say) would silently read it as 0 and
// concretize a wildly wrong range.
func (s Set) ConcreteSlice(env map[string]int64) []int64 {
	lo, okL := evalBound(s.LB, env)
	hi, okH := evalBound(s.UB, env)
	if !okL || !okH || hi < lo {
		return nil
	}
	out := make([]int64, 0, hi-lo+1)
	for v := lo; v <= hi; v++ {
		out = append(out, v)
	}
	return out
}

// Concretizable reports whether both bounds carry an atom fully bound by env.
func (s Set) Concretizable(env map[string]int64) bool {
	_, okL := evalBound(s.LB, env)
	_, okH := evalBound(s.UB, env)
	return okL && okH
}

// evalBound evaluates the bound through its first atom whose variables are
// all bound in env. ok=false when no atom qualifies.
func evalBound(b Bound, env map[string]int64) (int64, bool) {
	for _, a := range b.atoms {
		bound := true
		for _, v := range a.Vars() {
			if _, ok := env[v]; !ok {
				bound = false
				break
			}
		}
		if bound {
			return a.Eval(env), true
		}
	}
	return 0, false
}

func (s Set) String() string {
	if !s.IsValid() {
		return "[invalid]"
	}
	if len(s.LB.atoms) == 1 && len(s.UB.atoms) == 1 && sym.Equal(s.LB.atoms[0], s.UB.atoms[0]) {
		return "[" + s.LB.String() + "]"
	}
	return "[" + s.LB.String() + ".." + s.UB.String() + "]"
}

// StringAll renders both bounds with all atoms.
func (s Set) StringAll() string {
	return "[" + s.LB.StringAll() + ".." + s.UB.StringAll() + "]"
}
