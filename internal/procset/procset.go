// Package procset implements the symbolic process-set representation of the
// paper's Section VII-B: contiguous ranges [lb..ub] whose bounds are *sets of
// equivalent expressions* (e.g. {1, i} when the constraint state knows i=1).
// Range emptiness, membership, splitting and widening are all decided
// relative to a constraint graph carrying the currently known facts.
package procset

import (
	"bytes"
	"fmt"
	"slices"
	"strconv"
	"strings"

	"repro/internal/cg"
	"repro/internal/sym"
	"repro/internal/tri"
)

// Atom is one expression of a bound. The Section VII client's atoms are all
// var + c, stored as the interned variable V and the offset C (V is
// cg.AtomZero for the constant C), so comparing, enriching and substituting
// them never hashes a name or builds a polynomial. Any other polynomial,
// such as the HSM client's 2*np or nrows*ncols, keeps its sym.Expr in poly
// and takes the general path. The zero Atom is the constant 0.
type Atom struct {
	V    cg.Atom
	C    int64
	poly *sym.Expr
}

// AtomOf converts e to an atom, interning the variable of a var+c form. A
// form over the literal cg.ZeroVar stays general, so a constant pair never
// stands for that variable.
func AtomOf(e sym.Expr) Atom {
	v, c, ok := e.AsVarPlusConst()
	switch {
	case ok && v == "":
		return Atom{V: cg.AtomZero, C: c}
	case ok && v != cg.ZeroVar:
		return Atom{V: cg.Intern(v), C: c}
	}
	p := new(sym.Expr) // only a general atom allocates
	*p = e
	return Atom{poly: p}
}

// IsVarPlus reports whether a is a var+c form, a constant included.
func (a Atom) IsVarPlus() bool { return a.poly == nil }

// Expr returns a as a polynomial.
func (a Atom) Expr() sym.Expr {
	switch {
	case a.poly != nil:
		return *a.poly
	case a.V == cg.AtomZero:
		return sym.Const(a.C)
	}
	return sym.VarPlus(a.V.String(), a.C)
}

// Equal reports whether a and b are the same expression. A general atom is
// never var+c, so the two representations never meet.
func (a Atom) Equal(b Atom) bool {
	if a.poly == nil || b.poly == nil {
		return a.poly == nil && b.poly == nil && a.V == b.V && a.C == b.C
	}
	return sym.Equal(*a.poly, *b.poly)
}

// ConstDiff returns a - b when that difference is a constant, as sym.Cmp.
func (a Atom) ConstDiff(b Atom) (int64, bool) {
	switch {
	case a.poly == nil && b.poly == nil:
		if a.V == b.V {
			return a.C - b.C, true
		}
	case a.poly != nil && b.poly != nil:
		return sym.Cmp(*a.poly, *b.poly)
	}
	return 0, false
}

// uses reports whether variable name appears in a.
func (a Atom) uses(name string) bool {
	if a.poly != nil {
		return a.poly.Uses(name)
	}
	return a.V != cg.AtomZero && a.V.String() == name
}

// appendKey renders a's sym key: "c|1*name", "1*name" or "c".
func (a Atom) appendKey(dst []byte) []byte {
	switch {
	case a.poly != nil:
		return a.poly.AppendKey(dst)
	case a.V == cg.AtomZero:
		return strconv.AppendInt(dst, a.C, 10)
	case a.C != 0:
		dst = append(strconv.AppendInt(dst, a.C, 10), '|')
	}
	return append(append(dst, "1*"...), a.V.String()...)
}

// compareAtoms orders atoms as sym orders their keys. Both keys render into
// stack buffers; only a key longer than 64 bytes spills to the heap.
func compareAtoms(a, b Atom) int {
	var ka, kb [64]byte
	return bytes.Compare(a.appendKey(ka[:0]), b.appendKey(kb[:0]))
}

// String renders a as sym.Expr.String does: "x", "x + 3", "x - 3", "-3".
func (a Atom) String() string {
	switch {
	case a.poly != nil:
		return a.poly.String()
	case a.V == cg.AtomZero && a.C >= 0:
		return strconv.FormatInt(a.C, 10)
	case a.C == 0:
		return a.V.String()
	}
	var buf [64]byte
	return string(a.appendString(buf[:0]))
}

// appendString appends what String renders.
func (a Atom) appendString(dst []byte) []byte {
	switch {
	case a.poly != nil:
		return append(dst, a.poly.String()...)
	case a.V == cg.AtomZero:
		return strconv.AppendInt(dst, a.C, 10)
	}
	dst = append(dst, a.V.String()...)
	switch {
	case a.C > 0:
		return strconv.AppendInt(append(dst, " + "...), a.C, 10)
	case a.C < 0:
		return strconv.AppendInt(append(dst, " - "...), -a.C, 10)
	}
	return dst
}

// Bound is one end of a range: a non-empty set of atoms that are all known
// to be equal to the bound's value. Atoms are deduplicated and kept sorted
// by sym key for deterministic output.
type Bound struct {
	atoms []Atom
}

// NewBound builds a bound from one or more equivalent expressions, through
// m's bound table (nil outside an analysis).
func NewBound(m *Memo, exprs ...sym.Expr) Bound {
	var l atomList
	for _, e := range exprs {
		l.add(AtomOf(e))
	}
	return l.bound(m)
}

// maxAtoms caps the number of equivalent expressions kept per bound.
// Dropping extra atoms loses precision only (they are all equal), and the
// cap keeps bound comparisons from degrading quadratically when enrichment
// keeps finding witnesses.
const maxAtoms = 8

// atomList gathers the atoms of a bound being rebuilt: the first maxAtoms
// distinct ones in input order, the atoms one Insert after another kept.
type atomList struct {
	buf [maxAtoms]Atom
	n   int
}

func (l *atomList) add(a Atom) {
	if l.n == maxAtoms || has(l.buf[:l.n], a) {
		return
	}
	l.buf[l.n] = a
	l.n++
}

// addExpr adds e when it is a var+c form; any other shape is dropped.
func (l *atomList) addExpr(e sym.Expr) {
	if _, _, ok := e.AsVarPlusConst(); ok {
		l.add(AtomOf(e))
	}
}

// addShifted adds r + c when that is a var+c form.
func (l *atomList) addShifted(r Atom, c int64) {
	if r.poly == nil {
		l.add(Atom{V: r.V, C: r.C + c})
	} else {
		l.addExpr(sym.AddConst(*r.poly, c))
	}
}

// bound sorts the atoms by key and returns them as a bound, through m's
// bound table.
func (l *atomList) bound(m *Memo) Bound {
	atoms := l.buf[:l.n]
	sortAtoms(atoms)
	return m.bound(atoms)
}

// sortAtoms sorts a few atoms by key, by insertion.
func sortAtoms(atoms []Atom) {
	for i := 1; i < len(atoms); i++ {
		for j := i; j > 0 && compareAtoms(atoms[j-1], atoms[j]) > 0; j-- {
			atoms[j-1], atoms[j] = atoms[j], atoms[j-1]
		}
	}
}

// has reports whether a is one of atoms.
func has(atoms []Atom, a Atom) bool {
	for _, h := range atoms {
		if h.Equal(a) {
			return true
		}
	}
	return false
}

// Atoms returns the equivalent expressions. Do not mutate them: equal
// bounds built through one Memo share one slice.
func (b Bound) Atoms() []Atom { return b.atoms }

// IsValid reports whether the bound has at least one atom.
func (b Bound) IsValid() bool { return len(b.atoms) > 0 }

// Primary returns a representative atom: prefer a constant, then the
// smallest by key; the constant 0 for an invalid bound.
func (b Bound) Primary() Atom {
	for _, a := range b.atoms {
		if a.poly == nil && a.V == cg.AtomZero {
			return a
		}
	}
	if len(b.atoms) == 0 {
		return Atom{}
	}
	return b.atoms[0]
}

// Offset returns the bound shifted by constant c (applied to every atom).
// Shifting keeps the atoms distinct but may reorder their keys.
func (b Bound) Offset(m *Memo, c int64) Bound {
	if c == 0 {
		return b
	}
	var l atomList
	for _, a := range b.atoms {
		if a.poly != nil {
			l.add(AtomOf(sym.AddConst(*a.poly, c)))
		} else {
			l.add(Atom{V: a.V, C: a.C + c})
		}
	}
	return l.bound(m)
}

// Subst applies a variable substitution to every atom, dropping atoms that
// stop being affine var+c forms. A bound of var+c atoms none of which uses
// name is returned as is.
func (b Bound) Subst(m *Memo, name string, repl sym.Expr) Bound {
	unchanged := true
	for _, a := range b.atoms {
		if a.poly != nil || a.uses(name) {
			unchanged = false
			break
		}
	}
	if unchanged {
		return b
	}
	r := AtomOf(repl)
	var l atomList
	for _, a := range b.atoms {
		switch {
		case a.poly != nil:
			l.addExpr(sym.Subst(*a.poly, name, repl))
		case a.uses(name):
			l.addShifted(r, a.C)
		default:
			l.add(a)
		}
	}
	return l.bound(m)
}

// Rename renames the variables from[k] to to[k] in every atom at once, as
// a simultaneous substitution of each from[k] by the variable to[k] would,
// dropping atoms that stop being var+c forms (a general atom is rewritten
// through sym and kept only if it becomes one). A bound of var+c atoms
// that names none of from is returned as is, with changed false.
func (b Bound) Rename(m *Memo, from, to []cg.Atom) (r Bound, changed bool) {
	var l atomList
	for _, a := range b.atoms {
		if a.poly != nil {
			l.addExpr(RenameExpr(*a.poly, from, to))
			changed = true
			continue
		}
		if k := slices.Index(from, a.V); k >= 0 && a.V != cg.AtomZero {
			a.V = to[k]
			changed = true
		}
		l.add(a)
	}
	if !changed {
		return b, false
	}
	return l.bound(m), true
}

// RenameExpr renames the variables from[k] to to[k] in e at once, through
// sym.SubstAll (general atoms and pending-send expressions are rare).
func RenameExpr(e sym.Expr, from, to []cg.Atom) sym.Expr {
	env := make(map[string]sym.Expr, len(from))
	for k, a := range from {
		env[a.String()] = sym.Var(to[k].String())
	}
	return sym.SubstAll(e, env)
}

// Uses reports whether any atom references the variable.
func (b Bound) Uses(name string) bool {
	for _, a := range b.atoms {
		if a.uses(name) {
			return true
		}
	}
	return false
}

// UsesAtom is Uses for an interned variable other than cg.AtomZero: a
// var+c atom compares atoms instead of names.
func (b Bound) UsesAtom(v cg.Atom) bool {
	return slices.ContainsFunc(b.atoms, func(a Atom) bool { return a.poly == nil && a.V == v || a.poly != nil && a.poly.Uses(v.String()) })
}

// DropUses removes atoms referencing name. The result may be invalid.
func (b Bound) DropUses(m *Memo, name string) Bound {
	if !b.Uses(name) {
		return b
	}
	var l atomList
	for _, a := range b.atoms {
		if !a.uses(name) {
			l.add(a)
		}
	}
	return l.bound(m)
}

// Intersect keeps atoms present in both bounds — the paper's widening of
// bounds. The result may be invalid (no common atom). b's atoms are already
// in key order, so a filtered copy keeps that order; when every atom
// survives, b itself is the result, and a bound that shares its slice with
// o (m's table gives equal bounds one slice) is returned unscanned.
func (b Bound) Intersect(m *Memo, o Bound) Bound {
	if b.same(o) {
		return b
	}
	for i, a := range b.atoms {
		if has(o.atoms, a) {
			continue
		}
		var keep [maxAtoms]Atom
		n := copy(keep[:], b.atoms[:i])
		for _, a := range b.atoms[i+1:] {
			if has(o.atoms, a) {
				keep[n] = a
				n++
			}
		}
		return m.bound(keep[:n])
	}
	return b
}

// SharesAtom reports whether b and o have an atom in common, that is,
// whether Intersect would return a valid bound, without building it.
func (b Bound) SharesAtom(o Bound) bool {
	for _, a := range b.atoms {
		if has(o.atoms, a) {
			return true
		}
	}
	return false
}

// same reports whether b and o hold one and the same slice.
func (b Bound) same(o Bound) bool {
	return len(b.atoms) == len(o.atoms) && (len(b.atoms) == 0 || &b.atoms[0] == &o.atoms[0])
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
	// Memo, when set, caches Enrich by graph generation. It belongs to one
	// goroutine at a time.
	Memo *Memo
}

// LeqAtom decides a <= b + slack for two atoms using the context: a
// constant difference decides it outright, and two var+c atoms over
// different variables ask the graph.
func (ctx Ctx) LeqAtom(a, b Atom, slack int64) tri.Bool {
	if d, ok := a.ConstDiff(b); ok {
		return tri.FromBool(d <= slack)
	}
	if a.poly != nil || b.poly != nil || ctx.G == nil {
		return tri.Unknown
	}
	// a <= b + slack  <=>  a.V - b.V <= b.C - a.C + slack
	if ctx.G.EntailsA(a.V, b.V, b.C-a.C+slack) {
		return tri.True
	}
	// Refute: b + slack < a  <=>  b.V - a.V <= a.C - b.C - slack - 1
	if ctx.G.EntailsA(b.V, a.V, a.C-b.C-slack-1) {
		return tri.False
	}
	return tri.Unknown
}

// LeqBound decides lhs <= rhs + slack, trying all atom pairs.
func (ctx Ctx) LeqBound(lhs, rhs Bound, slack int64) tri.Bool {
	res := tri.Unknown
	for _, a := range lhs.atoms {
		for _, b := range rhs.atoms {
			switch ctx.LeqAtom(a, b, slack) {
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
			if ctx.LeqAtom(b.atoms[i], b.atoms[j], -1) == tri.True ||
				ctx.LeqAtom(b.atoms[j], b.atoms[i], -1) == tri.True {
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
			if ctx.LeqAtom(b.atoms[i], b.atoms[j], 0) != tri.True ||
				ctx.LeqAtom(b.atoms[j], b.atoms[i], 0) != tri.True {
				return false
			}
		}
	}
	return true
}

// comparableAtoms reports whether the context relates a and b at all: a
// syntactic constant difference, or a finite difference bound between
// their variables in either direction.
func (ctx Ctx) comparableAtoms(a, b Atom) bool {
	if _, ok := a.ConstDiff(b); ok {
		return true
	}
	if a.poly != nil || b.poly != nil || ctx.G == nil {
		return false
	}
	if _, ok := ctx.G.DiffBoundA(a.V, b.V); ok {
		return true
	}
	_, ok := ctx.G.DiffBoundA(b.V, a.V)
	return ok
}

// CoherentSet reports whether both bounds of s have certified atom classes.
func (ctx Ctx) CoherentSet(s Set) bool {
	return ctx.Coherent(s.LB) && ctx.Coherent(s.UB)
}

// Enrich adds to b every var+c atom the context proves equal to it. The
// witnesses come from the graph's per-generation cache as atom pairs, and
// each is checked against the atoms already held before it is kept, so
// enriching an already-enriched bound allocates nothing; the new atoms are
// merged into b in one allocation. With a Memo, a bound already enriched
// under the graph's generation is looked up instead.
func (ctx Ctx) Enrich(b Bound) Bound {
	if ctx.G == nil || !b.IsValid() || len(b.atoms) >= maxAtoms {
		return b
	}
	if ctx.Memo == nil {
		return ctx.enrich(b)
	}
	gen := ctx.G.Generation()
	slot := ctx.Memo.slot(gen, b.atoms)
	if slot == nil {
		return ctx.enrich(b)
	}
	if slot.gen == gen && slices.Equal(slot.in, b.atoms) {
		if len(slot.out.atoms) == len(b.atoms) {
			return b // nothing to add, as enrich would return b itself
		}
		return slot.out
	}
	out := ctx.enrich(b)
	*slot = memoSlot{gen: gen, in: b.atoms, out: out}
	return out
}

// enrich is Enrich without the memo.
func (ctx Ctx) enrich(b Bound) Bound {
	// have holds b's atoms, then each new one in arrival order, so the cap
	// keeps the first ones found.
	var have [maxAtoms]Atom
	n := copy(have[:], b.atoms)
	for i := 0; i < len(b.atoms) && n < maxAtoms; i++ {
		a := b.atoms[i]
		if a.poly != nil {
			continue
		}
		for _, w := range ctx.G.EqualWitnessesA(a.V) {
			// a.V = w.Var + w.C, so a = w.Var + w.C + a.C.
			nv := Atom{V: w.Var, C: w.C + a.C}
			if has(have[:n], nv) {
				continue
			}
			have[n] = nv
			n++
			if n == maxAtoms {
				break // the cap drops every further witness
			}
		}
	}
	if n == len(b.atoms) {
		return b
	}
	return b.merge(ctx.Memo, have[len(b.atoms):n])
}

// memoSlots is the number of enrichment slots, a power of two. At 56 bytes
// a slot, a Memo's enrichment table stays below Go's 32 KB large-object
// size.
const memoSlots = 256

// boundSlots is the number of bound-table slots, a power of two.
const boundSlots = 256

// Memo holds two direct-mapped tables for one analysis. The first caches
// Ctx.Enrich keyed by (graph generation, input atoms), so each distinct
// bound is enriched once per graph content instead of once per caller.
// Enrich reads the graph only through its generation's witness table, so a
// hit returns exactly what recomputing would. The second hash-conses the
// bounds the analysis builds: every bound-producing operation given the
// memo assembles its atoms on the stack and takes the table's slice when
// the slot for those atoms holds the same ones, so equal bounds built
// again share one slice instead of allocating one each. Slots hold their
// bounds by reference, since bounds are immutable. A Memo is not safe for
// concurrent use.
type Memo struct {
	slots  []memoSlot
	bounds [][]Atom // nil once DisableBounds turned the table off
}

// memoSlot is one cached enrichment: in enriched under generation gen is
// out.
type memoSlot struct {
	gen uint64
	in  []Atom
	out Bound
}

// NewMemo returns an empty memo.
func NewMemo() *Memo { return newMemo(memoSlots) }

// newMemo returns an empty memo of n enrichment slots, n a power of two.
func newMemo(n int) *Memo {
	return &Memo{slots: make([]memoSlot, n), bounds: make([][]Atom, boundSlots)}
}

// DisableBounds turns m's bound table off, so that every bound m is given
// to build allocates, as without a memo. Results are the same either way;
// tests use it to check that.
func (m *Memo) DisableBounds() { m.bounds = nil }

// mix is the multiplier of the memo's hashes, 2^64 over the golden ratio.
const mix = 0x9e3779b97f4a7c15

// hashAtoms hashes atoms from seed h. ok is false for a general atom, whose
// polynomial no key covers; keyed atoms are all var+c, so == compares them
// by V and C.
func hashAtoms(h uint64, atoms []Atom) (_ uint64, ok bool) {
	for _, a := range atoms {
		if a.poly != nil {
			return 0, false
		}
		h = (h ^ uint64(a.V)) * mix
		h = (h ^ uint64(a.C)) * mix
	}
	return h ^ h>>32, true
}

// slot returns the slot that caches atoms under generation gen, or nil
// when the pair is not cached at all: an inconsistent graph (generation 0)
// or a general atom.
func (m *Memo) slot(gen uint64, atoms []Atom) *memoSlot {
	if gen == 0 {
		return nil
	}
	h, ok := hashAtoms(gen*mix, atoms)
	if !ok {
		return nil
	}
	return &m.slots[h&uint64(len(m.slots)-1)]
}

// bound returns atoms, distinct and in key order, as a bound: the table's
// slice when the slot for atoms holds the same atoms, else a copy, which
// takes the slot. The slot decides only which array holds the bound, never
// its content. Without a table (a nil memo, or one whose table is off) or
// with a general atom, every call copies.
func (m *Memo) bound(atoms []Atom) Bound {
	if len(atoms) == 0 {
		return Bound{}
	}
	s := m.boundSlot(atoms)
	if s != nil && slices.Equal(*s, atoms) {
		return Bound{atoms: *s}
	}
	cp := make([]Atom, len(atoms))
	copy(cp, atoms)
	if s != nil {
		*s = cp
	}
	return Bound{atoms: cp}
}

// boundSlot returns the bound-table slot for atoms, keyed by their (V, C)
// pairs, or nil without a table or for a general atom.
func (m *Memo) boundSlot(atoms []Atom) *[]Atom {
	if m == nil || m.bounds == nil {
		return nil
	}
	h, ok := hashAtoms(0, atoms)
	if !ok {
		return nil
	}
	return &m.bounds[h&(boundSlots-1)]
}

// CheckBounds returns the number of bounds m's table holds, and an error
// naming the first one whose atoms no longer key the slot holding them,
// which only a write through Bound.Atoms into a shared slice could cause.
func (m *Memo) CheckBounds() (cached int, err error) {
	for i, atoms := range m.bounds {
		if atoms == nil {
			continue
		}
		cached++
		if m.boundSlot(atoms) != &m.bounds[i] {
			return cached, fmt.Errorf("bound slot %d holds %s, which keys another slot", i, Bound{atoms}.StringAll())
		}
	}
	return cached, nil
}

// merge returns b extended with fresh, atoms that are new to b and to each
// other, keeping key order: fresh is sorted in place, then merged with b's
// atoms on the stack and built through m's bound table.
func (b Bound) merge(m *Memo, fresh []Atom) Bound {
	sortAtoms(fresh)
	var buf [maxAtoms]Atom
	atoms := buf[:0]
	i := 0
	for _, e := range fresh {
		for i < len(b.atoms) && compareAtoms(b.atoms[i], e) < 0 {
			atoms = append(atoms, b.atoms[i])
			i++
		}
		atoms = append(atoms, e)
	}
	return m.bound(append(atoms, b.atoms[i:]...))
}

// ---------------------------------------------------------------------------
// Sets

// Set is a contiguous symbolic range [LB..UB] of process IDs. A set with
// LB > UB (per the context) is empty. The zero Set is invalid.
type Set struct {
	LB, UB Bound
}

// Range builds [lb..ub] through m's bound table (nil outside an analysis).
func Range(m *Memo, lb, ub sym.Expr) Set { return Set{NewBound(m, lb), NewBound(m, ub)} }

// Singleton builds [e..e] through m's bound table.
func Singleton(m *Memo, e sym.Expr) Set {
	b := NewBound(m, e)
	return Set{b, b}
}

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
	b := NewBound(ctx.Memo, e)
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
func (s Set) Offset(m *Memo, c int64) Set { return Set{s.LB.Offset(m, c), s.UB.Offset(m, c)} }

// OffsetExpr translates the range by a symbolic amount, keeping only atoms
// that remain in var+c form. The result may be invalid if no atom survives.
func (s Set) OffsetExpr(m *Memo, ofs sym.Expr) Set {
	return Set{s.LB.OffsetExpr(m, ofs), s.UB.OffsetExpr(m, ofs)}
}

// OffsetExpr shifts the bound by a symbolic amount, keeping var+c atoms.
// A constant shifts every var+c atom, a var+c amount shifts only the
// constants (the sum of two variables is not var+c), and anything else
// takes the general sum.
func (b Bound) OffsetExpr(m *Memo, ofs sym.Expr) Bound {
	o := AtomOf(ofs)
	var l atomList
	for _, a := range b.atoms {
		switch {
		case a.poly != nil || o.poly != nil:
			l.addExpr(sym.Add(a.Expr(), ofs))
		case o.V == cg.AtomZero:
			l.add(Atom{V: a.V, C: a.C + o.C})
		case a.V == cg.AtomZero:
			l.add(Atom{V: o.V, C: a.C + o.C})
		}
	}
	return l.bound(m)
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
		rests = append(rests, Set{LB: whole.LB, UB: part.LB.Offset(ctx.Memo, -1)})
	}
	if ctx.EqBound(part.UB, whole.UB, 0) != tri.True {
		rests = append(rests, Set{LB: part.UB.Offset(ctx.Memo, 1), UB: whole.UB})
	}
	return rests, true
}

// Widen intersects the bound atom sets pairwise (Section VII-D), through
// m's bound table. Both sides should be Enriched first. ok=false when
// either intersection is empty.
func (s Set) Widen(m *Memo, o Set) (Set, bool) {
	lb := s.LB.Intersect(m, o.LB)
	ub := s.UB.Intersect(m, o.UB)
	if !lb.IsValid() || !ub.IsValid() {
		return Set{}, false
	}
	return Set{lb, ub}, true
}

// Subst rewrites variable name to repl in both bounds. The result may be
// invalid if every atom mentioned the variable in a non-affine way.
func (s Set) Subst(m *Memo, name string, repl sym.Expr) Set {
	return Set{s.LB.Subst(m, name, repl), s.UB.Subst(m, name, repl)}
}

// Rename renames variables in both bounds (Bound.Rename); changed is
// false, and s returned as is, when neither bound changes.
func (s Set) Rename(m *Memo, from, to []cg.Atom) (Set, bool) {
	lb, c1 := s.LB.Rename(m, from, to)
	ub, c2 := s.UB.Rename(m, from, to)
	if !c1 && !c2 {
		return s, false
	}
	return Set{lb, ub}, true
}

// DropUses removes the atoms referencing name from both bounds. The result
// may be invalid.
func (s Set) DropUses(m *Memo, name string) Set {
	return Set{s.LB.DropUses(m, name), s.UB.DropUses(m, name)}
}

// Uses reports whether either bound references the variable.
func (s Set) Uses(name string) bool { return s.LB.Uses(name) || s.UB.Uses(name) }

// UsesAtom is Uses for an interned variable (Bound.UsesAtom).
func (s Set) UsesAtom(v cg.Atom) bool { return s.LB.UsesAtom(v) || s.UB.UsesAtom(v) }

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

// evalBound evaluates the bound through its first atom whose variables are
// all bound in env. ok=false when no atom qualifies.
func evalBound(b Bound, env map[string]int64) (int64, bool) {
	for _, atom := range b.atoms {
		a := atom.Expr()
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

// String renders s as "[lb..ub]", or "[x]" for a set whose bounds are one
// and the same atom, with each bound's primary atom.
func (s Set) String() string {
	var buf [64]byte
	return string(s.AppendString(buf[:0]))
}

// AppendString appends what String renders. Only a general atom's
// rendering allocates.
func (s Set) AppendString(dst []byte) []byte {
	if !s.IsValid() {
		return append(dst, "[invalid]"...)
	}
	dst = s.LB.Primary().appendString(append(dst, '['))
	if len(s.LB.atoms) != 1 || len(s.UB.atoms) != 1 || !s.LB.atoms[0].Equal(s.UB.atoms[0]) {
		dst = s.UB.Primary().appendString(append(dst, ".."...))
	}
	return append(dst, ']')
}

// StringAll renders both bounds with all atoms.
func (s Set) StringAll() string {
	return "[" + s.LB.StringAll() + ".." + s.UB.StringAll() + "]"
}
