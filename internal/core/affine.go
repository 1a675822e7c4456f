package core

import (
	"repro/internal/ast"
	"repro/internal/cg"
	"repro/internal/procset"
	"repro/internal/sem"
	"repro/internal/sym"
	"repro/internal/tri"
)

// Affine is an MPL integer expression in the shape the Section VII client
// reasons about: ID·id + K₁·V₁ + … + Kₙ·Vₙ + c over interned variables.
// The pairs (V, K), ID and c live in the value, so translating an
// expression and deciding a comparison, a match or a rank bound over it
// allocate nothing (DESIGN.md §24). What the pairs cannot hold — a general
// bound atom standing for id, or a variable past the last pair — stays in
// the polynomial residual, the only part that allocates.
//
// A form is canonical: its pairs name distinct variables with nonzero
// coefficients, and a residual is left only when the expression has no
// form without one (a product of variables, or more variables than pairs).
// A reader that finds a residual may therefore treat the expression as
// outside var+c without looking into it.
type Affine struct {
	ID    int64 // coefficient of id; 0 once id resolved to a range's atom
	c     int64 // constant
	n     int   // pairs in use
	terms [affineTerms]affineTerm
	res   sym.Expr
}

// affineTerms is the number of variables a form holds without a residual.
// Every rank-bounds target of the benchmark workloads names at most one
// variable besides id; a comparison's difference may name two.
const affineTerms = 2

// affineTerm is one variable of a form with its coefficient.
type affineTerm struct {
	v cg.Atom
	k int64
}

// AffineID translates the MPL integer expression e executed by set ps,
// keeping the builtin id as the form's ID coefficient: the matchers' and the
// rank-bounds check's reading. ok is false outside the affine fragment
// (division, modulus, a product of two non-constants).
func (st *State) AffineID(ps *ProcSet, e ast.Expr) (Affine, bool) {
	t := translator{st: st, ps: ps, keepID: true}
	return t.form(e)
}

// affineAt translates e like AffineID, except that id stands for the
// process of range rng, which names one only when rng is a singleton: id
// then resolves to rng's primary atom, and otherwise e has no form.
func (st *State) affineAt(ps *ProcSet, rng procset.Set, e ast.Expr) (Affine, bool) {
	t := translator{st: st, ps: ps, rng: rng}
	return t.form(e)
}

// translator is the one translation of MPL integer expressions into forms:
// program variables are the executing set's atoms, and id either stays a
// coefficient (keepID) or resolves on rng.
type translator struct {
	st     *State
	ps     *ProcSet
	rng    procset.Set
	keepID bool
}

func (t *translator) form(e ast.Expr) (Affine, bool) {
	switch x := e.(type) {
	case *ast.IntLit:
		return Affine{c: x.Value}, true
	case *ast.Ident:
		switch x.Name {
		case sem.NPVar:
			return varAffine(npAtom), true
		case sem.IDVar:
			switch {
			case t.keepID:
				return Affine{ID: 1}, true
			case t.rng.IsSingleton(t.st.Ctx()) == tri.True:
				return atomAffine(t.rng.LB.Primary()), true
			}
			return Affine{}, false
		}
		return varAffine(t.st.varAtom(t.ps.ID, x.Name)), true
	case *ast.Unary:
		if x.Op == ast.Neg {
			if v, ok := t.form(x.X); ok {
				return v.Neg(), true
			}
		}
	case *ast.Binary:
		if x.Op != ast.Add && x.Op != ast.Sub && x.Op != ast.Mul {
			return Affine{}, false
		}
		l, ok := t.form(x.L)
		if !ok {
			return Affine{}, false
		}
		r, ok := t.form(x.R)
		if !ok {
			return Affine{}, false
		}
		switch x.Op {
		case ast.Add:
			return l.Add(r), true
		case ast.Sub:
			return l.Sub(r), true
		}
		if c, ok := l.IsConst(); ok {
			return r.Scale(c), true
		}
		if c, ok := r.IsConst(); ok {
			return l.Scale(c), true
		}
	}
	return Affine{}, false
}

// varAtom resolves a program variable reference for set psID: written
// variables live in the set's namespace (PV), never-written ones are
// global. The namespaced name is composed on the stack.
func (st *State) varAtom(psID int, name string) cg.Atom {
	if st.assigned == nil || st.assigned[name] {
		return pvAtom(psID, name)
	}
	return cg.Intern(name)
}

// varAffine returns the form of variable v.
func varAffine(v cg.Atom) Affine {
	a := Affine{n: 1}
	a.terms[0] = affineTerm{v, 1}
	return a
}

// atomAffine returns the form of a bound atom: its pair and offset, or a
// general atom's polynomial read as a form.
func atomAffine(x procset.Atom) Affine {
	if !x.IsVarPlus() {
		return affineOf(x.Expr())
	}
	if x.V == cg.AtomZero {
		return Affine{c: x.C}
	}
	a := varAffine(x.V)
	a.c = x.C
	return a
}

// affineOf reads a polynomial as a form: its constant, the coefficient of
// IDMarker, and its first variables of degree one in key order. Whatever
// is left is the residual, so the form is canonical.
func affineOf(e sym.Expr) Affine {
	var a Affine
	rest := false
	for _, t := range e.Terms() {
		switch {
		case len(t.Vars) == 0:
			a.c = t.Coef
		case len(t.Vars) == 1 && t.Vars[0] == IDMarker:
			a.ID = t.Coef
		case len(t.Vars) == 1 && a.n < affineTerms:
			a.terms[a.n] = affineTerm{cg.Intern(t.Vars[0]), t.Coef}
			a.n++
		default:
			rest = true
		}
	}
	if rest {
		a.res = sym.Sub(e, a.Expr())
	}
	return a
}

// IsConst reports whether a is a constant, returning it.
func (a Affine) IsConst() (int64, bool) {
	return a.c, a.ID == 0 && a.n == 0 && a.res.IsZero()
}

// VarPlus decomposes a as v + c for one variable v with coefficient 1, or
// the constant c with v = cg.AtomZero: the Section VII client's shape.
func (a Affine) VarPlus() (v cg.Atom, c int64, ok bool) {
	switch {
	case a.ID != 0 || !a.res.IsZero():
	case a.n == 0:
		return cg.AtomZero, a.c, true
	case a.n == 1 && a.terms[0].k == 1:
		return a.terms[0].v, a.c, true
	}
	return 0, 0, false
}

// Offset returns a without its id term: what a partner expression adds to
// the executing process's rank.
func (a Affine) Offset() Affine {
	a.ID = 0
	return a
}

// Uses reports whether variable v appears in a.
func (a Affine) Uses(v cg.Atom) bool {
	for _, t := range a.terms[:a.n] {
		if t.v == v {
			return true
		}
	}
	return !a.res.IsZero() && a.res.Uses(v.String())
}

// Neg returns -a.
func (a Affine) Neg() Affine { return a.Scale(-1) }

// Scale returns k·a.
func (a Affine) Scale(k int64) Affine {
	if k == 0 {
		return Affine{}
	}
	a.ID *= k
	a.c *= k
	for i := range a.terms[:a.n] {
		a.terms[i].k *= k
	}
	if !a.res.IsZero() {
		a.res = sym.Scale(a.res, k)
	}
	return a
}

// Sub returns a - b.
func (a Affine) Sub(b Affine) Affine { return a.Add(b.Neg()) }

// Add returns a + b. Pairs merge by variable; a sum the pairs cannot hold
// is read back from the sum of the polynomials, which keeps it canonical.
func (a Affine) Add(b Affine) Affine {
	if a.res.IsZero() && b.res.IsZero() {
		s := a
		s.ID += b.ID
		s.c += b.c
		held := true
		for _, t := range b.terms[:b.n] {
			held = held && s.addTerm(t.v, t.k)
		}
		if held {
			return s
		}
	}
	return affineOf(sym.Add(a.Expr(), b.Expr()))
}

// addTerm adds k·v to a's pairs, dropping a pair that cancels. It reports
// false when v is new and every pair is taken.
func (a *Affine) addTerm(v cg.Atom, k int64) bool {
	for i := range a.terms[:a.n] {
		if a.terms[i].v != v {
			continue
		}
		if a.terms[i].k += k; a.terms[i].k == 0 {
			a.n--
			a.terms[i] = a.terms[a.n]
		}
		return true
	}
	if a.n == affineTerms {
		return false
	}
	a.terms[a.n] = affineTerm{v, k}
	a.n++
	return true
}

// Expr converts a to its polynomial, the normal form the sym translation
// built, with id as the IDMarker symbol: a shared constant for a constant
// form, and one allocation for a var+c form (its variable's polynomial is
// cached). Only callers that keep a polynomial (pending-send offsets and
// payloads, id-split pivots, range offsets, bound atoms outside var+c)
// convert.
func (a Affine) Expr() sym.Expr {
	e := a.res
	if a.ID != 0 {
		e = sym.Add(e, sym.Scale(sym.Var(IDMarker), a.ID))
	}
	for _, t := range a.terms[:a.n] {
		e = sym.Add(e, sym.Scale(sym.Var(t.v.String()), t.k))
	}
	return sym.AddConst(e, a.c)
}

// at returns a's value for the process x as a bound atom: a var+c pair
// when the value is var+c (a shift of x when a is id + k), and the general
// atom of its polynomial otherwise.
func (a Affine) at(x procset.Atom) procset.Atom {
	v := a.Offset()
	if a.ID != 0 {
		v = v.Add(atomAffine(x).Scale(a.ID))
	}
	if w, c, ok := v.VarPlus(); ok {
		return procset.Atom{V: w, C: c}
	}
	return procset.AtomOf(v.Expr())
}

// IDMarker is the symbol standing for the builtin id when a form with an ID
// coefficient converts to a polynomial (Affine.Expr).
const IDMarker = "$id"

// EntailsZero reports whether the constraint graph proves a equal to zero:
// a constant that is 0, or v + c, or v - w + c with unit coefficients
// (anything else, id included, is not provable).
func (st *State) EntailsZero(a Affine) bool {
	if a.ID != 0 || !a.res.IsZero() {
		return false
	}
	pos, neg := cg.AtomZero, cg.AtomZero
	for _, t := range a.terms[:a.n] {
		switch {
		case t.k == 1 && pos == cg.AtomZero:
			pos = t.v
		case t.k == -1 && neg == cg.AtomZero:
			neg = t.v
		default:
			return false
		}
	}
	if pos == cg.AtomZero && neg == cg.AtomZero {
		return a.c == 0
	}
	// pos - neg + c == 0  <=>  pos = neg - c, with the zero variable for
	// an absent side.
	return st.G.EntailsA(pos, neg, -a.c) && st.G.EntailsA(neg, pos, a.c)
}
