package procset

import (
	"math/rand"
	"testing"

	"repro/internal/cg"
	"repro/internal/sym"
)

// refInsert is the key-ordered Insert the fast path replaced: one pass of
// CompareKey finds both duplicates and the insertion position, and the cap
// is checked only after the search.
func refInsert(b Bound, e sym.Expr) Bound {
	pos := len(b.atoms)
	for i, a := range b.atoms {
		c := a.CompareKey(e)
		if c == 0 {
			return b
		}
		if c > 0 {
			pos = i
			break
		}
	}
	if len(b.atoms) >= maxAtoms {
		return b
	}
	atoms := make([]sym.Expr, 0, len(b.atoms)+1)
	atoms = append(atoms, b.atoms[:pos]...)
	atoms = append(atoms, e)
	atoms = append(atoms, b.atoms[pos:]...)
	return Bound{atoms: atoms}
}

// refEnrich is the Enrich the fast path replaced: it mints a fresh atom for
// every witness and lets refInsert discard the duplicates.
func refEnrich(ctx Ctx, b Bound) Bound {
	if ctx.G == nil || !b.IsValid() {
		return b
	}
	out := b
	for _, a := range b.atoms {
		v, c, ok := a.AsVarPlusConst()
		if !ok {
			continue
		}
		name := v
		if name == "" {
			name = cg.ZeroVar
		}
		if !ctx.G.HasVar(name) {
			continue
		}
		for _, w := range ctx.G.EqualWitnesses(name) {
			if w.Var == cg.ZeroVar {
				out = refInsert(out, sym.Const(w.C+c))
			} else {
				out = refInsert(out, sym.VarPlus(w.Var, w.C+c))
			}
		}
	}
	return out
}

// atomKeys renders a bound's atom sequence for comparison.
func atomKeys(b Bound) []string {
	out := make([]string, len(b.atoms))
	for i, a := range b.atoms {
		out[i] = a.Key()
	}
	return out
}

func sameAtoms(a, b Bound) bool {
	ka, kb := atomKeys(a), atomKeys(b)
	if len(ka) != len(kb) {
		return false
	}
	for i := range ka {
		if ka[i] != kb[i] {
			return false
		}
	}
	return true
}

var atomVars = []string{"i", "j", "np", "k0", "x", "ps1.i"}

// randAtom draws a var+c atom (a bare constant a quarter of the time), or
// occasionally a non-affine atom that enrichment must skip.
func randAtom(rng *rand.Rand) sym.Expr {
	c := int64(rng.Intn(9) - 4)
	switch r := rng.Intn(20); {
	case r == 0:
		return sym.Mul(sym.Var("i"), sym.Var("j"))
	case r == 1:
		return sym.VarPlus("unbound", c) // a variable the graph never sees
	case r < 6:
		return sym.Const(c)
	default:
		return sym.VarPlus(atomVars[rng.Intn(len(atomVars))], c)
	}
}

// randGraph draws a small constraint graph rich in equalities, so bounds
// have many witnesses, including constant (ZeroVar) ones. Some draws end
// up inconsistent.
func randGraph(rng *rand.Rand) *cg.Graph {
	g := cg.NewDefault()
	for n := rng.Intn(7); n > 0; n-- {
		x := atomVars[rng.Intn(len(atomVars))]
		y := atomVars[rng.Intn(len(atomVars))]
		c := int64(rng.Intn(7) - 3)
		switch rng.Intn(4) {
		case 0:
			g.SetConst(x, c)
		case 1:
			g.AddLE(x, y, c)
		default:
			if x != y {
				g.AddEq(x, y, c)
			}
		}
	}
	return g
}

// TestAtomAlgebraMatchesReference runs the fast Insert and Enrich against
// the key-rendering reference on random bounds and graphs and requires
// identical atom sequences. The sweep must reach the 8-atom cap, constant
// witnesses, contradictory atom classes and enrichments that add several
// atoms for the comparison to count.
func TestAtomAlgebraMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	var capped, constWitness, contradictory, multiAdd int
	for iter := 0; iter < 20000; iter++ {
		ctx := Ctx{G: randGraph(rng)}
		b := Bound{}
		for n := 1 + rng.Intn(10); n > 0; n-- {
			b = refInsert(b, randAtom(rng))
		}
		e := randAtom(rng)
		if rng.Intn(3) == 0 && len(b.atoms) > 0 {
			e = sym.AddConst(b.atoms[rng.Intn(len(b.atoms))], 0) // a duplicate
		}
		if got, want := b.Insert(e), refInsert(b, e); !sameAtoms(got, want) {
			t.Fatalf("Insert(%v, %q) = %v, want %v", atomKeys(b), e.Key(), atomKeys(got), atomKeys(want))
		}
		got, want := ctx.Enrich(b), refEnrich(ctx, b)
		if !sameAtoms(got, want) {
			t.Fatalf("Enrich(%v) under %v = %v, want %v", atomKeys(b), ctx.G, atomKeys(got), atomKeys(want))
		}
		if again := ctx.Enrich(got); !sameAtoms(again, got) {
			t.Fatalf("Enrich not idempotent: %v -> %v", atomKeys(got), atomKeys(again))
		}
		if len(want.atoms) == maxAtoms {
			capped++
		}
		if len(want.atoms) >= len(b.atoms)+2 {
			multiAdd++
		}
		if ctx.Contradictory(want) {
			contradictory++
		}
		for _, a := range b.atoms {
			if v, _, ok := a.AsVarPlusConst(); ok && v != "" && ctx.G.HasVar(v) {
				if _, ok := ctx.G.ConstVal(v); ok {
					constWitness++
					break
				}
			}
		}
	}
	t.Logf("capped=%d constWitness=%d contradictory=%d multiAdd=%d", capped, constWitness, contradictory, multiAdd)
	if capped == 0 || constWitness == 0 || contradictory == 0 || multiAdd == 0 {
		t.Fatalf("coverage: capped=%d constWitness=%d contradictory=%d multiAdd=%d, want all > 0",
			capped, constWitness, contradictory, multiAdd)
	}
}

// refCmp is the sym.Cmp the var+c fast path replaced: build a - b.
func refCmp(a, b sym.Expr) (int64, bool) { return sym.Sub(a, b).IsConst() }

// refVarPlus is the sym.VarPlus the two-term builder replaced.
func refVarPlus(name string, c int64) sym.Expr { return sym.Add(sym.Var(name), sym.Const(c)) }

// refSubst is the general sym.Subst: rebuild every monomial by products.
func refSubst(e sym.Expr, name string, repl sym.Expr) sym.Expr {
	if !e.Uses(name) {
		return e
	}
	out := sym.Zero
	for _, t := range e.Terms() {
		mono := sym.Const(t.Coef)
		for _, v := range t.Vars {
			if v == name {
				mono = sym.Mul(mono, repl)
			} else {
				mono = sym.Mul(mono, sym.Var(v))
			}
		}
		out = sym.Add(out, mono)
	}
	return out
}

// refIntersect is the Intersect the filter replaced: re-insert each common
// atom.
func refIntersect(b, o Bound) Bound {
	out := Bound{}
	for _, a := range b.atoms {
		if o.has(a) {
			out = refInsert(out, a)
		}
	}
	return out
}

// refBoundSubst is the Bound.Subst without the unchanged-bound shortcut.
func refBoundSubst(b Bound, name string, repl sym.Expr) Bound {
	out := Bound{}
	for _, a := range b.atoms {
		na := refSubst(a, name, repl)
		if _, _, ok := na.AsVarPlusConst(); ok {
			out = refInsert(out, na)
		}
	}
	return out
}

var exprVars = []string{"i", "j", "np", "nrows", "ncols", "ps1.i"}

// randExpr draws mostly var+c expressions (constants and zero included),
// plus shapes outside var+c: 2*np, nrows*ncols, -v + c and v + w.
func randExpr(rng *rand.Rand) sym.Expr {
	c := int64(rng.Intn(9) - 4)
	v := exprVars[rng.Intn(len(exprVars))]
	switch rng.Intn(12) {
	case 0:
		return sym.AddConst(sym.Scale(sym.Var("np"), 2), c)
	case 1:
		return sym.Mul(sym.Var("nrows"), sym.Var("ncols"))
	case 2:
		return sym.AddConst(sym.Neg(sym.Var(v)), c)
	case 3:
		return sym.Add(sym.Var(v), sym.Var(exprVars[rng.Intn(len(exprVars))]))
	case 4, 5:
		return sym.Const(c)
	default:
		return refVarPlus(v, c)
	}
}

func sameExpr(a, b sym.Expr) bool { return sym.Equal(a, b) && a.Key() == b.Key() }

// TestVarPlusFastPathsMatchReference runs each var+c fast path — Cmp,
// VarPlus, Subst, Intersect and Bound.Subst — against the general algebra
// it bypasses, on random expressions and bounds, and requires identical
// results. Every case the fast paths distinguish must be reached.
func TestVarPlusFastPathsMatchReference(t *testing.T) {
	rng := rand.New(rand.NewSource(15))
	cov := map[string]int{}
	randBound := func() Bound {
		b := Bound{}
		for n := 1 + rng.Intn(11); n > 0; n-- {
			b = refInsert(b, randExpr(rng))
		}
		return b
	}
	for iter := 0; iter < 20000; iter++ {
		a, b := randExpr(rng), randExpr(rng)
		va, _, okA := a.AsVarPlusConst()
		vb, _, okB := b.AsVarPlusConst()
		switch {
		case !okA || !okB:
			if _, ok := refCmp(a, b); ok {
				cov["cmp non-var+c constant"]++
			} else {
				cov["cmp non-var+c"]++
			}
		case va == vb:
			cov["cmp same var"]++
		default:
			cov["cmp different var"]++
		}
		if a.IsZero() {
			cov["zero"]++
		}
		gd, gok := sym.Cmp(a, b)
		wd, wok := refCmp(a, b)
		if gd != wd || gok != wok {
			t.Fatalf("Cmp(%s, %s) = %d,%v, want %d,%v", a, b, gd, gok, wd, wok)
		}

		name := exprVars[rng.Intn(len(exprVars))]
		c := int64(rng.Intn(9) - 4)
		if got, want := sym.VarPlus(name, c), refVarPlus(name, c); !sameExpr(got, want) {
			t.Fatalf("VarPlus(%s, %d) = %q, want %q", name, c, got.Key(), want.Key())
		}

		repl := randExpr(rng)
		switch {
		case !okA:
			cov["subst non-var+c"]++
		case va == name:
			cov["subst hit"]++
		default:
			cov["subst miss"]++
		}
		if got, want := sym.Subst(a, name, repl), refSubst(a, name, repl); !sameExpr(got, want) {
			t.Fatalf("Subst(%s, %s, %s) = %q, want %q", a, name, repl, got.Key(), want.Key())
		}

		x, y := randBound(), randBound()
		switch rng.Intn(3) {
		case 0: // y holds every atom of x (Intersect reads only its membership)
			y.atoms = append(y.atoms, x.atoms...)
		case 1:
			y = x
		}
		want := refIntersect(x, y)
		switch {
		case len(want.atoms) == len(x.atoms):
			cov["intersect keeps all"]++
		case len(want.atoms) == 0:
			cov["intersect keeps none"]++
		default:
			cov["intersect filters"]++
		}
		if len(x.atoms) == maxAtoms {
			cov["bound at cap"]++
		}
		if got := x.Intersect(y); !sameAtoms(got, want) {
			t.Fatalf("Intersect(%v, %v) = %v, want %v", atomKeys(x), atomKeys(y), atomKeys(got), atomKeys(want))
		}

		want = refBoundSubst(x, name, repl)
		if x.varPlusWithout(name) {
			cov["bound subst unchanged"]++
		} else {
			cov["bound subst rebuilt"]++
		}
		if got := x.Subst(name, repl); !sameAtoms(got, want) {
			t.Fatalf("Bound.Subst(%v, %s, %s) = %v, want %v", atomKeys(x), name, repl, atomKeys(got), atomKeys(want))
		}
	}
	t.Logf("coverage: %v", cov)
	for _, k := range []string{"cmp non-var+c", "cmp non-var+c constant", "cmp same var", "cmp different var", "zero",
		"subst non-var+c", "subst hit", "subst miss", "intersect keeps all", "intersect keeps none",
		"intersect filters", "bound at cap", "bound subst unchanged", "bound subst rebuilt"} {
		if cov[k] == 0 {
			t.Errorf("coverage: case %q never reached", k)
		}
	}
}

// TestAtomAlgebraZeroAlloc gates the fast paths the fixpoint runs on every
// join and widen: re-enriching an enriched bound and inserting a duplicate
// must not allocate.
func TestAtomAlgebraZeroAlloc(t *testing.T) {
	ctx := ctxWith(func(g *cg.Graph) {
		g.SetConst("i", 1)
		g.AddEq("j", "np", -1)
		g.AddEq("k0", "i", 2)
	})
	b := ctx.Enrich(NewBound(sym.VarPlus("i", 0), sym.VarPlus("j", 1)))
	if len(b.atoms) < 4 {
		t.Fatalf("enriched bound too small to exercise the fast path: %v", atomKeys(b))
	}
	dup := sym.VarPlus("np", 0)
	if !b.has(dup) {
		t.Fatalf("%v lacks np", atomKeys(b))
	}
	if n := testing.AllocsPerRun(1000, func() { _ = ctx.Enrich(b) }); n != 0 {
		t.Errorf("Enrich of an enriched bound allocates %v per op, want 0", n)
	}
	if n := testing.AllocsPerRun(1000, func() { _ = b.Insert(dup) }); n != 0 {
		t.Errorf("Insert of a duplicate allocates %v per op, want 0", n)
	}
}

// TestVarPlusFastPathsAllocs gates the shortcuts of the bound algebra:
// an intersection that keeps every atom and a substitution no atom uses
// allocate nothing, and an enrichment that adds k atoms allocates at most
// once per new atom plus once for the merged atom list.
func TestVarPlusFastPathsAllocs(t *testing.T) {
	ctx := ctxWith(func(g *cg.Graph) {
		g.SetConst("i", 1)
		g.AddEq("j", "np", -1)
		g.AddEq("k0", "i", 2)
		g.AddEq("x", "j", 3)
	})
	fresh := NewBound(sym.VarPlus("i", 0), sym.VarPlus("j", 1))
	enriched := ctx.Enrich(fresh)
	k := len(enriched.atoms) - len(fresh.atoms)
	if k < 3 {
		t.Fatalf("enrichment adds %d atoms, want several: %v", k, atomKeys(enriched))
	}
	if n := testing.AllocsPerRun(1000, func() { _ = ctx.Enrich(fresh) }); n > float64(k+1) {
		t.Errorf("Enrich adding %d atoms allocates %v per op, want at most %d", k, n, k+1)
	}
	if n := testing.AllocsPerRun(1000, func() { _ = enriched.Intersect(enriched) }); n != 0 {
		t.Errorf("Intersect keeping every atom allocates %v per op, want 0", n)
	}
	repl := sym.VarPlus("y", 2)
	if n := testing.AllocsPerRun(1000, func() { _ = enriched.Subst("unused", repl) }); n != 0 {
		t.Errorf("Subst of a name no atom uses allocates %v per op, want 0", n)
	}
}

// BenchmarkEnrich measures enriching a fresh bound and re-enriching the
// result, the two shapes EnrichEverywhere sees under join and widen.
func BenchmarkEnrich(b *testing.B) {
	ctx := ctxWith(func(g *cg.Graph) {
		g.SetConst("i", 1)
		g.AddEq("j", "np", -1)
		g.AddEq("k0", "i", 2)
		g.AddEq("x", "j", 3)
	})
	fresh := NewBound(sym.VarPlus("i", 0), sym.VarPlus("j", 1))
	enriched := ctx.Enrich(fresh)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_ = ctx.Enrich(fresh)
		_ = ctx.Enrich(enriched)
	}
}
