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
// witnesses and contradictory atom classes for the comparison to count.
func TestAtomAlgebraMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	var capped, constWitness, contradictory int
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
	t.Logf("capped=%d constWitness=%d contradictory=%d", capped, constWitness, contradictory)
	if capped == 0 || constWitness == 0 || contradictory == 0 {
		t.Fatalf("coverage: capped=%d constWitness=%d contradictory=%d, want all > 0",
			capped, constWitness, contradictory)
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
