package sym

import (
	"math/rand"
	"strings"
	"testing"
)

// TestCompareKeyMatchesStringCompare pins CompareKey to the exact order of
// strings.Compare over rendered keys, across randomized polynomials
// (including negative coefficients, multi-variable monomials, zero, and
// keys longer than CompareKey's 64-byte stack buffers), and pins Equal to
// CompareKey(a, b) == 0.
func TestCompareKeyMatchesStringCompare(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	long := strings.Repeat("long", 12)
	names := []string{"i", "j", "np", "wp0", "ps12", "$0", "x", long + "a", long + "b"}
	randExpr := func() Expr {
		e := Expr{}
		for n := rng.Intn(4); n >= 0; n-- {
			tm := Const(int64(rng.Intn(41) - 20))
			for v := rng.Intn(3); v > 0; v-- {
				tm = Mul(tm, Var(names[rng.Intn(len(names))]))
			}
			e = Add(e, tm)
		}
		return e
	}
	var longKeys, equal int
	for iter := 0; iter < 5000; iter++ {
		a, b := randExpr(), randExpr()
		switch rng.Intn(4) {
		case 0:
			b = Add(Sub(a, One), One) // equal, through distinct term slices
		case 1:
			b = Subst(a, "i", Var("j")) // same shape, one name differs
		}
		want := strings.Compare(a.Key(), b.Key())
		if got := a.CompareKey(b); got != want {
			t.Fatalf("CompareKey(%q, %q) = %d, want %d", a.Key(), b.Key(), got, want)
		}
		if a.CompareKey(a) != 0 || b.CompareKey(b) != 0 {
			t.Fatalf("CompareKey not reflexive for %q / %q", a.Key(), b.Key())
		}
		if Equal(a, b) != (want == 0) {
			t.Fatalf("Equal(%q, %q) = %v, CompareKey = %d", a.Key(), b.Key(), Equal(a, b), want)
		}
		if len(a.Key()) > 64 || len(b.Key()) > 64 {
			longKeys++
		}
		if want == 0 {
			equal++
		}
	}
	if longKeys == 0 || equal == 0 {
		t.Fatalf("coverage: %d long keys, %d equal pairs; want both > 0", longKeys, equal)
	}
}

// TestCompareZeroAlloc gates the comparisons the bound atom-set operations
// run on every join and widen: Equal and CompareKey on keys that fit the
// stack buffers must not allocate.
func TestCompareZeroAlloc(t *testing.T) {
	a := Add(Mul(Const(2), Var("nrows")), VarPlus("ps3.i", -7))
	b := VarPlus("np", -1)
	c := Add(Sub(a, One), One)
	allocs := testing.AllocsPerRun(1000, func() {
		_ = a.CompareKey(b)
		_ = a.CompareKey(c)
		_ = Equal(a, b)
		_ = Equal(a, c)
	})
	if allocs != 0 {
		t.Errorf("CompareKey/Equal allocate %v per op, want 0", allocs)
	}
}

// TestVarPlusAllocs gates the var+c builders: Cmp allocates nothing on any
// shape, and VarPlus allocates one two-term list (none for c == 0, which
// returns the cached Var).
func TestVarPlusAllocs(t *testing.T) {
	a, b, c := VarPlus("np", -1), VarPlus("np", 3), VarPlus("i", 2)
	k := Const(4)
	if n := testing.AllocsPerRun(1000, func() {
		_, _ = Cmp(a, b)
		_, _ = Cmp(a, c)
		_, _ = Cmp(k, a)
		_, _ = Cmp(k, Zero)
	}); n != 0 {
		t.Errorf("Cmp on var+c pairs allocates %v per op, want 0", n)
	}
	p := Mul(Var("nrows"), Var("ncols"))
	q, r := AddConst(p, 3), AddConst(Scale(Var("np"), 2), -1)
	if n := testing.AllocsPerRun(1000, func() {
		_, _ = Cmp(p, q)
		_, _ = Cmp(q, r)
		_, _ = Cmp(r, a)
	}); n != 0 {
		t.Errorf("Cmp on polynomials allocates %v per op, want 0", n)
	}
	if n := testing.AllocsPerRun(1000, func() { _ = VarPlus("np", -1) }); n != 1 {
		t.Errorf("VarPlus allocates %v per op, want 1", n)
	}
	if n := testing.AllocsPerRun(1000, func() { _ = VarPlus("np", 0) }); n != 0 {
		t.Errorf("VarPlus with c == 0 allocates %v per op, want 0", n)
	}
}

// TestVarCacheImmutability guards the interned Var exprs: operations on a
// cached Var must never mutate the shared value.
func TestVarCacheImmutability(t *testing.T) {
	a := Var("cachedvar")
	_ = AddConst(a, 5)
	_ = Neg(a)
	_ = Scale(a, 3)
	_ = Subst(a, "cachedvar", Const(9))
	b := Var("cachedvar")
	if b.Key() != "1*cachedvar" {
		t.Fatalf("cached Var mutated: key %q", b.Key())
	}
	if !Equal(a, b) {
		t.Fatalf("cached Var not equal to itself after ops")
	}
}
