package procset

import (
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/cg"
	"repro/internal/sym"
	"repro/internal/tri"
)

func TestIntersectConst(t *testing.T) {
	ctx := Ctx{}
	cases := []struct {
		a, b [2]int64
		want string
		ok   bool
	}{
		{[2]int64{0, 5}, [2]int64{3, 9}, "[3..5]", true},
		{[2]int64{3, 9}, [2]int64{0, 5}, "[3..5]", true},
		{[2]int64{0, 9}, [2]int64{2, 4}, "[2..4]", true},
		{[2]int64{0, 2}, [2]int64{5, 9}, "[5..2]", true}, // empty but exact
	}
	for _, c := range cases {
		a := Range(nil, sym.Const(c.a[0]), sym.Const(c.a[1]))
		b := Range(nil, sym.Const(c.b[0]), sym.Const(c.b[1]))
		got, ok := Intersect(ctx, a, b)
		if ok != c.ok {
			t.Errorf("Intersect(%v,%v) ok=%v", a, b, ok)
			continue
		}
		if ok && got.String() != c.want {
			t.Errorf("Intersect(%v,%v) = %v, want %v", a, b, got, c.want)
		}
	}
}

func TestIntersectSymbolic(t *testing.T) {
	g := cg.NewDefault()
	g.AddLE(cg.ZeroVar, "np", -4) // np >= 4
	ctx := Ctx{G: g}
	a := Range(nil, sym.Const(0), sym.VarPlus("np", -1))
	b := Range(nil, sym.Const(2), sym.VarPlus("np", -2))
	got, ok := Intersect(ctx, a, b)
	if !ok || got.String() != "[2..np - 2]" {
		t.Errorf("Intersect = %v, %v", got, ok)
	}
	// Unknown ordering fails.
	c := Range(nil, sym.Var("a"), sym.Var("b"))
	if _, ok := Intersect(ctx, a, c); ok {
		t.Error("unknown ordering intersect succeeded")
	}
}

func TestSubtractExactness(t *testing.T) {
	ctx := Ctx{}
	whole := Range(nil, sym.Const(0), sym.Const(9))
	// Middle.
	rests, ok := Subtract(ctx, whole, Range(nil, sym.Const(4), sym.Const(6)))
	if !ok || len(rests) != 2 || rests[0].String() != "[0..3]" || rests[1].String() != "[7..9]" {
		t.Errorf("middle: %v %v", rests, ok)
	}
	// Whole.
	rests, ok = Subtract(ctx, whole, whole)
	if !ok || len(rests) != 0 {
		t.Errorf("whole: %v %v", rests, ok)
	}
	// Suffix.
	rests, ok = Subtract(ctx, whole, Range(nil, sym.Const(7), sym.Const(9)))
	if !ok || len(rests) != 1 || rests[0].String() != "[0..6]" {
		t.Errorf("suffix: %v %v", rests, ok)
	}
	// Not provably contained.
	if _, ok := Subtract(ctx, whole, Range(nil, sym.Var("x"), sym.Var("y"))); ok {
		t.Error("unprovable containment subtract succeeded")
	}
}

func TestQuickIntersectSubtractSemantics(t *testing.T) {
	cfg := &quick.Config{MaxCount: 300}
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		ctx := Ctx{}
		mk := func() Set {
			lo := int64(r.Intn(12))
			return Range(nil, sym.Const(lo), sym.Const(lo+int64(r.Intn(8))-2))
		}
		toSet := func(s Set) map[int64]bool {
			m := map[int64]bool{}
			for _, v := range s.ConcreteSlice(nil) {
				m[v] = true
			}
			return m
		}
		a, b := mk(), mk()
		if in, ok := Intersect(ctx, a, b); ok {
			want := map[int64]bool{}
			bs := toSet(b)
			for v := range toSet(a) {
				if bs[v] {
					want[v] = true
				}
			}
			got := toSet(in)
			if len(got) != len(want) {
				return false
			}
			for v := range want {
				if !got[v] {
					return false
				}
			}
		}
		// Subtract: whole ⊇ part by construction.
		whole := Range(nil, sym.Const(0), sym.Const(9))
		lo := int64(r.Intn(10))
		hi := lo + int64(r.Intn(int(10-lo)))
		part := Range(nil, sym.Const(lo), sym.Const(hi))
		if rests, ok := Subtract(ctx, whole, part); ok {
			got := map[int64]bool{}
			for _, rs := range rests {
				for v := range toSet(rs) {
					got[v] = true
				}
			}
			ps := toSet(part)
			for v := range toSet(whole) {
				if ps[v] == got[v] {
					return false // must be exactly the complement
				}
			}
		}
		return true
	}
	if err := quick.Check(f, cfg); err != nil {
		t.Error(err)
	}
}

func TestOffsetExpr(t *testing.T) {
	s := Range(nil, sym.Const(0), sym.VarPlus("k", 0))
	o := s.OffsetExpr(nil, sym.Var("nx"))
	// 0 + nx = nx stays affine; k + nx does not.
	if !o.LB.IsValid() {
		t.Error("const+var offset should stay valid")
	}
	if o.UB.IsValid() {
		t.Errorf("var+var bound should be dropped, got %v", o.UB)
	}
	o2 := s.OffsetExpr(nil, sym.Const(3))
	if o2.String() != "[3..k + 3]" {
		t.Errorf("const offset = %v", o2)
	}
}

func TestBoundAtomCap(t *testing.T) {
	exprs := []sym.Expr{sym.Const(0)}
	for i := 1; i < 40; i++ {
		exprs = append(exprs, sym.VarPlus("v"+string(rune('a'+i%20)), int64(i)))
	}
	b := NewBound(nil, exprs...)
	if len(b.Atoms()) > maxAtoms {
		t.Errorf("atom cap exceeded: %d", len(b.Atoms()))
	}
	// The first atom survives.
	if b.Primary().String() != "0" {
		t.Errorf("primary = %v", b.Primary())
	}
}

func TestWidenRespectsCap(t *testing.T) {
	// Widening after heavy enrichment still terminates and stays bounded.
	g := cg.NewDefault()
	g.SetConst("i", 3)
	ctx := Ctx{G: g}
	s := Range(nil, sym.Const(3), sym.Const(3)).Enrich(ctx)
	if len(s.LB.Atoms()) > maxAtoms {
		t.Errorf("enrich exceeded cap: %d", len(s.LB.Atoms()))
	}
	w, ok := s.Widen(nil, s)
	if !ok || !w.IsValid() {
		t.Error("self-widen failed")
	}
}

func TestEqBoundAndSameRangeTri(t *testing.T) {
	ctx := Ctx{}
	a := Range(nil, sym.Const(2), sym.Const(5))
	if got := a.SameRange(ctx, a); got != tri.True {
		t.Errorf("SameRange self = %v", got)
	}
	b := Range(nil, sym.Var("u"), sym.Const(5))
	if got := a.SameRange(ctx, b); got != tri.Unknown {
		t.Errorf("SameRange unknown = %v", got)
	}
}
