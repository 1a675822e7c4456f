package procset

import (
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/cg"
	"repro/internal/sym"
	"repro/internal/tri"
)

// ctxWith builds a context with the given facts applied.
func ctxWith(facts func(*cg.Graph)) Ctx {
	g := cg.NewDefault()
	if facts != nil {
		facts(g)
	}
	return Ctx{G: g}
}

func npCtx() Ctx {
	return ctxWith(func(g *cg.Graph) {
		g.AddLE(cg.ZeroVar, "np", -2) // np >= 2
	})
}

func TestEmptyAndSingleton(t *testing.T) {
	ctx := npCtx()
	all := Range(nil, sym.Const(0), sym.VarPlus("np", -1))
	if got := all.Empty(ctx); got != tri.False {
		t.Errorf("[0..np-1] Empty = %v with np>=2", got)
	}
	one := Singleton(nil, sym.Const(0))
	if got := one.Empty(ctx); got != tri.False {
		t.Errorf("[0] Empty = %v", got)
	}
	if got := one.IsSingleton(ctx); got != tri.True {
		t.Errorf("[0] IsSingleton = %v", got)
	}
	empty := Range(nil, sym.Const(5), sym.Const(3))
	if got := empty.Empty(ctx); got != tri.True {
		t.Errorf("[5..3] Empty = %v", got)
	}
	// [1..np-1] nonempty requires np >= 2: true here.
	rest := Range(nil, sym.Const(1), sym.VarPlus("np", -1))
	if got := rest.Empty(ctx); got != tri.False {
		t.Errorf("[1..np-1] Empty = %v with np>=2", got)
	}
	// Without facts, emptiness of [1..np-1] is unknown.
	noCtx := ctxWith(nil)
	if got := rest.Empty(noCtx); got != tri.Unknown {
		t.Errorf("[1..np-1] Empty = %v without facts", got)
	}
}

func TestContains(t *testing.T) {
	ctx := ctxWith(func(g *cg.Graph) {
		g.AddLE(cg.ZeroVar, "np", -3) // np >= 3
		g.SetConst("i", 1)
		g.AddLE("i", "np", -1) // i <= np-1
	})
	rest := Range(nil, sym.Const(1), sym.VarPlus("np", -1))
	if got := rest.Contains(ctx, sym.Var("i")); got != tri.True {
		t.Errorf("i in [1..np-1] = %v with i=1", got)
	}
	if got := rest.Contains(ctx, sym.Const(0)); got != tri.False {
		t.Errorf("0 in [1..np-1] = %v", got)
	}
	if got := rest.Contains(ctx, sym.Var("np")); got != tri.False {
		t.Errorf("np in [1..np-1] = %v", got)
	}
}

func TestContainsSet(t *testing.T) {
	ctx := npCtx()
	all := Range(nil, sym.Const(0), sym.VarPlus("np", -1))
	sub := Range(nil, sym.Const(1), sym.VarPlus("np", -1))
	if got := all.ContainsSet(ctx, sub); got != tri.True {
		t.Errorf("[1..np-1] ⊆ [0..np-1] = %v", got)
	}
	if got := sub.ContainsSet(ctx, all); got != tri.False {
		t.Errorf("[0..np-1] ⊆ [1..np-1] = %v", got)
	}
	empty := Range(nil, sym.Const(3), sym.Const(2))
	if got := sub.ContainsSet(ctx, empty); got != tri.True {
		t.Errorf("∅ ⊆ s = %v", got)
	}
}

func TestUnionAdjacent(t *testing.T) {
	ctx := ctxWith(func(g *cg.Graph) {
		g.AddLE(cg.ZeroVar, "np", -4)
		g.SetConst("i", 2)
	})
	a := Range(nil, sym.Const(0), sym.VarPlus("i", -1)) // [0..i-1] = [0..1]
	b := Singleton(nil, sym.Var("i"))                   // [2]
	u, ok := a.UnionAdjacent(ctx, b)
	if !ok {
		t.Fatal("adjacent union failed")
	}
	if u.String() != "[0..i]" {
		t.Errorf("union = %v", u)
	}
	// Gap: [0..0] ∪ [2..2] must fail with i=2 unknown... here use consts.
	c := Singleton(nil, sym.Const(0))
	d := Singleton(nil, sym.Const(2))
	if _, ok := c.UnionAdjacent(ctx, d); ok {
		t.Error("union across gap succeeded")
	}
	// Union with empty is identity.
	empty := Range(nil, sym.Const(5), sym.Const(3))
	u2, ok := c.UnionAdjacent(ctx, empty)
	if !ok || u2.String() != c.String() {
		t.Errorf("union with empty = %v, %v", u2, ok)
	}
}

func TestEnrichAndWiden(t *testing.T) {
	// Reproduces the Fig 5 widening: [1..1] with i=1 widened against
	// [1..2] with i=2 gives [1..i].
	ctx1 := ctxWith(func(g *cg.Graph) { g.SetConst("i", 1) })
	s1 := Range(nil, sym.Const(1), sym.Const(1)).Enrich(ctx1)

	ctx2 := ctxWith(func(g *cg.Graph) { g.SetConst("i", 2) })
	s2 := Range(nil, sym.Const(1), sym.Const(2)).Enrich(ctx2)

	w, ok := s1.Widen(nil, s2)
	if !ok {
		t.Fatal("widening failed")
	}
	if w.String() != "[1..i]" {
		t.Errorf("widened = %v, want [1..i]", w)
	}
}

func TestWidenFailsWithoutCommonAtom(t *testing.T) {
	s1 := Singleton(nil, sym.Const(1))
	s2 := Singleton(nil, sym.Const(2))
	if _, ok := s1.Widen(nil, s2); ok {
		t.Error("widening [1] vs [2] without witnesses should fail")
	}
}

func TestSubstOnIncrement(t *testing.T) {
	// After i := i + 1, a range [1..i] expressed pre-increment becomes
	// [1..i-1]: substitute i -> i-1.
	s := Range(nil, sym.Const(1), sym.Var("i"))
	ns := s.Subst(nil, "i", sym.VarPlus("i", -1))
	if ns.String() != "[1..i - 1]" {
		t.Errorf("subst = %v", ns)
	}
	if !s.Uses("i") || ns.Uses("j") {
		t.Error("Uses wrong")
	}
}

func TestOffset(t *testing.T) {
	s := Range(nil, sym.Const(0), sym.VarPlus("np", -2))
	o := s.Offset(nil, 1)
	if o.String() != "[1..np - 1]" {
		t.Errorf("offset = %v", o)
	}
}

func TestConcreteSlice(t *testing.T) {
	s := Range(nil, sym.Const(1), sym.VarPlus("np", -1))
	env := map[string]int64{"np": 4}
	got := s.ConcreteSlice(env)
	if len(got) != 3 || got[0] != 1 || got[2] != 3 {
		t.Errorf("slice = %v", got)
	}
	empty := Range(nil, sym.Const(3), sym.Const(1))
	if len(empty.ConcreteSlice(env)) != 0 {
		t.Error("empty slice not empty")
	}
}

func TestBoundOps(t *testing.T) {
	b := NewBound(nil, sym.Const(1), sym.Var("i"), sym.Const(1))
	if len(b.Atoms()) != 2 {
		t.Errorf("dedup failed: %v", b.Atoms())
	}
	if b.Primary().String() != "1" {
		t.Errorf("primary = %v (want const preferred)", b.Primary())
	}
	if b.StringAll() != "{1,i}" {
		t.Errorf("StringAll = %q", b.StringAll())
	}
	drop := b.DropUses(nil, "i")
	if len(drop.Atoms()) != 1 {
		t.Errorf("DropUses = %v", drop.Atoms())
	}
	var invalid Bound
	if invalid.IsValid() || invalid.String() != "?" {
		t.Error("invalid bound misbehaves")
	}
}

func TestSameRange(t *testing.T) {
	ctx := ctxWith(func(g *cg.Graph) { g.SetConst("i", 3) })
	a := Range(nil, sym.Const(0), sym.Var("i"))
	b := Range(nil, sym.Const(0), sym.Const(3))
	if got := a.SameRange(ctx, b); got != tri.True {
		t.Errorf("SameRange = %v", got)
	}
	c := Range(nil, sym.Const(0), sym.Const(4))
	if got := a.SameRange(ctx, c); got != tri.False {
		t.Errorf("SameRange = %v", got)
	}
}

func TestQuickConcreteAgreement(t *testing.T) {
	// Property: symbolic decisions, when definite, agree with concrete
	// evaluation over random environments and constant ranges.
	cfg := &quick.Config{MaxCount: 200}
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		lo1, hi1 := int64(r.Intn(10)), int64(r.Intn(10))
		lo2, hi2 := int64(r.Intn(10)), int64(r.Intn(10))
		ctx := ctxWith(nil)
		s1 := Range(nil, sym.Const(lo1), sym.Const(hi1))
		s2 := Range(nil, sym.Const(lo2), sym.Const(hi2))
		env := map[string]int64{}
		set1 := s1.ConcreteSlice(env)
		set2 := s2.ConcreteSlice(env)

		if got := s1.Empty(ctx); got != tri.FromBool(len(set1) == 0) {
			return false
		}
		contains := func(xs []int64, v int64) bool {
			for _, x := range xs {
				if x == v {
					return true
				}
			}
			return false
		}
		probe := int64(r.Intn(10))
		if got := s1.Contains(ctx, sym.Const(probe)); got != tri.Unknown {
			if (got == tri.True) != contains(set1, probe) {
				return false
			}
		}
		sub := true
		for _, v := range set2 {
			if !contains(set1, v) {
				sub = false
			}
		}
		if got := s1.ContainsSet(ctx, s2); got != tri.Unknown {
			if (got == tri.True) != sub {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, cfg); err != nil {
		t.Error(err)
	}
}
