package procset

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/cg"
	"repro/internal/sym"
)

// memoCase classifies what a memo lookup of b under ctx finds, before the
// lookup runs: no slot (an inconsistent graph, a general atom, or a bound
// Enrich returns as is), an empty slot, a hit, the same atoms under another
// generation, or another key that the lookup overwrites.
func memoCase(ctx Ctx, b Bound) string {
	if !b.IsValid() || len(b.atoms) >= maxAtoms {
		return "not cached"
	}
	gen := ctx.G.Generation()
	s := ctx.Memo.slot(gen, b.atoms)
	switch {
	case s == nil && gen == 0:
		return "inconsistent graph"
	case s == nil:
		return "general atom"
	case s.in == nil:
		return "empty slot"
	case !slices.Equal(s.in, b.atoms):
		return "overwrite"
	case s.gen != gen:
		return "other generation"
	}
	return "hit"
}

// staleUnder reports whether the memo still holds b's enrichment under
// generation gen and it differs from want: a lookup of b that failed to
// see a new generation would return the stale atoms.
func staleUnder(m *Memo, gen uint64, b Bound, want Bound) bool {
	s := m.slot(gen, b.atoms)
	return s != nil && s.gen == gen && slices.Equal(s.in, b.atoms) &&
		fmt.Sprint(keysOf(s.out)) != fmt.Sprint(keysOf(want))
}

// TestEnrichMemoMatchesUncached enriches random bounds through a small
// memo and without one, before and after each graph mutation that
// cg.TestWitnessCacheMatchesScan covers, on private stores and on clones
// that share one, and on a store recycled through the arena pool: the two
// must agree every time. Every kind of mutation but FullClose must, at
// least once, change the enrichment of a bound whose entry under the old
// generation the memo still holds, so a write that kept its generation
// fails the test. (FullClose runs on a widened graph, the only unclosed
// graph the public operations build, and closing one never adds an
// equality: Widen keeps every equality path of two closed graphs.) The
// memo has four slots, so overwrites and same-atom entries of another
// generation occur; every kind of lookup must be reached.
func TestEnrichMemoMatchesUncached(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	st := &cg.Stats{}
	memo := newMemo(4)
	cov := map[string]int{}
	stale := map[string]int{}
	mutations := map[string]int{}
	var bounds [4]Bound
	// check looks each bound up through the memo and compares it with the
	// uncached enrichment.
	check := func(iter int, when string, g *cg.Graph) {
		t.Helper()
		for _, b := range bounds {
			ctx := Ctx{G: g, Memo: memo}
			cov[memoCase(ctx, b)]++
			got, want := ctx.Enrich(b), Ctx{G: g}.Enrich(b)
			if fmt.Sprint(keysOf(got)) != fmt.Sprint(keysOf(want)) {
				t.Fatalf("iter %d, %s: Enrich(%v) under %v through the memo = %v, want %v",
					iter, when, keysOf(b), g, keysOf(got), keysOf(want))
			}
		}
	}
	// noteStale records kind when a lookup on g would have been served an
	// entry of generation gen that no longer holds.
	noteStale := func(kind string, gen uint64, g *cg.Graph) {
		for _, b := range bounds {
			if b.IsValid() && len(b.atoms) < maxAtoms && staleUnder(memo, gen, b, Ctx{G: g}.Enrich(b)) {
				stale[kind]++
				return
			}
		}
	}
	for iter := 0; iter < 6000; iter++ {
		for i := range bounds {
			bounds[i] = fromRef(randRef(rng))
		}
		g := randGraph(rng)
		var shared *cg.Graph
		if rng.Intn(2) == 0 {
			shared = g.Clone() // g's first write copies out of the shared store
		}
		check(iter, "before", g)
		gen := g.Generation()
		x := atomVars[rng.Intn(len(atomVars))]
		y := atomVars[rng.Intn(len(atomVars))]
		c := int64(rng.Intn(25) - 12)
		var kind string
		out := g
		switch rng.Intn(10) {
		case 0:
			kind = "AddLE"
			g.AddLE(x, y, c)
		case 1:
			kind = "SetConst"
			g.SetConst(x, c)
		case 2:
			kind = "Forget"
			g.Forget(x)
		case 3:
			kind = "Drop"
			g.Drop(x)
		case 4:
			kind = "Shift"
			g.Shift(x, c)
		case 5:
			kind = "Rename"
			if to := fmt.Sprintf("renamed%d", rng.Intn(4)); !g.HasVar(to) {
				g.Rename(x, to)
			}
		case 6:
			kind = "Join"
			o := randGraph(rng)
			out = cg.Join(g, o)
			o.Release()
		case 7:
			kind = "Widen"
			o := randGraph(rng)
			out = cg.Widen(g, o)
			o.Release()
		case 8:
			// Widen leaves its result unclosed.
			kind = "FullClose"
			o := randGraph(rng)
			out = cg.Widen(g, o)
			o.Release()
			check(iter, "widened", out)
			gen = out.Generation()
			out.FullClose()
		default:
			kind = "MarkInconsistent"
			if rng.Intn(2) == 0 {
				g.MarkInconsistent()
			} else if d, ok := g.DiffBound(y, x); ok && x != y {
				kind = "AddLE early-out"
				g.AddLE(x, y, -d-1) // contradicts y - x <= d without a write
			}
		}
		if shared != nil {
			kind += " (clone)"
		}
		mutations[kind]++
		noteStale(kind, gen, out)
		check(iter, "after "+kind, out)
		if shared != nil {
			check(iter, "shared clone after "+kind, shared)
		}
		if out != g {
			out.Release()
		}
		g.Release()
		shared.Release()

		// A store recycled through the arena pool must not answer for the
		// content of its last life.
		old := randGraph(rng)
		check(iter, "before recycling", old)
		oldGen := old.Generation()
		hits := st.ArenaHits()
		old.Release()
		reused := cg.New(cg.Options{Stats: st})
		if st.ArenaHits() > hits {
			noteStale("recycled store", oldGen, reused)
		}
		check(iter, "recycled store", reused)
		reused.Release()
	}
	t.Logf("lookups: %v", cov)
	t.Logf("mutations the memo would have answered stale: %v", stale)
	for _, k := range []string{"not cached", "inconsistent graph", "general atom", "empty slot", "hit", "overwrite", "other generation"} {
		if cov[k] == 0 {
			t.Errorf("coverage: no lookup of kind %q", k)
		}
	}
	if mutations["FullClose"] == 0 || mutations["FullClose (clone)"] == 0 {
		t.Errorf("coverage: FullClose ran %d times on private stores and %d on clones; want both > 0",
			mutations["FullClose"], mutations["FullClose (clone)"])
	}
	for _, k := range []string{"AddLE", "SetConst", "Forget", "Drop", "Shift", "Rename", "Join", "Widen",
		"MarkInconsistent", "AddLE early-out", "AddLE (clone)", "SetConst (clone)", "Rename (clone)", "recycled store"} {
		if stale[k] == 0 {
			t.Errorf("coverage: no %s changed the enrichment of a bound the memo held", k)
		}
	}
}

// TestEnrichMemoHitZeroAlloc gates a memo hit at zero allocations, for a
// bound that enrichment extends (the hit returns the cached merge) and for
// one it leaves alone.
func TestEnrichMemoHitZeroAlloc(t *testing.T) {
	ctx := ctxWith(func(g *cg.Graph) {
		g.SetConst("i", 1)
		g.AddEq("j", "np", -1)
		g.AddEq("k0", "i", 2)
	})
	ctx.Memo = NewMemo()
	fresh := NewBound(nil, sym.VarPlus("i", 0), sym.VarPlus("j", 1))
	lone := NewBound(nil, sym.VarPlus("x", 0))
	enriched := ctx.Enrich(fresh)
	if len(enriched.atoms) <= len(fresh.atoms) {
		t.Fatalf("enrichment adds nothing to %v", keysOf(fresh))
	}
	_ = ctx.Enrich(lone)
	for _, b := range []Bound{fresh, lone} {
		if k := memoCase(ctx, b); k != "hit" {
			t.Fatalf("lookup of %v after filling the memo: %s, want hit", keysOf(b), k)
		}
		if n := testing.AllocsPerRun(1000, func() { _ = ctx.Enrich(b) }); n != 0 {
			t.Errorf("a memo hit on %v allocates %v per op, want 0", keysOf(b), n)
		}
	}
}

// sameSlice reports whether a and b are held in one array.
func sameSlice(a, b Bound) bool { return b.same(a) && a.IsValid() }

// TestBoundTableRebuildAllocsNothing rebuilds bounds whose content is
// already in its slot, through NewBound, Subst, Widen and enrichment's
// merge: each rebuild must return the cached slice and allocate nothing.
// Each operation builds one bound, so no two bounds compete for a slot.
func TestBoundTableRebuildAllocsNothing(t *testing.T) {
	m := NewMemo()
	x, np, j2 := sym.VarPlus("x", 1), sym.VarPlus("np", -1), sym.VarPlus("j", 2)
	nb := NewBound(m, x, np)
	sub := nb.Subst(m, "x", j2)
	lo := NewBound(m, sym.Var("a"), sym.Var("b"), sym.Const(3))
	lo2 := NewBound(m, sym.Var("b"), sym.Const(3), sym.Var("c"))
	s, o := Set{lo, nb}, Set{lo2, nb}
	w, ok := s.Widen(m, o)
	if !ok || len(w.LB.atoms) != 2 || !sameSlice(w.UB, nb) {
		t.Fatalf("Widen(%v, %v) = %v, %v", s.StringAll(), o.StringAll(), w.StringAll(), ok)
	}
	fresh := [...]Atom{{V: cg.Intern("y"), C: 4}, {V: cg.AtomZero, C: 9}}
	merged := nb.merge(m, slices.Clone(fresh[:]))
	for _, c := range []struct {
		name  string
		first Bound
		again func() Bound
	}{
		{"NewBound", nb, func() Bound { return NewBound(m, x, np) }},
		{"Subst", sub, func() Bound { return nb.Subst(m, "x", j2) }},
		{"Widen", w.LB, func() Bound { w, _ := s.Widen(m, o); return w.LB }},
		{"merge", merged, func() Bound { f := fresh; return nb.merge(m, f[:]) }},
	} {
		if again := c.again(); !sameSlice(again, c.first) {
			t.Errorf("%s rebuilt %v into a new slice", c.name, c.first.StringAll())
		}
		if n := testing.AllocsPerRun(100, func() { _ = c.again() }); n != 0 {
			t.Errorf("%s rebuilding a cached bound allocates %v per op, want 0", c.name, n)
		}
	}
	// Widening a set with itself returns it unscanned.
	if n := testing.AllocsPerRun(100, func() { _, _ = s.Widen(m, s) }); n != 0 {
		t.Errorf("Widen of a set with itself allocates %v per op, want 0", n)
	}
	// Without a table, or with it turned off, every rebuild copies.
	off := NewMemo()
	off.DisableBounds()
	for _, memo := range []*Memo{nil, off} {
		if a, b := NewBound(memo, x, np), NewBound(memo, x, np); sameSlice(a, b) {
			t.Errorf("NewBound through %v shares a slice", memo)
		}
	}
	if cached, err := m.CheckBounds(); err != nil || cached == 0 {
		t.Errorf("CheckBounds = %d, %v", cached, err)
	}
}

// TestBoundTableSpreadsKeys: bounds that differ only in their constant, or
// only in their variable, take different slots, so a working set of
// similar bounds does not evict itself.
func TestBoundTableSpreadsKeys(t *testing.T) {
	slots := func(atoms func(k int) Atom) int {
		seen := map[uint64]bool{}
		for k := 0; k < 64; k++ {
			h, _ := hashAtoms(0, []Atom{atoms(k)})
			seen[h&(boundSlots-1)] = true
		}
		return len(seen)
	}
	x := cg.Intern("x")
	if n := slots(func(k int) Atom { return Atom{V: x, C: int64(k)} }); n < 40 {
		t.Errorf("64 bounds x+c take %d slots, want at least 40", n)
	}
	if n := slots(func(k int) Atom { return Atom{V: cg.Intern(fmt.Sprintf("v%d", k)), C: 1} }); n < 40 {
		t.Errorf("64 bounds v+1 take %d slots, want at least 40", n)
	}
}

// TestBoundTableSkipsGeneralAtoms: a bound with a general atom allocates
// on every build and never takes a slot, since the key covers var+c atoms
// only.
func TestBoundTableSkipsGeneralAtoms(t *testing.T) {
	m := NewMemo()
	e := sym.Scale(sym.Var("np"), 2)
	if a, b := NewBound(m, e, sym.Var("x")), NewBound(m, e, sym.Var("x")); sameSlice(a, b) || a.StringAll() != b.StringAll() {
		t.Errorf("bounds %v and %v with a general atom share a slice", a.StringAll(), b.StringAll())
	}
	if cached, err := m.CheckBounds(); err != nil || cached != 0 {
		t.Errorf("CheckBounds = %d, %v, want 0 cached", cached, err)
	}
}
