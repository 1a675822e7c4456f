package cg

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestDropRemovesVariable(t *testing.T) {
	for _, opts := range backends() {
		g := New(opts)
		g.AddLE("a", "b", 1)
		g.AddLE("b", "c", 2)
		g.Drop("b")
		if g.HasVar("b") {
			t.Errorf("[%v] dropped var still present", opts.Backend)
		}
		// Transitive fact survives (graph was closed before the drop).
		if !g.Entails("a", "c", 3) {
			t.Errorf("[%v] a <= c+3 lost by Drop", opts.Backend)
		}
		// Re-adding the name starts fresh.
		g.AddVar("b")
		if _, ok := g.DiffBound("a", "b"); ok {
			t.Errorf("[%v] recreated var carries stale bounds", opts.Backend)
		}
	}
}

func TestDropZeroVarIgnored(t *testing.T) {
	g := NewDefault()
	g.SetConst("x", 5)
	g.Drop(ZeroVar)
	if v, ok := g.ConstVal("x"); !ok || v != 5 {
		t.Error("dropping ZeroVar must be a no-op")
	}
}

func TestDropLastAndMiddle(t *testing.T) {
	for _, opts := range backends() {
		g := New(opts)
		for _, v := range []string{"a", "b", "c", "d"} {
			g.AddVar(v)
		}
		g.AddLE("a", "d", 7)
		g.Drop("d") // last slot
		g.Drop("a") // middle slot after swap
		if g.HasVar("a") || g.HasVar("d") {
			t.Errorf("[%v] drop incomplete", opts.Backend)
		}
		if !g.HasVar("b") || !g.HasVar("c") {
			t.Errorf("[%v] unrelated vars lost", opts.Backend)
		}
	}
}

func TestQuickDropPreservesOthers(t *testing.T) {
	names := []string{"v0", "v1", "v2", "v3", "v4"}
	cfg := &quick.Config{MaxCount: 150}
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		for _, opts := range backends() {
			g := New(opts)
			for e := 0; e < 12; e++ {
				i, j := r.Intn(5), r.Intn(5)
				if i == j {
					continue
				}
				g.AddLE(names[i], names[j], int64(r.Intn(9)))
			}
			victim := names[r.Intn(5)]
			// Record all bounds not involving the victim.
			type key struct{ x, y string }
			want := map[key]int64{}
			forEachBound(g, func(x, y string, c int64) {
				if x != victim && y != victim {
					want[key{x, y}] = c
				}
			})
			g.Drop(victim)
			got := map[key]int64{}
			forEachBound(g, func(x, y string, c int64) {
				got[key{x, y}] = c
			})
			if len(got) != len(want) {
				return false
			}
			for k, v := range want {
				if got[k] != v {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, cfg); err != nil {
		t.Error(err)
	}
}

func TestForEachBoundDeterministic(t *testing.T) {
	g := NewDefault()
	g.AddLE("b", "a", 1)
	g.AddLE("a", "c", 2)
	var first, second []string
	forEachBound(g, func(x, y string, c int64) { first = append(first, x+y) })
	forEachBound(g, func(x, y string, c int64) { second = append(second, x+y) })
	if len(first) == 0 || len(first) != len(second) {
		t.Fatalf("bounds %v vs %v", first, second)
	}
	for i := range first {
		if first[i] != second[i] {
			t.Error("ForEachBoundA order not deterministic")
		}
	}
}

// forEachBound is ForEachBoundA with the slots rendered as names.
func forEachBound(g *Graph, fn func(x, y string, c int64)) {
	g.ForEachBoundA(func(i, j int32, c int64) { fn(g.AtomAt(i).String(), g.AtomAt(j).String(), c) })
}
