package cg

import (
	"fmt"
	"math/rand"
	"strings"
	"sync"
	"testing"
)

// TestGenerationContract pins what Generation promises its cache keys, over
// random graphs and every kind of mutation: an operation that changes the
// graph's content starts a generation never seen before (or reports 0
// when it leaves the graph inconsistent), a generation that moves at all
// moves to a new one, clones share a generation until one of them writes,
// a consistent graph never reports 0, and a store recycled through the
// arena pool comes back in a new generation.
func TestGenerationContract(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	st := &Stats{}
	seen := map[uint64]bool{}
	cov := map[string]int{}
	// fresh checks that g's generation is new, and records it.
	fresh := func(iter int, what string, g *Graph) {
		t.Helper()
		gen := g.Generation()
		switch {
		case !g.Consistent():
			if gen != 0 {
				t.Fatalf("iter %d, %s: inconsistent graph reports generation %d, want 0", iter, what, gen)
			}
		case gen == 0:
			t.Fatalf("iter %d, %s: consistent graph reports generation 0", iter, what)
		case seen[gen]:
			t.Fatalf("iter %d, %s: generation %d repeats", iter, what, gen)
		}
		seen[gen] = true
	}
	for iter := 0; iter < 3000; iter++ {
		g := randWitnessGraph(rng, st)
		fresh(iter, "new graph", g)
		var shared *Graph
		if rng.Intn(2) == 0 {
			shared = g.Clone()
			if shared.Generation() != g.Generation() {
				t.Fatalf("iter %d: clone generation %d, original %d", iter, shared.Generation(), g.Generation())
			}
		}
		gen, before := g.Generation(), content(g)
		x := witnessVars[rng.Intn(len(witnessVars))]
		y := witnessVars[rng.Intn(len(witnessVars))]
		c := int64(rng.Intn(9) - 4)
		var kind string
		out := g
		switch rng.Intn(11) {
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
		case 6, 7:
			o := randWitnessGraph(rng, st)
			if rng.Intn(2) == 0 {
				kind, out = "Join", Join(g, o)
			} else {
				kind, out = "Widen", Widen(g, o)
			}
			switch {
			case !g.Consistent() || !o.Consistent():
				// The result is a clone of one side.
				if out.Generation() != g.Generation() && out.Generation() != o.Generation() {
					t.Fatalf("iter %d: %s with an inconsistent side made generation %d", iter, kind, out.Generation())
				}
			default:
				fresh(iter, kind, out)
				cov[kind]++
			}
			o.Release()
		case 8:
			kind = "FullClose"
			g.FullClose()
		case 9:
			kind = "MarkInconsistent"
			g.MarkInconsistent()
		default:
			kind = "AddLE early-out"
			if d, ok := g.DiffBound(y, x); ok && x != y {
				g.AddLE(x, y, -d-1) // contradicts y - x <= d without a write
			}
		}
		if g.Generation() != gen {
			fresh(iter, kind, g)
			if shared != nil {
				kind += " (clone)"
			}
			cov[kind]++
		} else if g.Consistent() && content(g) != before {
			t.Fatalf("iter %d: %s changed the graph but kept generation %d", iter, kind, gen)
		}
		if shared != nil && shared.Generation() != gen {
			t.Fatalf("iter %d: %s on a clone moved the shared generation %d -> %d", iter, kind, gen, shared.Generation())
		}
		if out != g {
			out.Release()
		}
		g.Release()
		shared.Release()

		// The map backend's stores start in generations of their own too.
		m := New(Options{Backend: MapBackend})
		fresh(iter, "map-backend graph", m)
		mc := m.Clone()
		mc.SetConst(x, c)
		fresh(iter, "map-backend copy", mc)
		mc.Release()
		m.Release()

		// A store recycled through the arena pool starts a new generation.
		old := randWitnessGraph(rng, st)
		fresh(iter, "graph before recycling", old)
		hits := st.ArenaHits()
		old.Release()
		reused := New(Options{Stats: st})
		fresh(iter, "graph on a recycled store", reused)
		if st.ArenaHits() > hits {
			cov["recycled store"]++
		}
		reused.Release()
	}
	t.Logf("generation-starting operations: %v", cov)
	for _, k := range []string{"AddLE", "SetConst", "Forget", "Drop", "Shift", "Rename", "Join", "Widen", "FullClose",
		"MarkInconsistent", "AddLE early-out", "AddLE (clone)", "SetConst (clone)", "Rename (clone)", "recycled store"} {
		if cov[k] == 0 {
			t.Errorf("coverage: no %s started a generation", k)
		}
	}
}

// content renders what a generation names: whether g is consistent, its
// variables in slot order and every finite bound between them.
func content(g *Graph) string {
	var b strings.Builder
	fmt.Fprint(&b, g.Consistent(), slotNames(g))
	g.ForEachBoundA(func(i, j int32, c int64) { fmt.Fprintf(&b, " %d-%d<=%d", i, j, c) })
	return b.String()
}

// TestGenerationCloneRace reads the generation of clones of one shared
// store on several goroutines while others materialize their own clones
// (run it under -race). Every reader must see the shared generation, and
// every writer a new one. The base graph is released before the clones
// start, so the last writer may find the store private and renew it in
// place once the readers are done with it.
func TestGenerationCloneRace(t *testing.T) {
	for round := 0; round < 50; round++ {
		base := New(Options{})
		for i := 0; i+1 < len(witnessVars); i++ {
			base.AddEq(witnessVars[i], witnessVars[i+1], int64(i+round%3))
		}
		want := base.Generation()
		start := make(chan struct{})
		var wg sync.WaitGroup
		for w := 0; w < 8; w++ {
			c := base.Clone()
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				defer c.Release()
				<-start
				if w%2 == 1 {
					c.AddLE(witnessVars[w%len(witnessVars)], ZeroVar, int64(w))
					c.Forget(witnessVars[(w+1)%len(witnessVars)])
					if got := c.Generation(); got == want {
						t.Errorf("round %d: a written clone keeps the shared generation %d", round, got)
					}
					return
				}
				for i := 0; i < 100; i++ {
					if got := c.Generation(); got != want {
						t.Errorf("round %d: clone reads generation %d, want %d", round, got, want)
						return
					}
				}
			}(w)
		}
		base.Release()
		close(start)
		wg.Wait()
	}
}
