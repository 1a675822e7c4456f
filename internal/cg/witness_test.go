package cg

import (
	"fmt"
	"math/rand"
	"sort"
	"sync"
	"testing"
)

// scanWitnesses is the uncached witness computation: a fresh scan of x's
// row and column, sorted by name.
func scanWitnesses(g *Graph, x Atom) []Witness {
	if !g.consistent {
		return nil
	}
	i := g.s.slot(x)
	if i < 0 {
		return nil
	}
	var out []Witness
	for j, y := range g.s.atoms {
		if j == i {
			continue
		}
		up, down := g.s.get(i, j), g.s.get(j, i)
		if up < Inf && down < Inf && up == -down {
			out = append(out, Witness{Var: y, C: up})
		}
	}
	sort.Slice(out, func(a, b int) bool { return out[a].Var.String() < out[b].Var.String() })
	return out
}

var witnessVars = []string{"i", "j", "np", "k0", "x", "y"}

// witnessAtoms are the atoms a witness comparison covers: ZeroVar, every
// test variable (present or not) and the rename targets.
func witnessAtoms() []Atom {
	out := []Atom{AtomZero}
	for _, v := range witnessVars {
		out = append(out, Intern(v))
	}
	for i := 0; i < 4; i++ {
		out = append(out, Intern(fmt.Sprintf("renamed%d", i)))
	}
	return out
}

// randWitnessGraph draws a graph rich in equalities and constants, so most
// variables have witnesses.
func randWitnessGraph(rng *rand.Rand, st *Stats) *Graph {
	g := New(Options{Stats: st})
	for n := 1 + rng.Intn(7); n > 0; n-- {
		x := witnessVars[rng.Intn(len(witnessVars))]
		y := witnessVars[rng.Intn(len(witnessVars))]
		c := int64(rng.Intn(9) - 4)
		switch rng.Intn(3) {
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

// renderWitnesses renders every covered atom's witnesses, cached or scanned.
func renderWitnesses(g *Graph, lookup func(*Graph, Atom) []Witness) string {
	var out []string
	for _, a := range witnessAtoms() {
		out = append(out, fmt.Sprint(a.String(), lookup(g, a)))
	}
	return fmt.Sprint(out)
}

func cached(g *Graph, a Atom) []Witness { return g.EqualWitnessesA(a) }

// TestWitnessCacheMatchesScan warms a graph's witness cache, applies one
// mutation, and requires the cached witnesses to equal a fresh scan. Every
// kind of mutation must, at least once, change the witnesses of a graph
// whose cache was warm, so a reset missing from any of them fails the test:
// in-place writes (materialize on a private store), writes to a clone (a
// copy into a pooled store), join and widen results, the consistency
// early-outs that leave storage alone, and a store recycled through the
// arena pool.
func TestWitnessCacheMatchesScan(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	st := &Stats{}
	changed := map[string]int{}
	for iter := 0; iter < 4000; iter++ {
		g := randWitnessGraph(rng, st)
		var shared *Graph
		if rng.Intn(2) == 0 {
			shared = g.Clone() // g's first write copies out of the shared store
		}
		before := renderWitnesses(g, cached)
		x := witnessVars[rng.Intn(len(witnessVars))]
		y := witnessVars[rng.Intn(len(witnessVars))]
		c := int64(rng.Intn(9) - 4)
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
			to := fmt.Sprintf("renamed%d", rng.Intn(4))
			if !g.HasVar(to) {
				g.Rename(x, to)
			}
		case 6:
			kind = "Join"
			o := randWitnessGraph(rng, st)
			out = Join(g, o)
			o.Release()
		case 7:
			kind = "Widen"
			o := randWitnessGraph(rng, st)
			out = Widen(g, o)
			o.Release()
		case 8:
			// An edge written straight into a private store, as a bulk
			// edit leaves it, then the closure that restores the invariant.
			kind = "FullClose"
			i, j := g.slotIntern(Intern(x)), g.slotIntern(Intern(y))
			g.materialize()
			if i != j {
				g.s.set(i, j, c)
			}
			before = renderWitnesses(g, cached)
			g.FullClose()
		default:
			kind = "MarkInconsistent"
			if rng.Intn(2) == 0 {
				g.MarkInconsistent()
			} else if d, ok := g.DiffBound(y, x); ok && x != y {
				kind = "AddLE early-out"
				g.AddLE(x, y, -d-1) // contradicts y - x <= d without a write
			}
		}
		want := renderWitnesses(out, scanWitnesses)
		if got := renderWitnesses(out, cached); got != want {
			t.Fatalf("iter %d, after %s: cached witnesses\n%s\nwant\n%s", iter, kind, got, want)
		}
		if before != want {
			if shared != nil {
				kind += " (clone)"
			}
			changed[kind]++
		}
		if out != g {
			out.Release()
		}
		g.Release()
		shared.Release()

		// A store recycled through the arena pool must come back without
		// the table of its last life.
		old := randWitnessGraph(rng, st)
		_ = renderWitnesses(old, cached)
		stale := len(old.EqualWitnessesA(AtomZero)) > 0 // what slot 0 would misreport
		hits := st.ArenaHits()
		old.Release()
		fresh := New(Options{Stats: st})
		want = renderWitnesses(fresh, scanWitnesses)
		if got := renderWitnesses(fresh, cached); got != want {
			t.Fatalf("iter %d: a recycled store reports witnesses\n%s\nwant\n%s", iter, got, want)
		}
		if st.ArenaHits() > hits && stale {
			changed["recycled store"]++
		}
		fresh.Release()
	}
	t.Logf("witness-changing mutations: %v", changed)
	for _, k := range []string{"AddLE", "SetConst", "Forget", "Drop", "Shift", "Rename", "Join", "Widen", "FullClose",
		"MarkInconsistent", "AddLE early-out", "AddLE (clone)", "SetConst (clone)", "Rename (clone)", "recycled store"} {
		if changed[k] == 0 {
			t.Errorf("coverage: no %s changed a warm graph's witnesses", k)
		}
	}
}

// TestWitnessCacheCloneRace reads witnesses from clones of one shared store
// on several goroutines while others write to their own clones (run it
// under -race). Each round starts from a cold cache, so the table fills
// race with each other and with the writers' materializations; every
// reader must see the witnesses of the shared content.
func TestWitnessCacheCloneRace(t *testing.T) {
	atoms := witnessAtoms()
	for round := 0; round < 50; round++ {
		base := New(Options{})
		for i := 0; i+1 < len(witnessVars); i++ {
			base.AddEq(witnessVars[i], witnessVars[i+1], int64(i+round%3))
		}
		_ = base.EqualWitnessesA(AtomZero)
		// The last write leaves the cache cold with a spare table, whose
		// buffers the concurrent fills compete for.
		base.SetConst(witnessVars[round%len(witnessVars)], int64(round))
		want := make([]string, len(atoms))
		for i, a := range atoms {
			want[i] = fmt.Sprint(scanWitnesses(base, a))
		}
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
					_ = c.EqualWitnessesA(atoms[w%len(atoms)])
					return
				}
				for i, a := range atoms {
					if got := fmt.Sprint(c.EqualWitnessesA(a)); got != want[i] {
						t.Errorf("round %d: clone reads %s witnesses %s, want %s", round, a, got, want[i])
						return
					}
				}
			}(w)
		}
		close(start)
		wg.Wait()
		base.Release()
	}
}
