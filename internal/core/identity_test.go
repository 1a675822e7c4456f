// External test package: building real matchers requires the client
// packages, which import core.
package core_test

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/bench"
	"repro/internal/cfg"
	"repro/internal/clients/cartesian"
	"repro/internal/core"
	"repro/internal/differ"
	"repro/internal/gen"
	"repro/internal/parser"
)

// identityProgram is one CFG the identity tests analyze.
type identityProgram struct {
	name  string
	g     *cfg.Graph
	paper bool
}

// identityPrograms returns the CFGs the identity tests run: the paper
// programs plus the first n programs of generator pool 1, each in safe and
// in buggy mode.
func identityPrograms(t testing.TB, n int) []identityProgram {
	t.Helper()
	var out []identityProgram
	for _, w := range bench.All() {
		_, g := w.Parse()
		out = append(out, identityProgram{w.Name, g, true})
	}
	for i := 0; i < n; i++ {
		for _, bug := range []gen.BugKind{gen.BugNone, gen.Bugs()[i%len(gen.Bugs())]} {
			p := gen.New(rand.New(rand.NewSource(differ.ProgramSeed(1, i))), gen.Config{Bug: bug})
			prog, err := parser.Parse("gen.mpl", p.Src)
			if err != nil {
				t.Fatalf("gen %d (%s): %v", i, bug, err)
			}
			out = append(out, identityProgram{fmt.Sprintf("gen%d%s", i, bug), cfg.Build(prog), false})
		}
	}
	return out
}

// identityAgrees checks the identity relation against FullKey over a set
// of states: the map from FullKey to identity and the map back must both
// be functions, which is "identity-equal ⇔ FullKey-equal" on every pair.
type identityAgrees struct {
	byKey, byID map[string]string
	pairs       int
}

func newIdentityAgrees() *identityAgrees {
	return &identityAgrees{byKey: map[string]string{}, byID: map[string]string{}}
}

func (c *identityAgrees) add(t *testing.T, st *core.State) {
	t.Helper()
	id := string(core.Identity(st))
	key := st.FullKey()
	if prev, ok := c.byKey[key]; ok {
		c.pairs++
		if prev != id {
			t.Fatalf("equal FullKeys, different identities:\n%s", key)
		}
	}
	if prev, ok := c.byID[id]; ok && prev != key {
		t.Fatalf("equal identities, different FullKeys:\n%s\n%s", prev, key)
	}
	c.byKey[key], c.byID[id] = id, key
}

// TestStateIdentityMatchesFullKey checks that the engine's binary identity
// relates states exactly as FullKey does, on every state the one-worker
// engine delivers to its table and every combine result a replay of those
// deliveries produces, over the paper programs and 40 generated programs
// in safe and buggy mode; the paper programs also run with non-blocking
// sends, whose states carry pending-send records. States are compared
// within each shape key, where the engine compares them.
func TestStateIdentityMatchesFullKey(t *testing.T) {
	progs := identityPrograms(t, 40)
	var states, pairs, pending int
	for _, p := range progs {
		modes := []bool{false}
		if p.paper {
			modes = append(modes, true)
		}
		for _, nonBlocking := range modes {
			streams := map[string][]*core.State{}
			opts := core.WithRevisionHook(core.Options{NonBlockingSends: nonBlocking}, func(key string, st *core.State) {
				streams[key] = append(streams[key], st)
				if len(st.Pending) > 0 {
					pending++
				}
			})
			opts.Matcher = cartesian.New(core.ScanInvariants(p.g))
			if _, err := core.Analyze(p.g, opts); err != nil {
				t.Fatalf("%s: analyze: %v", p.name, err)
			}
			s, n := checkStreams(t, streams)
			states += s
			pairs += n
		}
	}
	if states < 1000 || pairs == 0 || pending == 0 {
		t.Fatalf("coverage: %d distinct states, %d FullKey-equal pairs, %d with pending sends", states, pairs, pending)
	}
	t.Logf("%d programs, %d distinct states (%d deliveries with pending sends), %d FullKey-equal pairs",
		len(progs), states, pending, pairs)
}

// checkStreams runs identityAgrees over each shape key's deliveries and
// their replayed combine results, returning the distinct states and the
// FullKey-equal pairs seen.
func checkStreams(t *testing.T, streams map[string][]*core.State) (states, pairs int) {
	for key, sts := range streams {
		c := newIdentityAgrees()
		for _, st := range sts {
			c.add(t, st)
		}
		if len(sts) >= 2 {
			for _, st := range core.ReplayCombines(core.Options{}, key, sts) {
				c.add(t, st)
			}
		}
		states += len(c.byKey)
		pairs += c.pairs
	}
	return states, pairs
}

// midRunState returns the stencil1d configuration with the most
// constraint-graph variables among the second half of the one-worker
// engine's table deliveries.
func midRunState(b *testing.B) *core.State {
	var g *cfg.Graph
	for _, w := range bench.All() {
		if w.Name == "stencil1d" {
			_, g = w.Parse()
		}
	}
	if g == nil {
		b.Fatal("stencil1d not in bench.All()")
	}
	var all []*core.State
	opts := core.WithRevisionHook(core.Options{}, func(_ string, st *core.State) { all = append(all, st) })
	opts.Matcher = cartesian.New(core.ScanInvariants(g))
	if _, err := core.Analyze(g, opts); err != nil {
		b.Fatal(err)
	}
	best := all[len(all)/2]
	for _, st := range all[len(all)/2:] {
		if st.G.NumVars() > best.G.NumVars() {
			best = st
		}
	}
	return best
}

// BenchmarkStateIdentity encodes the binary identity of a stencil1d
// mid-run state; BenchmarkFullKey renders the same state's FullKey.
func BenchmarkStateIdentity(b *testing.B) {
	st := midRunState(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = core.Identity(st)
	}
}

func BenchmarkFullKey(b *testing.B) {
	st := midRunState(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = st.FullKey()
	}
}
