package core

import (
	"bytes"
	"fmt"
	"math/rand"
	"regexp"
	"strings"
	"testing"

	"repro/internal/cg"
	"repro/internal/procset"
	"repro/internal/sym"
)

// TestStateIdentityTargeted pins the identity relation to FullKey equality
// on the cases where the binary encoding could drift from the rendering:
// equality orientation by slot order, ZeroVar on either side, inconsistent
// graphs, match and pending ranges that render alike with different atoms,
// the [x] point form, pending payloads, and ⊤ reasons.
func TestStateIdentityTargeted(t *testing.T) {
	type build func(st *State)
	x, y := sym.Var("x"), sym.Var("y")
	shift := func(valOK bool, val sym.Expr) build {
		return func(st *State) {
			st.Pending = []*PendingSend{{Node: 1, Shape: PendShift, Senders: AllProcs(),
				Offset: sym.Const(1), Val: val, ValOK: valOK}}
		}
	}
	sender := func(s procset.Set) build {
		return func(st *State) {
			st.Matches = []*Match{{SendNode: 1, RecvNode: 2, Sender: s, Receiver: AllProcs()}}
		}
	}
	top := func(why string, node int) build {
		return func(st *State) { *st = State{Top: true, TopWhy: why, TopNode: node} }
	}
	cases := []struct {
		name  string
		a, b  build
		equal bool
	}{
		{"equality, same slot order", func(st *State) {
			st.G.AddVar("x")
			st.G.AddVar("y")
			st.G.AddEq("x", "y", 2)
		}, func(st *State) {
			st.G.AddVar("x")
			st.G.AddVar("y")
			st.G.AddEq("y", "x", -2)
		}, true},
		{"equality, other slot order", func(st *State) {
			st.G.AddVar("x")
			st.G.AddVar("y")
			st.G.AddEq("x", "y", 2)
		}, func(st *State) {
			st.G.AddVar("y")
			st.G.AddVar("x")
			st.G.AddEq("x", "y", 2)
		}, false},
		{"ZeroVar on either side", func(st *State) { st.G.SetConst("x", 5) },
			func(st *State) { st.G.AddEq(cg.ZeroVar, "x", -5) }, true},
		{"unary bound vs equality", func(st *State) { st.G.AddLE("x", cg.ZeroVar, 5) },
			func(st *State) { st.G.SetConst("x", 5) }, false},
		{"inconsistent graphs", func(st *State) {
			st.G.AddLE("x", "y", -1)
			st.G.AddLE("y", "x", -1)
		}, func(st *State) { st.G.MarkInconsistent() }, true},
		{"inconsistent vs empty", func(st *State) { st.G.MarkInconsistent() }, func(st *State) {}, false},
		{"non-primary match atoms",
			sender(procset.Set{LB: procset.NewBound(nil, sym.Zero, sym.Var("ps0.i")), UB: procset.NewBound(nil, x)}),
			sender(procset.Set{LB: procset.NewBound(nil, sym.Zero, sym.Var("ps0.j")), UB: procset.NewBound(nil, x)}), true},
		{"[x] vs [x..x]", sender(procset.Singleton(nil, x)),
			sender(procset.Set{LB: procset.NewBound(nil, x, y), UB: procset.NewBound(nil, x)}), false},
		{"range atoms", func(st *State) {
			st.Sets[0].Range = procset.Set{LB: procset.NewBound(nil, sym.Zero, sym.Var("ps0.i")), UB: procset.NewBound(nil, x)}
		}, func(st *State) {
			st.Sets[0].Range = procset.Set{LB: procset.NewBound(nil, sym.Zero, sym.Var("ps0.j")), UB: procset.NewBound(nil, x)}
		}, false},
		{"Approx flag", func(st *State) {}, func(st *State) { st.Sets[0].Approx = true }, false},
		{"Blocked flag", func(st *State) {}, func(st *State) { st.Sets[0].Blocked = true }, false},
		{"pending without Val", shift(false, sym.Zero), shift(false, sym.Const(3)), true},
		{"pending with vs without Val", shift(false, sym.Const(3)), shift(true, sym.Const(3)), false},
		{"pending Vals", shift(true, sym.Const(3)), shift(true, sym.Const(4)), false},
		{"pending polynomial Val", shift(true, sym.Scale(x, 2)), shift(true, sym.Mul(x, y)), false},
		{"⊤ reasons", top("a", 1), top("b", 1), false},
		{"⊤ blame", top("a", 1), top("a", 2), true},
	}
	for _, c := range cases {
		a, _ := newTestState(t)
		b, _ := newTestState(t)
		c.a(a)
		c.b(b)
		keyEq := a.FullKey() == b.FullKey()
		idEq := bytes.Equal(a.appendIdentity(nil), b.appendIdentity(nil))
		if keyEq != c.equal || idEq != c.equal {
			t.Errorf("%s: FullKey equal = %v, identity equal = %v, want both %v\n%q\n%q",
				c.name, keyEq, idEq, c.equal, a.FullKey(), b.FullKey())
		}
	}
}

// TestStateIdentityZeroAlloc gates the engine's per-revision key work at
// zero allocations: an identity encoded into a warm buffer, a seen-set
// probe with it, and CanonicalizeParams on a state with no helper
// variable.
func TestStateIdentityZeroAlloc(t *testing.T) {
	st, _ := newTestState(t)
	st.G.AddEq(PV(0, "i"), "np", -1)
	st.G.AddLE(PV(0, "j"), PV(0, "i"), 2)
	st.Sets[0].Range = procset.Set{LB: procset.NewBound(nil, sym.Zero, sym.Var(PV(0, "j"))), UB: procset.NewBound(nil, sym.VarPlus("np", -1))}
	st.Matches = []*Match{{SendNode: 1, RecvNode: 2, Sender: AllProcs(), Receiver: procset.Singleton(nil, sym.Zero)}}
	buf := st.appendIdentity(nil)
	seen := map[string]struct{}{string(buf): {}}
	if n := testing.AllocsPerRun(1000, func() { buf = st.appendIdentity(buf) }); n != 0 {
		t.Errorf("identity encoding into a warm buffer allocates %v per op, want 0", n)
	}
	if n := testing.AllocsPerRun(1000, func() {
		buf = st.appendIdentity(buf)
		if _, ok := seen[string(buf)]; !ok {
			t.Fatal("seen probe missed")
		}
	}); n != 0 {
		t.Errorf("seen probe allocates %v per op, want 0", n)
	}
	if n := testing.AllocsPerRun(1000, func() { _ = st.CanonicalizeParams() }); n != 0 {
		t.Errorf("CanonicalizeParams without helpers allocates %v per op, want 0", n)
	}
}

// TestAnonSetIDsMatchesPattern pins the in-place eraser to the regexp
// replace it replaced, ps\d+\. → "ps.", on random strings over the
// pattern's alphabet.
func TestAnonSetIDsMatchesPattern(t *testing.T) {
	re := regexp.MustCompile(`ps\d+\.`)
	rng := rand.New(rand.NewSource(7))
	const alphabet = "ps019.x[]"
	for iter := 0; iter < 20000; iter++ {
		b := make([]byte, rng.Intn(12))
		for i := range b {
			b[i] = alphabet[rng.Intn(len(alphabet))]
		}
		r, want := string(b), re.ReplaceAllString(string(b), "ps.")
		if got := string(eraseSetIDs(b)); got != want {
			t.Fatalf("eraseSetIDs(%q) = %q, pattern says %q", r, got, want)
		}
	}
}

// refShapeKey is the fmt-based ShapeKey the byte-append builder replaced.
func refShapeKey(st *State) string {
	parts := make([]string, len(st.Sets))
	for i, p := range st.Sets {
		b := ""
		if p.Blocked {
			b = "*"
		}
		parts[i] = fmt.Sprintf("n%d%s", p.Node.ID, b)
	}
	key := strings.Join(parts, "|")
	for _, p := range st.Pending {
		key += fmt.Sprintf("|p%d%s", p.Node, p.Shape)
	}
	return key
}

// TestShapeKeyMatchesReference checks ShapeKey byte for byte against the
// fmt reference over set lists and pending lists of every shape.
func TestShapeKeyMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	for iter := 0; iter < 500; iter++ {
		st, g := newTestState(t)
		st.Sets = nil
		for n := rng.Intn(4); n > 0; n-- {
			st.Sets = append(st.Sets, &ProcSet{ID: len(st.Sets), Node: g.Nodes[rng.Intn(len(g.Nodes))],
				Range: AllProcs(), Blocked: rng.Intn(2) == 0})
		}
		for n := rng.Intn(3); n > 0; n-- {
			st.Pending = append(st.Pending, &PendingSend{Node: rng.Intn(20), Shape: PendShape(rng.Intn(2)), Senders: AllProcs()})
		}
		got := st.ShapeKey()
		if want := refShapeKey(st); got != want {
			t.Fatalf("ShapeKey = %q, want %q", got, want)
		}
	}
}
