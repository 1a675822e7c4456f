package cg

import (
	"math/rand"
	"slices"
	"sort"
	"strconv"
	"testing"
)

// slotNames renders g's slot table, ZeroVar included.
func slotNames(g *Graph) []string {
	out := make([]string, len(g.s.atoms))
	for i, a := range g.s.atoms {
		out[i] = a.String()
	}
	return out
}

// relabelGraph builds a graph over a, b, c, d with constraints that tell
// every variable apart.
func relabelGraph(opts Options) *Graph {
	g := New(opts)
	g.AddLE("rl.a", "rl.b", 1)
	g.AddEq("rl.b", "rl.c", 2)
	g.SetConst("rl.c", 3)
	g.AddLE("rl.d", "rl.a", -4)
	return g
}

// TestRelabel renames on a swap, a 3-cycle and a partial map (one source
// absent, one mapped to itself) and checks that every slot keeps its
// position and takes its new atom, with the constraints following.
func TestRelabel(t *testing.T) {
	a, b, c, d, x := Intern("rl.a"), Intern("rl.b"), Intern("rl.c"), Intern("rl.d"), Intern("rl.absent")
	e := Intern("rl.e")
	cases := []struct {
		name     string
		from, to []Atom
		want     []string
		render   map[string]string // old name -> new name, for String
	}{
		{"swap", []Atom{a, b}, []Atom{b, a}, []string{ZeroVar, "rl.b", "rl.a", "rl.c", "rl.d"},
			map[string]string{"rl.a": "rl.b", "rl.b": "rl.a"}},
		{"3-cycle", []Atom{a, b, c}, []Atom{b, c, a}, []string{ZeroVar, "rl.b", "rl.c", "rl.a", "rl.d"},
			map[string]string{"rl.a": "rl.b", "rl.b": "rl.c", "rl.c": "rl.a"}},
		{"partial", []Atom{x, d, c}, []Atom{a, e, c}, []string{ZeroVar, "rl.a", "rl.b", "rl.c", "rl.e"},
			map[string]string{"rl.d": "rl.e"}},
	}
	for _, opts := range backends() {
		for _, tc := range cases {
			g := relabelGraph(opts)
			want := New(opts)
			g.ForEachBoundA(func(i, j int32, c int64) {
				rename := func(s string) string {
					if r, ok := tc.render[s]; ok {
						return r
					}
					return s
				}
				want.AddLE(rename(g.AtomAt(i).String()), rename(g.AtomAt(j).String()), c)
			})
			g.Relabel(tc.from, tc.to)
			if got := slotNames(g); !slices.Equal(got, tc.want) {
				t.Errorf("[%v] %s: slots %v, want %v", opts.Backend, tc.name, got, tc.want)
			}
			if g.String() != want.String() {
				t.Errorf("[%v] %s: graph %s, want %s", opts.Backend, tc.name, g, want)
			}
		}
	}
}

// TestRelabelNoOp checks that a relabel that renames nothing — absent
// sources, or sources mapped to themselves — leaves the graph's Generation
// as it was, so memos keyed by it stay valid.
func TestRelabelNoOp(t *testing.T) {
	g := relabelGraph(Options{})
	a, x := Intern("rl.a"), Intern("rl.absent")
	gen, slots := g.Generation(), slotNames(g)
	g.Relabel([]Atom{x, a}, []Atom{Intern("rl.absent2"), a})
	g.Relabel(nil, nil)
	if g.Generation() != gen || !slices.Equal(slotNames(g), slots) {
		t.Errorf("no-op relabel moved generation %d -> %d, slots %v -> %v",
			gen, g.Generation(), slots, slotNames(g))
	}
}

// TestRelabelCollisionPanics checks that, like RenameA, Relabel refuses a
// target that is a variable that stays.
func TestRelabelCollisionPanics(t *testing.T) {
	g := relabelGraph(Options{})
	defer func() {
		if recover() == nil {
			t.Error("relabeling rl.a onto the remaining rl.b did not panic")
		}
	}()
	g.Relabel([]Atom{Intern("rl.a")}, []Atom{Intern("rl.b")})
}

// TestRelabelMatchesTwoPhaseRename checks Relabel slot for slot, and
// constraint for constraint, against the two-phase sequence of RenameA
// calls through temporaries that it replaced, on random graphs and random
// permutations of random subsets of their variables.
func TestRelabelMatchesTwoPhaseRename(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	var names []string
	for i := 0; i < 8; i++ {
		names = append(names, "tp.v"+strconv.Itoa(i))
	}
	for iter := 0; iter < 500; iter++ {
		for _, opts := range backends() {
			g := New(opts)
			for e := rng.Intn(12); e >= 0; e-- {
				g.AddLE(names[rng.Intn(len(names))], names[rng.Intn(len(names))], int64(rng.Intn(9)-4))
			}
			var from []Atom
			for _, v := range rng.Perm(len(names))[:rng.Intn(len(names))] {
				from = append(from, Intern(names[v]))
			}
			to := slices.Clone(from)
			rng.Shuffle(len(to), func(i, j int) { to[i], to[j] = to[j], to[i] })
			ref := g.Clone()
			for i, a := range from {
				ref.RenameA(a, Intern("$tmp"+strconv.Itoa(i)))
			}
			for i := range from {
				ref.RenameA(Intern("$tmp"+strconv.Itoa(i)), to[i])
			}
			g.Relabel(from, to)
			if got, want := slotNames(g), slotNames(ref); !slices.Equal(got, want) {
				t.Fatalf("[%v] slots %v, two-phase rename gives %v", opts.Backend, got, want)
			}
			if g.String() != ref.String() || string(g.AppendCanonical(nil)) != string(ref.AppendCanonical(nil)) {
				t.Fatalf("[%v] graph %s, two-phase rename gives %s", opts.Backend, g, ref)
			}
		}
	}
}

// TestAppendAtomsMatchesVars checks that AppendAtoms lists ZeroVar and
// the variables Vars lists, in slot order, after adds, drops and renames.
func TestAppendAtomsMatchesVars(t *testing.T) {
	for _, opts := range backends() {
		g := relabelGraph(opts)
		g.DropA(Intern("rl.b"))
		g.RenameA(Intern("rl.a"), Intern("rl.z"))
		got := g.AppendAtoms([]Atom{Intern("rl.before")})[1:] // appends after existing content
		if got[0] != AtomZero || len(got) != g.NumVars() {
			t.Fatalf("[%v] AppendAtoms = %v", opts.Backend, got)
		}
		var names []string
		for i, a := range got {
			if a != g.AtomAt(int32(i)) {
				t.Errorf("[%v] atom %d is %v, slot %d holds %v", opts.Backend, i, a, i, g.AtomAt(int32(i)))
			}
			if i > 0 {
				names = append(names, a.String())
			}
		}
		sort.Strings(names)
		if !slices.Equal(names, g.Vars()) {
			t.Errorf("[%v] AppendAtoms names %v, Vars %v", opts.Backend, names, g.Vars())
		}
	}
}

// TestLookupBytes checks that LookupBytes finds exactly what LookupAtom
// finds and that a lookup allocates nothing.
func TestLookupBytes(t *testing.T) {
	a := Intern("lookup.bytes")
	buf := []byte("lookup.bytes")
	if b, ok := LookupBytes(buf); !ok || b != a {
		t.Errorf("LookupBytes = %v,%v, want %v", b, ok, a)
	}
	if _, ok := LookupBytes([]byte("lookup.never")); ok {
		t.Error("LookupBytes found a name never interned")
	}
	if n := testing.AllocsPerRun(1000, func() {
		if _, ok := LookupBytes(buf); !ok {
			t.Fatal("interned name not found")
		}
	}); n != 0 {
		t.Errorf("LookupBytes allocates %v per op, want 0", n)
	}
}
