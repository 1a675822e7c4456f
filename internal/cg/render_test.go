package cg

import (
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"sync"
	"testing"
)

// refString is the fmt-based Graph.String the concatenating renderer
// replaced, kept as the reference it must match byte for byte.
func refString(g *Graph) string {
	if !g.consistent {
		return "inconsistent"
	}
	names := atomNames()
	atoms := g.s.atoms
	var parts []string
	n := len(atoms)
	done := map[[2]int]bool{}
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			if i == j || done[[2]int{i, j}] {
				continue
			}
			up := g.s.get(i, j)
			if up >= Inf {
				continue
			}
			down := g.s.get(j, i)
			if down < Inf && down == -up {
				done[[2]int{j, i}] = true
				parts = append(parts, refRenderEq(names[atoms[i]], names[atoms[j]], up))
			} else {
				parts = append(parts, refRenderLE(names[atoms[i]], names[atoms[j]], up))
			}
		}
	}
	sort.Strings(parts)
	if len(parts) == 0 {
		return "true"
	}
	return strings.Join(parts, "; ")
}

func refRenderEq(x, y string, c int64) string {
	if y == ZeroVar {
		return fmt.Sprintf("%s = %d", x, c)
	}
	if x == ZeroVar {
		return refRenderEq(y, ZeroVar, -c)
	}
	switch {
	case c == 0:
		return fmt.Sprintf("%s = %s", x, y)
	case c > 0:
		return fmt.Sprintf("%s = %s + %d", x, y, c)
	default:
		return fmt.Sprintf("%s = %s - %d", x, y, -c)
	}
}

func refRenderLE(x, y string, c int64) string {
	if y == ZeroVar {
		return fmt.Sprintf("%s <= %d", x, c)
	}
	if x == ZeroVar {
		return fmt.Sprintf("%s >= %d", y, -c)
	}
	switch {
	case c == 0:
		return fmt.Sprintf("%s <= %s", x, y)
	case c > 0:
		return fmt.Sprintf("%s <= %s + %d", x, y, c)
	default:
		return fmt.Sprintf("%s <= %s - %d", x, y, -c)
	}
}

// TestRenderMatchesReference pins the concatenating renderers to the fmt
// reference: single constraints over every offset sign with ZeroVar on
// either side, then random graphs whose equalities are added in both slot
// orders, some of which end up inconsistent.
func TestRenderMatchesReference(t *testing.T) {
	for _, c := range []int64{-7, -1, 0, 1, 7} {
		for _, xy := range [][2]string{{"a", "b"}, {"a", ZeroVar}, {ZeroVar, "b"}} {
			x, y := xy[0], xy[1]
			if got, want := renderEq(x, y, c), refRenderEq(x, y, c); got != want {
				t.Errorf("renderEq(%q, %q, %d) = %q, want %q", x, y, c, got, want)
			}
			if got, want := renderLE(x, y, c), refRenderLE(x, y, c); got != want {
				t.Errorf("renderLE(%q, %q, %d) = %q, want %q", x, y, c, got, want)
			}
		}
	}

	rng := rand.New(rand.NewSource(3))
	names := []string{"i", "j", "np", "k0", "ps2.x", ZeroVar}
	var eqs, inconsistent int
	for iter := 0; iter < 3000; iter++ {
		g := NewDefault()
		for n := rng.Intn(8); n > 0; n-- {
			x, y := names[rng.Intn(len(names))], names[rng.Intn(len(names))]
			if x == y {
				continue
			}
			c := int64(rng.Intn(11) - 5)
			switch rng.Intn(3) {
			case 0:
				g.AddLE(x, y, c)
			case 1:
				g.AddEq(x, y, c)
			default:
				g.AddEq(y, x, -c)
			}
		}
		got, want := g.String(), refString(g)
		if got != want {
			t.Fatalf("String = %q, want %q", got, want)
		}
		if !g.Consistent() {
			inconsistent++
		} else if strings.Contains(got, " = ") {
			eqs++
		}
	}
	if eqs == 0 || inconsistent == 0 {
		t.Fatalf("coverage: %d graphs with equalities, %d inconsistent; want both > 0", eqs, inconsistent)
	}
}

// TestEqualWitnessesCached pins the witness order (by name, the constant
// witness first) in both forms, and gates the cached lookup: once the
// generation's table is built, a lookup by atom or by name allocates
// nothing.
func TestEqualWitnessesCached(t *testing.T) {
	g := NewDefault()
	g.AddEq("x", "np", -1)
	g.AddEq("x", "b", 2)
	g.SetConst("a", 4)
	g.AddEq("x", "a", 0)
	if got := fmt.Sprint(g.EqualWitnesses("x")); got != "[{$0 4} {a 0} {b 2} {np -1}]" {
		t.Fatalf("EqualWitnesses(x) = %v", got)
	}
	x := Intern("x")
	if got := fmt.Sprint(g.EqualWitnessesA(x)); got != fmt.Sprint(g.EqualWitnesses("x")) {
		t.Fatalf("EqualWitnessesA(x) = %v, want %v", got, g.EqualWitnesses("x"))
	}
	if n := testing.AllocsPerRun(1000, func() { _ = g.EqualWitnessesA(x) }); n != 0 {
		t.Errorf("a warmed EqualWitnessesA allocates %v per op, want 0", n)
	}
	if n := testing.AllocsPerRun(1000, func() { _ = g.EqualWitnesses("x") }); n != 0 {
		t.Errorf("a warmed EqualWitnesses allocates %v per op, want 0", n)
	}
}

// TestAppendCanonicalMatchesString checks that the binary identity relates
// graphs exactly as their renderings do: over random graphs whose variables
// enter in random slot orders (so equalities render in either orientation,
// with ZeroVar on either side, some graphs inconsistent), two graphs append
// equal bytes if and only if String renders them equal.
func TestAppendCanonicalMatchesString(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	names := []string{"i", "j", "np", "k0", ZeroVar}
	byString := map[string]string{}
	byCanon := map[string]string{}
	var shared int
	for iter := 0; iter < 20000; iter++ {
		g := NewDefault()
		for _, k := range rng.Perm(len(names) - 1) {
			if rng.Intn(3) > 0 {
				g.AddVar(names[k])
			}
		}
		for n := rng.Intn(4); n > 0; n-- {
			x, y := names[rng.Intn(len(names))], names[rng.Intn(len(names))]
			if x == y {
				continue
			}
			c := int64(rng.Intn(5) - 2)
			switch rng.Intn(3) {
			case 0:
				g.AddLE(x, y, c)
			case 1:
				g.AddEq(x, y, c)
			default:
				g.AddEq(y, x, -c)
			}
		}
		str, canon := g.String(), string(g.AppendCanonical(nil))
		if prev, ok := byString[str]; ok {
			shared++
			if prev != canon {
				t.Fatalf("graphs rendering %q have different identities", str)
			}
		}
		if prev, ok := byCanon[canon]; ok && prev != str {
			t.Fatalf("graphs rendering %q and %q share one identity", prev, str)
		}
		byString[str], byCanon[canon] = canon, str
	}
	if shared == 0 {
		t.Fatal("coverage: no two graphs rendered alike")
	}
	g := NewDefault()
	g.AddEq("i", "np", -1)
	g.AddLE("j", "i", 2)
	buf := make([]byte, 0, 256)
	if n := testing.AllocsPerRun(1000, func() { _ = g.AppendCanonical(buf[:0]) }); n != 0 {
		t.Errorf("AppendCanonical into a sized buffer allocates %v per op, want 0", n)
	}
}

// TestAtomTableConcurrent interns overlapping fresh names from several
// goroutines while others read them back (run it under -race): every name
// gets exactly one dense atom, and lookups by string and by byte slice and
// String agree with Intern. Each worker also probes, by byte slice, a name
// another worker may be interning at that moment: a hit must be the atom
// Intern returns for it.
func TestAtomTableConcurrent(t *testing.T) {
	const workers, perWorker = 8, 300
	base := len(atomNames())
	// Names unique to this run, so -count=N interns fresh ones each time.
	name := func(i int) string { return fmt.Sprintf("concurrent%d.v%d", base, i) }
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				k := (i*7 + w*13) % perWorker
				ahead := []byte(name((k + 1 + w) % perWorker))
				early, found := LookupBytes(ahead)
				a := Intern(name(k))
				if b, ok := LookupAtom(name(k)); !ok || b != a || a.String() != name(k) {
					t.Errorf("Intern(%q) = %d, but LookupAtom = %d,%v and String = %q", name(k), a, b, ok, a.String())
					return
				}
				if b, ok := LookupBytes([]byte(name(k))); !ok || b != a {
					t.Errorf("Intern(%q) = %d, but LookupBytes = %d,%v", name(k), a, b, ok)
					return
				}
				if found && Intern(string(ahead)) != early {
					t.Errorf("LookupBytes(%q) = %d before Intern returned %d", ahead, early, Intern(string(ahead)))
					return
				}
			}
		}(w)
	}
	wg.Wait()
	ids := map[Atom]string{}
	for i := 0; i < perWorker; i++ {
		a, ok := LookupAtom(name(i))
		if !ok || int(a) < base || int(a) >= base+perWorker {
			t.Fatalf("atom of %q = %d,%v; want one of the %d fresh dense ids from %d", name(i), a, ok, perWorker, base)
		}
		if prev, dup := ids[a]; dup {
			t.Fatalf("%q and %q share atom %d", prev, name(i), a)
		}
		ids[a] = name(i)
	}
	if n := len(atomNames()); n != base+perWorker {
		t.Fatalf("table grew by %d, want %d", n-base, perWorker)
	}
}

// TestLookupAtomZeroAlloc gates the atom-table read behind every
// string-keyed graph query: a hit is one map probe and allocates nothing.
func TestLookupAtomZeroAlloc(t *testing.T) {
	Intern("lookup.hit")
	if n := testing.AllocsPerRun(1000, func() {
		if _, ok := LookupAtom("lookup.hit"); !ok {
			t.Fatal("interned name not found")
		}
	}); n != 0 {
		t.Errorf("LookupAtom hit allocates %v per op, want 0", n)
	}
}
