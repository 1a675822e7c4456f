package core

import (
	"math/rand"
	"sort"
	"testing"

	"repro/internal/cfg"
	"repro/internal/cg"
	"repro/internal/parser"
	"repro/internal/procset"
	"repro/internal/sym"
)

// splitState returns the entry state of an eight-statement program split
// into n singleton-headed sets [0], [1], ..., [n-1..np-1], each placed at
// its own node in node order, so that the sets are in canonical order
// without ties.
func splitState(t *testing.T, n int) *State {
	t.Helper()
	prog, err := parser.Parse("t.mpl", "a := 1\nb := 2\nc := 3\nd := 4\ne := 5\nf := 6\ng := 7\nh := 8\n")
	if err != nil {
		t.Fatal(err)
	}
	g := cfg.Build(prog)
	st := NewState(g.Entry, cg.Options{})
	for k := int64(0); len(st.Sets) < n; k++ {
		last := st.Sets[len(st.Sets)-1]
		st.SplitSet(last, procset.Singleton(sym.Const(k)), procset.Range(sym.Const(k+1), sym.VarPlus("np", -1)))
	}
	node := g.Entry
	for _, ps := range st.Sets {
		ps.Node = node
		node = node.SuccSeq()
	}
	return st
}

// TestCloneOneAllocation gates State.Clone: a state with one to seven
// sets is cloned in one allocation holding the state, its graph header,
// its set pointers and its sets, and a set added to the clone later
// appends outside the block.
func TestCloneOneAllocation(t *testing.T) {
	for n := 1; n <= 7; n++ {
		st := splitState(t, n)
		if got := testing.AllocsPerRun(100, func() { _ = st.Clone() }); got != 1 {
			t.Errorf("Clone of a %d-set state allocates %v times, want 1", n, got)
		}
		if c := st.Clone(); cap(c.Sets) != n {
			t.Errorf("Clone of a %d-set state has room for %d set pointers", n, cap(c.Sets))
		}
	}
}

// TestReviseDuplicateZeroAlloc gates reviseEntry's duplicate-delivery
// path: once the engine's identity scratch buffer has grown, dropping a
// delivery equal to the entry, or one the entry has already seen, costs
// no allocation.
func TestReviseDuplicateZeroAlloc(t *testing.T) {
	st := splitState(t, 3)
	st.AddMatch(1, 2, procset.Singleton(sym.Zero), procset.Singleton(sym.Const(1)))
	seen := st.Clone()
	seen.G.AddLE("np", cg.ZeroVar, 100)
	if string(seen.identity()) == string(st.identity()) {
		t.Fatal("np <= 100 did not change the identity")
	}
	e := newReplayEngine(Options{})
	entry := &tableEntry{st: st}
	if e.reviseEntry(entry, seen.Clone(), "k") {
		t.Fatal("joining np <= 100 into the entry changed it")
	}
	for _, dup := range []*State{st, seen} {
		const runs = 100
		dups := make([]*State, runs+1) // AllocsPerRun makes one warm-up call
		for i := range dups {
			dups[i] = dup.Clone()
		}
		i := 0
		got := testing.AllocsPerRun(runs, func() {
			if e.reviseEntry(entry, dups[i], "k") {
				t.Fatal("a duplicate delivery changed the entry")
			}
			i++
		})
		if got != 0 {
			t.Errorf("duplicate delivery allocates %v times, want 0", got)
		}
	}
}

// TestSortInOrderZeroAlloc gates the sorts every key and combine runs:
// sortCanonical on sets already in canonical order without ties, and
// sortMatches on records with strictly increasing node pairs, allocate
// nothing.
func TestSortInOrderZeroAlloc(t *testing.T) {
	st := splitState(t, 4)
	if got := testing.AllocsPerRun(100, st.sortCanonical); got != 0 {
		t.Errorf("sortCanonical in order allocates %v times, want 0", got)
	}
	var ms []*Match
	for k := 0; k < 4; k++ {
		ms = append(ms, &Match{SendNode: k, RecvNode: 4 - k, Sender: AllProcs(), Receiver: AllProcs()})
	}
	if got := testing.AllocsPerRun(100, func() { sortMatches(ms) }); got != 0 {
		t.Errorf("sortMatches in order allocates %v times, want 0", got)
	}
}

// TestSortCanonicalMatchesStableSort checks sortCanonical against
// sort.SliceStable under the same comparison, on random set lists with
// ties in node, blocked flag and anonymized range, some longer than the
// stack buffer of keys.
func TestSortCanonicalMatchesStableSort(t *testing.T) {
	st := splitState(t, 3)
	nodes := []*cfg.Node{st.Sets[0].Node, st.Sets[1].Node, st.Sets[2].Node}
	ranges := []procset.Set{
		AllProcs(),
		procset.Singleton(sym.Zero),
		procset.Singleton(sym.Var("ps1.i")),
		procset.Singleton(sym.Var("ps2.i")), // anonymizes like ps1.i
		procset.Range(sym.Const(1), sym.VarPlus("np", -1)),
	}
	rng := rand.New(rand.NewSource(22))
	for iter := 0; iter < 2000; iter++ {
		sets := make([]*ProcSet, 1+rng.Intn(12))
		for i := range sets {
			sets[i] = &ProcSet{ID: i, Node: nodes[rng.Intn(len(nodes))],
				Range: ranges[rng.Intn(len(ranges))], Blocked: rng.Intn(2) == 0}
		}
		want := append([]*ProcSet(nil), sets...)
		sort.SliceStable(want, func(i, j int) bool {
			a, b := want[i], want[j]
			if a.Node.ID != b.Node.ID {
				return a.Node.ID < b.Node.ID
			}
			if a.Blocked != b.Blocked {
				return !a.Blocked
			}
			return anonRangeKey(a.Range) < anonRangeKey(b.Range)
		})
		st.Sets = sets
		st.sortCanonical()
		for i := range want {
			if st.Sets[i] != want[i] {
				t.Fatalf("iteration %d: sortCanonical order differs from sort.SliceStable at %d", iter, i)
			}
		}
	}
}
