package core

import (
	"bytes"
	"fmt"
	"math/rand"
	"regexp"
	"sort"
	"testing"
	"unsafe"

	"repro/internal/cfg"
	"repro/internal/cg"
	"repro/internal/parser"
	"repro/internal/procset"
	"repro/internal/sym"
	"repro/internal/tri"
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
		st.SplitSet(last, procset.Singleton(nil, sym.Const(k)), procset.Range(nil, sym.Const(k+1), sym.VarPlus("np", -1)))
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
	st.AddMatch(1, 2, procset.Singleton(nil, sym.Zero), procset.Singleton(nil, sym.Const(1)))
	seen := st.Clone()
	seen.G.AddLE("np", cg.ZeroVar, 100)
	if string(seen.appendIdentity(nil)) == string(st.appendIdentity(nil)) {
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
		procset.Singleton(nil, sym.Zero),
		procset.Singleton(nil, sym.Var("ps1.i")),
		procset.Singleton(nil, sym.Var("ps2.i")), // anonymizes like ps1.i
		procset.Range(nil, sym.Const(1), sym.VarPlus("np", -1)),
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
			return refAnonKey(a.Range) < refAnonKey(b.Range)
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

// refAnonKey is the anonymized range key by the regexp replace: the
// rendered range with every ps<digits>. prefix erased.
func refAnonKey(s procset.Set) string {
	return regexp.MustCompile(`ps\d+\.`).ReplaceAllString(s.String(), "ps.")
}

// TestSortCanonicalTieZeroAlloc gates the tie path of sortCanonical: ties
// of 2 to 8 sets at one node, with ranges over per-set variables whose
// anonymized keys need the eraser, render their keys on the stack.
func TestSortCanonicalTieZeroAlloc(t *testing.T) {
	for n := 2; n <= 8; n++ {
		st := splitState(t, n)
		for i, ps := range st.Sets {
			ps.Node = st.Sets[0].Node
			k := int64(n - i) // reverse order, so the first sort moves sets
			ps.Range = procset.Range(nil, sym.VarPlus(PV(ps.ID, "i"), k), sym.VarPlus("np", -k))
		}
		st.sortCanonical()
		if got := testing.AllocsPerRun(100, st.sortCanonical); got != 0 {
			t.Errorf("sortCanonical on a %d-set tie allocates %v times, want 0", n, got)
		}
	}
}

// TestPVZeroAlloc gates the per-set name lookup behind every variable
// reference: PV of an interned name composes it on the stack and finds it
// without allocating.
func TestPVZeroAlloc(t *testing.T) {
	if PV(3, "x") != "ps3.x" || PV(12, "count") != "ps12.count" {
		t.Fatalf("PV = %q, %q", PV(3, "x"), PV(12, "count"))
	}
	if got := testing.AllocsPerRun(1000, func() { _ = PV(12, "count") }); got != 0 {
		t.Errorf("PV of an interned name allocates %v times, want 0", got)
	}
}

// TestCanonicalizeParamsCanonicalAllocs gates CanonicalizeParams on a state
// whose helper variables already carry their canonical names: it renames
// nothing, so it allocates only the mapping it returns.
func TestCanonicalizeParamsCanonicalAllocs(t *testing.T) {
	st := splitState(t, 3)
	st.G.AddLE("k0", "np", -1)
	st.G.AddLE("f0", "k0", 0)
	st.Sets[2].Range = procset.Range(nil, sym.Var("k0"), sym.VarPlus("f0", 2))
	if m := st.CanonicalizeParams(); len(m) != 2 || m["k0"] != "k0" || m["f0"] != "f0" {
		t.Fatalf("mapping %v, want k0 and f0 kept", m)
	}
	var m map[string]string
	want := testing.AllocsPerRun(100, func() {
		m = make(map[string]string, 2)
		m["k0"], m["f0"] = "k0", "f0"
	})
	if got := testing.AllocsPerRun(100, func() { m = st.CanonicalizeParams() }); got != want {
		t.Errorf("CanonicalizeParams on a canonical state allocates %v times, the mapping alone %v", got, want)
	}
}

// TestFirstEntryIdentityZeroAlloc gates the identity of a new table entry
// at its first revision: entryIdentity encodes it into the engine's warm
// buffer and records it in the seen log, and neither allocates while the
// log's chunk has room. The record then serves the next request.
func TestFirstEntryIdentityZeroAlloc(t *testing.T) {
	for n := 1; n <= 8; n++ {
		st := splitState(t, n)
		st.AddMatch(1, 2, procset.Singleton(nil, sym.Zero), procset.Singleton(nil, sym.Const(1)))
		e := newReplayEngine(Options{})
		e.entryIdentity(&tableEntry{st: st}) // warm the buffer and the first chunk
		const runs = 20
		entries := make([]tableEntry, runs+1) // AllocsPerRun makes one warm-up call
		i := 0
		got := testing.AllocsPerRun(runs, func() {
			entries[i].st = st
			e.entryIdentity(&entries[i])
			i++
		})
		if got != 0 {
			t.Errorf("first identity of a %d-set entry allocates %v times, want 0", n, got)
		}
		if len(e.seen.chunks) != 1 {
			t.Fatalf("%d sets: %d chunks, want 1", n, len(e.seen.chunks))
		}
		entry := &entries[0]
		if !bytes.Equal(e.seen.at(entry.cur), st.appendIdentity(nil)) || entry.seen != entry.cur {
			t.Errorf("%d sets: the entry's record does not hold its identity", n)
		}
		if got := testing.AllocsPerRun(100, func() { e.entryIdentity(entry) }); got != 0 || entry.seen != entry.cur {
			t.Errorf("%d sets: a known identity allocates %v times or is recorded again", n, got)
		}
	}
}

// TestAffineDecisionsZeroAlloc gates the step path's readings of partner
// and condition expressions through their affine forms: the rank-bounds
// verdict on id + 1, id - 1, 0 and np - 1 targets over the var+c ranges
// their own atoms prove, and EvalCond and AssumeCond on x < np - 1.
func TestAffineDecisionsZeroAlloc(t *testing.T) {
	prog, err := parser.Parse("t.mpl", "send v -> id + 1\nsend v -> id - 1\nsend v -> 0\nsend v -> np - 1\nif x < np - 1 then\n  x := 0\nend\n")
	if err != nil {
		t.Fatal(err)
	}
	g := cfg.Build(prog)
	st := NewState(g.Entry, cg.Options{})
	var sends []*cfg.Node
	var cond *cfg.Node
	for _, n := range g.Nodes {
		switch n.Kind {
		case cfg.Send:
			sends = append(sends, n)
		case cfg.Branch:
			cond = n
		}
	}
	last := sym.VarPlus("np", -1)
	for i, r := range []procset.Set{
		procset.Range(nil, sym.Zero, sym.VarPlus("np", -2)),
		procset.Range(nil, sym.Const(1), last),
		procset.Range(nil, sym.Zero, last),
		procset.Range(nil, sym.Zero, last),
	} {
		ps := &ProcSet{ID: 0, Node: sends[i], Range: r}
		if v := st.boundsVerdict(ps, ps.Node.Dest); v.kind != boundsProven {
			t.Fatalf("send -> %s over %s: verdict kind %d, want proven", ps.Node.Dest, r, v.kind)
		}
		if n := testing.AllocsPerRun(100, func() { _ = st.boundsVerdict(ps, ps.Node.Dest) }); n != 0 {
			t.Errorf("rank-bounds verdict on %s over %s allocates %v per op, want 0", ps.Node.Dest, r, n)
		}
	}
	ps := st.Sets[0]
	if n := testing.AllocsPerRun(100, func() { _ = st.EvalCond(ps, cond.Cond) }); n != 0 {
		t.Errorf("EvalCond(%s) allocates %v per op, want 0", cond.Cond, n)
	}
	if n := testing.AllocsPerRun(100, func() { st.AssumeCond(ps, cond.Cond, false) }); n != 0 {
		t.Errorf("AssumeCond(%s) allocates %v per op, want 0", cond.Cond, n)
	}
	if got := st.EvalCond(ps, cond.Cond); got != tri.True {
		t.Errorf("EvalCond(%s) after assuming it = %v, want true", cond.Cond, got)
	}
}

// TestPrepareCommitInternedZeroAlloc gates the step→commit path of a
// successor whose configuration is already in the table: prepare renders
// its shape key on the stack and finds it interned, the prepared list is
// the engine's scratch, and commit drops the duplicate. Nothing allocates,
// and the pCFG edge shares the interned key string.
func TestPrepareCommitInternedZeroAlloc(t *testing.T) {
	st := splitState(t, 3)
	st.AddMatch(1, 2, procset.Singleton(nil, sym.Zero), procset.Singleton(nil, sym.Const(1)))
	e := newReplayEngine(Options{})
	e.work = &worklist{}
	e.res.Edges = make([]PCFGEdge, 0, 1024)
	first, _ := e.prepare("from", []succ{{st.Clone(), "a"}})
	e.commit(first)
	key := e.in.keyOf(0)
	const runs = 100
	lists := make([][]succ, runs+1) // AllocsPerRun makes one warm-up call
	for i := range lists {
		lists[i] = []succ{{st.Clone(), "a"}}
	}
	i := 0
	got := testing.AllocsPerRun(runs, func() {
		preps, tops := e.prepare("from", lists[i])
		if len(preps) != 1 || len(tops) != 0 || preps[0].id != 0 {
			t.Fatalf("prepared %d successors, %d give-ups", len(preps), len(tops))
		}
		e.commit(preps)
		i++
	})
	if got != 0 {
		t.Errorf("preparing and committing an interned successor allocates %v times, want 0", got)
	}
	if to := e.res.Edges[len(e.res.Edges)-1].To; to != key || unsafe.StringData(to) != unsafe.StringData(key) {
		t.Errorf("the edge holds shape key %q, not the interned string %q", to, key)
	}
	if e.in.size() != 1 || e.entry(0).rev != 0 {
		t.Errorf("%d configurations, entry revision %d: the duplicates changed the table", e.in.size(), e.entry(0).rev)
	}
}

// TestSeenBookkeepingZeroAlloc gates the duplicate filter's bookkeeping:
// once the seen log's chunk has room, recording the entry's identity,
// admitting a revision that is not a duplicate and recording the identity
// its combine commits allocate nothing, and the filter then refuses every
// identity it recorded.
func TestSeenBookkeepingZeroAlloc(t *testing.T) {
	e := newReplayEngine(Options{})
	entry := &tableEntry{}
	ids := make([][]byte, 40)
	for i := range ids {
		ids[i] = []byte(fmt.Sprintf("identity %02d of a state, padded to a typical length", i))
	}
	entry.seen = e.seen.add(entry.seen, ids[0]) // the first chunk
	i := 1
	got := testing.AllocsPerRun(10, func() {
		before, fk, after := ids[i], ids[i+1], ids[i+2]
		entry.seen = e.seen.add(entry.seen, before) // as entryIdentity records it
		if !e.admit(entry, fk) {
			t.Fatalf("revision %d refused", i)
		}
		entry.seen = e.seen.add(entry.seen, after)
		i += 3
	})
	if got != 0 {
		t.Errorf("seen bookkeeping of a revision allocates %v times, want 0", got)
	}
	if len(e.seen.chunks) != 1 {
		t.Fatalf("%d chunks, want 1", len(e.seen.chunks))
	}
	for k := 0; k < i; k++ { // ids[0..i-1] are recorded
		if e.admit(entry, ids[k]) {
			t.Errorf("identity %d admitted twice", k)
		}
	}
	if !e.admit(entry, ids[len(ids)-1]) {
		t.Error("an unseen identity was refused")
	}
}

// TestCombineOneRecordBlock gates the combine's match records: merging two
// states with k records on distinct node pairs allocates the records as
// one block, so the combine's allocations do not grow with k. The results
// are not released: the graph arena is a sync.Pool, which the race
// detector empties at random, so every joined graph is allocated, once the
// calls before the measurement have drained what earlier tests pooled.
func TestCombineOneRecordBlock(t *testing.T) {
	e := newReplayEngine(Options{})
	allocs := func(k int) float64 {
		old := splitState(t, 3)
		old.memo = procset.NewMemo()
		for r := 0; r < k; r++ {
			old.AddMatch(r, r+10, procset.Singleton(nil, sym.Const(int64(r))), procset.Singleton(nil, sym.Const(int64(r+1))))
		}
		entry := &tableEntry{st: old}
		nw := old.Clone()
		combine := func() {
			if out := e.combine(entry, nw, "k"); out.Top || len(out.Matches) != k {
				t.Fatalf("combine of %d records: %d records, top %v", k, len(out.Matches), out.Top)
			}
		}
		for i := 0; i < 100; i++ {
			combine()
		}
		return testing.AllocsPerRun(50, combine)
	}
	one := allocs(1)
	for k := 2; k <= 6; k++ {
		if got := allocs(k); got != one {
			t.Errorf("combine with %d match records allocates %v times, with one %v", k, got, one)
		}
	}
}

// TestBranchLabelsOncePerNode gates the branch action labels: a branch
// node's four labels are its description followed by =true, =false, =true?
// and =false?, rendered in one allocation on first use and free after.
func TestBranchLabelsOncePerNode(t *testing.T) {
	prog, err := parser.Parse("t.mpl", "if x < np - 1 then\n  x := 0\nend\n")
	if err != nil {
		t.Fatal(err)
	}
	g := cfg.Build(prog)
	var br *cfg.Node
	for _, n := range g.Nodes {
		if n.Kind == cfg.Branch {
			br = n
		}
	}
	e := newReplayEngine(Options{})
	e.descs = make([]string, len(g.Nodes))
	e.branches = make([]string, len(g.Nodes))
	desc := e.nodeDesc(br)
	for outcome, suffix := range []string{"=true", "=false", "=true?", "=false?"} {
		if got := e.branchLabel(br, outcome); got != desc+suffix {
			t.Errorf("label %d = %q, want %q", outcome, got, desc+suffix)
		}
	}
	labels := func() {
		for outcome := branchTrue; outcome <= branchMaybeFalse; outcome++ {
			_ = e.branchLabel(br, outcome)
		}
	}
	if got := testing.AllocsPerRun(100, labels); got != 0 {
		t.Errorf("rendered branch labels allocate %v times, want 0", got)
	}
	if got := testing.AllocsPerRun(100, func() { e.branches[br.ID] = ""; labels() }); got != 1 {
		t.Errorf("rendering a node's branch labels allocates %v times, want 1", got)
	}
}
