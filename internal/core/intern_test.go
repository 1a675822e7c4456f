package core

import (
	"math/rand"
	"sync"
	"testing"
	"unsafe"

	"repro/internal/cg"
)

func TestInternerDenseIDs(t *testing.T) {
	in := newInterner()
	a := in.intern("alpha")
	b := in.intern("beta")
	if a != 0 || b != 1 {
		t.Fatalf("ids = %d, %d; want dense 0, 1", a, b)
	}
	if got := in.intern("alpha"); got != a {
		t.Fatalf("re-intern = %d, want %d", got, a)
	}
	if in.keyOf(b) != "beta" || in.size() != 2 {
		t.Fatalf("keyOf/size wrong: %q, %d", in.keyOf(b), in.size())
	}
}

func TestInternerConcurrent(t *testing.T) {
	in := newInterner()
	keys := []string{"a", "b", "c", "d", "e", "f", "g", "h"}
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				k := keys[i%len(keys)]
				if in.keyOf(in.intern(k)) != k {
					t.Error("intern/keyOf mismatch")
					return
				}
			}
		}()
	}
	wg.Wait()
	if in.size() != len(keys) {
		t.Fatalf("size = %d, want %d", in.size(), len(keys))
	}
}

// TestInternBytesSharesKeys checks internBytes against intern: the same
// ids, the interned string itself on a repeat, and no allocation for a key
// interned before.
func TestInternBytesSharesKeys(t *testing.T) {
	in := newInterner()
	a := in.intern("n1|n3*")
	id, key := in.internBytes([]byte("n1|n3*"))
	if id != a || key != "n1|n3*" || unsafe.StringData(key) != unsafe.StringData(in.keyOf(a)) {
		t.Fatalf("internBytes of an interned key = %d, %q", id, key)
	}
	b, key := in.internBytes([]byte("n2"))
	if b != 1 || key != "n2" || in.intern("n2") != b || unsafe.StringData(in.keyOf(b)) != unsafe.StringData(key) {
		t.Fatalf("first internBytes = %d, %q", b, key)
	}
	buf := []byte("n1|n3*")
	if got := testing.AllocsPerRun(100, func() { in.internBytes(buf) }); got != 0 {
		t.Errorf("internBytes of an interned key allocates %v times, want 0", got)
	}
}

// TestSeenLogMatchesMap checks the seen log against a map of identity sets
// on random chains that share the chunks: short and long identities, some
// longer than a chunk, some recorded twice, prefixes of each other and
// lookups on every chain.
func TestSeenLogMatchesMap(t *testing.T) {
	rng := rand.New(rand.NewSource(25))
	var l seenLog
	heads := make([]seenRef, 12)
	ref := make([]map[string]bool, len(heads))
	for i := range ref {
		ref[i] = map[string]bool{}
	}
	var pool [][]byte
	ident := func() []byte {
		if len(pool) > 0 && rng.Intn(3) == 0 {
			p := pool[rng.Intn(len(pool))]
			return p[:rng.Intn(len(p)+1)] // a prefix, or a repeat
		}
		n := rng.Intn(200)
		if rng.Intn(40) == 0 {
			n = seenChunk + rng.Intn(seenChunk)
		}
		b := make([]byte, n)
		rng.Read(b)
		pool = append(pool, b)
		return b
	}
	for iter := 0; iter < 20000; iter++ {
		c := rng.Intn(len(heads))
		id := ident()
		if got := l.has(heads[c], id); got != ref[c][string(id)] {
			t.Fatalf("iteration %d: chain %d has(%d bytes) = %v, reference %v", iter, c, len(id), got, !got)
		}
		if rng.Intn(2) == 0 {
			heads[c] = l.add(heads[c], id)
			ref[c][string(id)] = true
		}
	}
	for c := range heads {
		for k := range ref[c] {
			if !l.has(heads[c], []byte(k)) {
				t.Fatalf("chain %d lost an identity of %d bytes", c, len(k))
			}
		}
	}
}

// TestSeenFilterRemembersCommittedStates checks that the filter records
// the state a revision commits: once the entry has changed in place (as a
// later combine's enrichment changes it), a delivery equal to the
// committed state is still a duplicate and is dropped without a combine.
func TestSeenFilterRemembersCommittedStates(t *testing.T) {
	st := splitState(t, 3)
	upper, lower := st.Clone(), st.Clone()
	upper.G.AddLE("np", cg.ZeroVar, 100)
	lower.G.AddLE(cg.ZeroVar, "np", -5)
	delivered := map[string]bool{string(upper.appendIdentity(nil)): true, string(lower.appendIdentity(nil)): true}
	e := newReplayEngine(Options{})
	entry := &tableEntry{st: upper}
	if !e.reviseEntry(entry, lower, "k") {
		t.Fatal("joining np >= 5 into np <= 100 did not change the entry")
	}
	committed := entry.st.Clone()
	if delivered[string(committed.appendIdentity(nil))] {
		t.Fatal("the join equals a delivered state, so the test would not reach the recorded result")
	}
	// The entry changes in place, as a later combine's enrichment changes
	// it, and the combine clears the entry's identity record.
	entry.st.G.AddLE("np", cg.ZeroVar, 1000)
	entry.cur = seenRef{}
	if e.reviseEntry(entry, committed, "k") {
		t.Error("a delivery equal to a state the entry committed was combined again")
	}
}
