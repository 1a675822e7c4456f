package core

import (
	"sync"
	"testing"
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
