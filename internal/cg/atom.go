package cg

import (
	"sync"
	"sync/atomic"
)

// Atom is a process-wide interned variable name. Graphs store atoms, not
// strings, so the hot closure/entailment paths never hash or compare string
// contents; the one string hash per name happens at the interner, once per
// process. Atoms are dense (0, 1, 2, ...) in first-intern order, and
// AtomZero — the distinguished ZeroVar — is always atom 0.
type Atom uint32

// atomTab is the process-wide symbol table. It only grows; names are never
// removed. Reads take no lock and execute no atomic read-modify-write: ids
// and names are immutable snapshots published through atomic pointers, and
// a lookup is one plain string-keyed map probe. Writers serialize on mu,
// append the name (amortized growth: only a full backing array is copied),
// publish the new names header, and only then publish a copy of ids with
// the new entry — so any goroutine that obtained an atom can index it in
// the names snapshot it loads afterwards. Appending past a published
// header's length never touches an element a reader of that header can
// see. Copying ids on every write is cheap because the table stays small:
// a few hundred names after thousands of analyzed programs.
var atomTab struct {
	mu    sync.Mutex
	ids   atomic.Pointer[map[string]Atom]
	names atomic.Pointer[[]string]
}

// AtomZero is the interned ZeroVar ($0), fixed at atom 0 by init order.
var AtomZero = Intern(ZeroVar)

// Intern returns the atom for name, assigning the next dense id on first
// sight. Safe for concurrent use.
func Intern(name string) Atom {
	if a, ok := LookupAtom(name); ok {
		return a
	}
	atomTab.mu.Lock()
	defer atomTab.mu.Unlock()
	if a, ok := LookupAtom(name); ok {
		return a
	}
	names := atomNames()
	a := Atom(len(names))
	names = append(names, name)
	atomTab.names.Store(&names)
	ids := make(map[string]Atom, len(names))
	if p := atomTab.ids.Load(); p != nil {
		for n, id := range *p {
			ids[n] = id
		}
	}
	ids[name] = a
	atomTab.ids.Store(&ids)
	return a
}

// LookupAtom returns the atom for name without interning it, so read-only
// queries against arbitrary strings do not grow the symbol table.
func LookupAtom(name string) (Atom, bool) {
	p := atomTab.ids.Load()
	if p == nil {
		return 0, false
	}
	a, ok := (*p)[name]
	return a, ok
}

// LookupBytes is LookupAtom for a name composed in a byte buffer. The map
// index converts b without copying it, so a lookup allocates nothing.
func LookupBytes(b []byte) (Atom, bool) {
	p := atomTab.ids.Load()
	if p == nil {
		return 0, false
	}
	a, ok := (*p)[string(b)]
	return a, ok
}

// String returns the interned name.
func (a Atom) String() string { return atomNames()[a] }

// atomNames returns a read snapshot of the name table. Every atom interned
// before the call indexes validly into the returned slice.
func atomNames() []string {
	if p := atomTab.names.Load(); p != nil {
		return *p
	}
	return nil
}
