package core

import "sync"

// interner maps configuration shape keys to compact uint64 ids. The
// fixpoint engine hashes a state's shape key once on insert and from then
// on indexes the configuration table and the worklist by the id, a dense
// slice index instead of a string hash.
//
// Ids are assigned densely in first-intern order, so a run assigns the
// same ids, and visits configurations in the same order, on every run.
// Safe for concurrent use (the progress sampler reads size while the
// analysis interns): lookups of already-interned keys take a read lock
// only.
type interner struct {
	mu   sync.RWMutex
	ids  map[string]uint64
	keys []string
}

func newInterner() *interner {
	return &interner{ids: make(map[string]uint64, 64)}
}

// intern returns the id for key, assigning the next dense id on first use.
func (in *interner) intern(key string) uint64 {
	in.mu.RLock()
	id, ok := in.ids[key]
	in.mu.RUnlock()
	if ok {
		return id
	}
	in.mu.Lock()
	defer in.mu.Unlock()
	if id, ok := in.ids[key]; ok {
		return id
	}
	id = uint64(len(in.keys))
	in.ids[key] = id
	in.keys = append(in.keys, key)
	return id
}

// keyOf returns the key string interned under id.
func (in *interner) keyOf(id uint64) string {
	in.mu.RLock()
	defer in.mu.RUnlock()
	return in.keys[id]
}

// size reports the number of interned keys.
func (in *interner) size() int {
	in.mu.RLock()
	defer in.mu.RUnlock()
	return len(in.keys)
}
