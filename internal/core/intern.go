package core

import (
	"bytes"
	"encoding/binary"
	"sync"
)

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
	id, _ = in.add(key)
	return id
}

// internBytes is intern for a key rendered into b. It returns the id and
// the interned string, so every holder of a key shares one string: a key
// interned before is found without allocating, and only a first-seen key
// is copied into a string.
func (in *interner) internBytes(b []byte) (uint64, string) {
	in.mu.RLock()
	id, ok := in.ids[string(b)]
	var key string
	if ok {
		key = in.keys[id]
	}
	in.mu.RUnlock()
	if ok {
		return id, key
	}
	return in.add(string(b))
}

// add assigns key the next dense id unless it holds one already, and
// returns the id with the interned string.
func (in *interner) add(key string) (uint64, string) {
	in.mu.Lock()
	defer in.mu.Unlock()
	if id, ok := in.ids[key]; ok {
		return id, in.keys[id]
	}
	id := uint64(len(in.keys))
	in.ids[key] = id
	in.keys = append(in.keys, key)
	return id, key
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

// seenChunk is the size of the byte chunks a seenLog records identities
// in. An identity whose record is longer gets a chunk of its own.
const seenChunk = 4096

// seenHeader is the length of a record's header: the previous record's
// chunk and offset and the identity's length, a uint32 each.
const seenHeader = 12

// seenRef locates one record of a seenLog: its chunk's index plus one (the
// zero ref is the empty chain) and its offset in the chunk.
type seenRef struct{ chunk, off uint32 }

// seenLog holds the duplicate-delivery filter's identities (see
// tableEntry.seen), among them each table entry's current one
// (tableEntry.cur): each identity a table entry has seen is copied into
// byte chunks the engine owns, and an entry's records are chained from its
// newest back to its first. A record is its header and the identity bytes;
// the records of all entries share the chunks in recording order, and a
// full chunk is left as it is rather than grown and copied. The filter is
// exact: a lookup compares whole identities, with no hash that could
// collide.
type seenLog struct {
	chunks [][]byte
}

// add records id on the chain that starts at head and returns the chain's
// new head. It allocates only when the last chunk has no room for the
// record.
func (l *seenLog) add(head seenRef, id []byte) seenRef {
	need := seenHeader + len(id)
	n := len(l.chunks)
	if n == 0 || cap(l.chunks[n-1])-len(l.chunks[n-1]) < need {
		l.chunks = append(l.chunks, make([]byte, 0, max(seenChunk, need)))
		n++
	}
	c := l.chunks[n-1]
	ref := seenRef{uint32(n), uint32(len(c))}
	c = binary.LittleEndian.AppendUint32(c, head.chunk)
	c = binary.LittleEndian.AppendUint32(c, head.off)
	c = binary.LittleEndian.AppendUint32(c, uint32(len(id)))
	l.chunks[n-1] = append(c, id...)
	return ref
}

// find returns the record of id on the chain that starts at head, or the
// zero ref when the chain does not hold id.
func (l *seenLog) find(head seenRef, id []byte) seenRef {
	for r := head; r.chunk != 0; {
		rec := l.chunks[r.chunk-1][r.off:]
		n := int(binary.LittleEndian.Uint32(rec[8:]))
		if n == len(id) && bytes.Equal(rec[seenHeader:seenHeader+n], id) {
			return r
		}
		r = seenRef{binary.LittleEndian.Uint32(rec), binary.LittleEndian.Uint32(rec[4:])}
	}
	return seenRef{}
}

// has reports whether the chain that starts at head holds id.
func (l *seenLog) has(head seenRef, id []byte) bool { return l.find(head, id).chunk != 0 }

// at returns the identity recorded at ref. It aliases the log, whose
// records are never overwritten or moved.
func (l *seenLog) at(ref seenRef) []byte {
	rec := l.chunks[ref.chunk-1][ref.off:]
	n := seenHeader + binary.LittleEndian.Uint32(rec[8:])
	return rec[seenHeader:n:n]
}
