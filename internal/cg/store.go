package cg

import (
	"slices"
	"sync"
	"sync/atomic"
)

// store is one reference-counted storage generation shared by all graphs
// cloned from each other since the last materialization: the slot table
// (slot -> atom) plus the closed difference matrix. The array backend keeps
// a single flat stride×stride []int64 (row-major, Inf = no constraint) so a
// materialization is one copy and closure loops walk contiguous memory; the
// map backend keeps the paper's "STL container" analogue for the storage
// ablation. Shared stores are never written — every mutation goes through
// Graph.materialize first — so any number of clones may read concurrently;
// the one exception, the witness cache, is filled race-free (witnesses).
type store struct {
	refs atomic.Int32
	// gen numbers the store's current content: renew gives it a fresh one
	// whenever the content may change, so two reads that see the same gen
	// see the same slot table and matrix. Written only while the store is
	// private, like the witness cache.
	gen   uint64
	atoms []Atom // slot -> atom, swap-with-last on Drop
	// Array backend: mat[i*stride+j] bounds slot_i - slot_j; only the
	// len(atoms)×len(atoms) top-left region is meaningful (addSlot
	// re-initializes the new row/column, so pooled matrices need no wipe).
	stride int
	mat    []int64
	// Map backend: missing key = Inf off-diagonal, 0 on the diagonal.
	sparse map[int64]int64
	// Incremental-closure frontier scratch, private to the writing graph.
	srcs, tgts []int32
	// wit caches this generation's equality witnesses (see witnesses); nil
	// until the first lookup after a content change. spare holds a reset
	// table whose buffers the next build reuses.
	wit, spare atomic.Pointer[witnessTable]
}

func pairKey(i, j int) int64 { return int64(i)<<32 | int64(j) }

// minStride is the smallest flat matrix edge; strides grow by doubling, so
// the sync.Pool arenas are keyed by power-of-two size class.
const minStride = 8

// numClasses bounds the pooled size classes (minStride << (numClasses-1) =
// 16M variables; anything larger falls through to plain allocation).
const numClasses = 22

var flatPool [numClasses]sync.Pool

// lastGen is the last generation handed out; generations start at 1, so 0
// never names content.
var lastGen atomic.Uint64

// strideFor returns the power-of-two stride covering n slots.
func strideFor(n int) int {
	s := minStride
	for s < n {
		s <<= 1
	}
	return s
}

// classFor returns the pool class of a power-of-two stride.
func classFor(stride int) int {
	c := 0
	for s := minStride; s < stride; s <<= 1 {
		c++
	}
	return c
}

// acquireFlat returns a private (refs=1) array-backend store with capacity
// for at least n slots, reusing a pooled arena of the right size class when
// one is available.
func acquireFlat(n int, st *Stats) *store {
	stride := strideFor(n)
	c := classFor(stride)
	if c < numClasses {
		if v := flatPool[c].Get(); v != nil {
			s := v.(*store)
			s.refs.Store(1)
			s.atoms = s.atoms[:0]
			s.renew()
			if st != nil {
				st.arenaHits.Add(1)
			}
			return s
		}
	}
	if st != nil {
		st.arenaMisses.Add(1)
	}
	s := &store{stride: stride, mat: make([]int64, stride*stride), gen: lastGen.Add(1)}
	s.refs.Store(1)
	return s
}

// newSparse returns a private map-backend store. Map stores are not pooled:
// the map backend exists as the ablation's slow comparison point.
func newSparse() *store {
	s := &store{sparse: map[int64]int64{}, gen: lastGen.Add(1)}
	s.refs.Store(1)
	return s
}

// release drops one reference; the last reference returns the arena to its
// size-class pool. Callers must not touch the store afterwards.
func (s *store) release() {
	if s == nil || s.refs.Add(-1) != 0 {
		return
	}
	s.recycle()
}

// recycle puts an unreferenced flat store back in its pool (map stores just
// fall to the garbage collector).
func (s *store) recycle() {
	if s.mat == nil {
		return
	}
	if c := classFor(s.stride); c < numClasses {
		flatPool[c].Put(s)
	}
}

// slot returns the slot index of atom a, or -1. A linear scan over the
// compact atom slice beats a per-store map here: slot counts are small
// (tens of variables), the scan touches one cache line per 16 atoms, and —
// unlike a map — the slice costs one bulk copy, zero rehashing and zero
// per-entry allocations on every materialization.
func (s *store) slot(a Atom) int {
	for i, x := range s.atoms {
		if x == a {
			return i
		}
	}
	return -1
}

// get returns the bound on slot_i - slot_j.
func (s *store) get(i, j int) int64 {
	if s.mat != nil {
		return s.mat[i*s.stride+j]
	}
	if v, ok := s.sparse[pairKey(i, j)]; ok {
		return v
	}
	if i == j {
		return 0
	}
	return Inf
}

// set writes the bound on slot_i - slot_j.
func (s *store) set(i, j int, v int64) {
	if s.mat != nil {
		s.mat[i*s.stride+j] = v
		return
	}
	if v >= Inf && i != j {
		delete(s.sparse, pairKey(i, j))
		return
	}
	s.sparse[pairKey(i, j)] = v
}

// addSlot appends a slot for atom a (unconstrained: Inf row/column, 0
// diagonal) and returns its index. The caller must hold the store
// privately.
func (s *store) addSlot(a Atom, st *Stats) int {
	n := len(s.atoms)
	if s.mat != nil {
		if n == s.stride {
			s.grow(st)
		}
		row := s.mat[n*s.stride : n*s.stride+n+1]
		for k := range row {
			row[k] = Inf
		}
		for i := 0; i < n; i++ {
			s.mat[i*s.stride+n] = Inf
		}
		row[n] = 0
	}
	s.atoms = append(s.atoms, a)
	return n
}

// grow doubles the matrix stride in place, recycling the outgrown arena.
func (s *store) grow(st *Stats) {
	oldMat, oldStride := s.mat, s.stride
	s.stride = oldStride * 2
	s.mat = acquireMat(s.stride, st)
	n := len(s.atoms)
	for i := 0; i < n; i++ {
		copy(s.mat[i*s.stride:i*s.stride+n], oldMat[i*oldStride:i*oldStride+n])
	}
	husk := &store{stride: oldStride, mat: oldMat}
	husk.recycle()
}

// acquireMat returns a bare stride×stride matrix, stealing one from the
// pool when possible.
func acquireMat(stride int, st *Stats) []int64 {
	if c := classFor(stride); c < numClasses {
		if v := flatPool[c].Get(); v != nil {
			if st != nil {
				st.arenaHits.Add(1)
			}
			return v.(*store).mat
		}
	}
	if st != nil {
		st.arenaMisses.Add(1)
	}
	return make([]int64, stride*stride)
}

// witnessTable holds every slot's equality witnesses for one storage
// generation: slot i's are ws[off[i]:off[i+1]], sorted by variable name.
type witnessTable struct {
	off []int32
	ws  []Witness
}

// witnesses returns the generation's witness table, building it on first
// use. Clones sharing the store may call this concurrently: each builder
// fills a table of its own and publishes it with one compare-and-swap, so
// readers only ever see a complete table, and a builder that loses the race
// leaves its table as the spare.
func (s *store) witnesses() *witnessTable {
	if t := s.wit.Load(); t != nil {
		return t
	}
	t := s.spare.Swap(nil)
	if t == nil {
		t = new(witnessTable)
	}
	t.build(s)
	if s.wit.CompareAndSwap(nil, t) {
		return t
	}
	s.spare.Store(t)
	return s.wit.Load()
}

// renew starts a new generation before the store's content changes: a
// fresh generation number, and no cached witness table (its buffers are
// kept as the spare). The caller holds the store privately.
func (s *store) renew() {
	s.gen = lastGen.Add(1)
	if t := s.wit.Swap(nil); t != nil {
		s.spare.Store(t)
	}
}

// build fills t from s: for each slot i, every other slot j with
// x_i - x_j = c exactly (the closed matrix bounds both directions tightly),
// in name order. The slots are ordered by name once, so each row comes out
// sorted. The witnesses are counted first (the relation is symmetric), so
// off and ws are each sized once.
func (t *witnessTable) build(s *store) {
	names := atomNames()
	n := len(s.atoms)
	// Slots in name order, by insertion sort into a stack buffer: slot
	// counts are tens, and only a larger graph spills to the heap.
	var buf [64]int32
	order := buf[:0]
	for i := 0; i < n; i++ {
		name := names[s.atoms[i]]
		pos := len(order)
		for pos > 0 && names[s.atoms[order[pos-1]]] > name {
			pos--
		}
		order = append(order, 0)
		copy(order[pos+1:], order[pos:])
		order[pos] = int32(i)
	}
	count := 0
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			if _, ok := s.exact(i, j); ok {
				count += 2
			}
		}
	}
	off := append(slices.Grow(t.off[:0], n+1), 0)
	ws := slices.Grow(t.ws[:0], count)
	for i := 0; i < n; i++ {
		for _, j32 := range order {
			j := int(j32)
			if j == i {
				continue
			}
			if c, ok := s.exact(i, j); ok {
				ws = append(ws, Witness{Var: s.atoms[j], C: c})
			}
		}
		off = append(off, int32(len(ws)))
	}
	t.off, t.ws = off, ws
}

// exact returns c when x_i - x_j = c exactly: the closed matrix bounds
// both directions tightly.
func (s *store) exact(i, j int) (c int64, ok bool) {
	up, down := s.get(i, j), s.get(j, i)
	return up, up < Inf && down < Inf && up == -down
}
