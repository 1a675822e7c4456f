// Package cg implements constraint graphs: conjunctions of difference
// inequalities x <= y + c over named integer variables, the dataflow state
// representation of the paper's Section VII client analysis (following CLR
// ch. 25.5 and Shaham et al).
//
// The graph is kept transitively closed so entailment queries are O(1)
// lookups. Closure is maintained two ways, mirroring the two variants
// profiled in the paper's Section IX:
//
//   - a full O(n^3) Floyd-Warshall pass (FullClose), and
//   - a changed-frontier incremental update applied when a single
//     constraint is added to an already-closed graph (AddLE): the affected
//     sources (rows whose bound to the new edge's head tightened) are
//     crossed only with the affected targets, so an insertion that changes
//     little does O(changed) work instead of O(n^2).
//
// Both are instrumented (invocation counts, variable counts, wall time) so
// the benchmark harness can regenerate the paper's profile. Two storage
// backends are provided — a single flat []int64 matrix and a Go map —
// reproducing the paper's observation that container-based storage is much
// slower than arrays for this workload. Variable names are interned
// process-wide into dense Atom ids (see atom.go); per-graph state is a
// compact slot table over atoms plus the matrix, both arena-pooled (see
// store.go).
package cg

import (
	"encoding/binary"
	"fmt"
	"math"
	"slices"
	"sort"
	"strconv"
	"strings"
	"time"
)

// Inf is the internal "no constraint" bound. It is kept far from the int64
// limits so additions cannot overflow.
const Inf = math.MaxInt64 / 4

// ZeroVar is the distinguished variable fixed at 0; constraints against it
// encode unary bounds (x <= c is x - ZeroVar <= c).
const ZeroVar = "$0"

// Backend selects the storage strategy for the closed difference matrix.
type Backend int

// Available backends.
const (
	// ArrayBackend stores bounds in one flat stride-indexed []int64 matrix.
	ArrayBackend Backend = iota
	// MapBackend stores bounds in a Go map keyed by variable pair — the
	// "STL container" analogue from the paper's Section IX discussion.
	MapBackend
)

func (b Backend) String() string {
	switch b {
	case ArrayBackend:
		return "array"
	case MapBackend:
		return "map"
	}
	return fmt.Sprintf("backend(%d)", int(b))
}

// Options configures graph construction.
type Options struct {
	Backend Backend
	Stats   *Stats // optional shared instrumentation
}

// Graph is a transitively closed difference-constraint store. The zero
// value is not usable; call New.
//
// Graphs are copy-on-write: Clone is an O(1) reference bump that shares the
// slot table and the closed matrix with the original, and the first
// mutating operation on either graph (AddLE, Forget, Drop, Shift, Rename,
// FullClose) materializes a private copy. Shared storage is never written,
// except for its equality-witness cache, which is published atomically, so
// any number of clones may be read concurrently; each individual graph is
// still single-writer, as before.
//
// A graph whose lifetime is over may be returned to the storage arena with
// Release; this is an optimization, not an obligation — an unreleased graph
// is simply collected by the GC.
type Graph struct {
	opts       Options
	s          *store
	consistent bool
}

// New returns an empty, consistent graph containing only ZeroVar.
func New(opts Options) *Graph {
	g := &Graph{opts: opts, consistent: true}
	if opts.Backend == MapBackend {
		g.s = newSparse()
	} else {
		g.s = acquireFlat(1, opts.Stats)
	}
	g.s.addSlot(AtomZero, opts.Stats)
	return g
}

// NewDefault returns a graph with the array backend and no shared stats.
func NewDefault() *Graph { return New(Options{}) }

// Release returns the graph's storage to the size-class arena once the last
// graph sharing it is released. The graph must not be used afterwards
// (every operation will panic loudly rather than corrupt a recycled
// arena). Release is idempotent and safe on nil.
func (g *Graph) Release() {
	if g == nil || g.s == nil {
		return
	}
	g.s.release()
	g.s = nil
}

// materialize gives g private storage before a mutation. A graph whose
// storage is unshared mutates in place; a shared one copies the slot table
// and matrix first (the deferred cost of an earlier O(1) Clone) — for the
// array backend that copy is a single memcpy of the active rows into an
// arena-pooled matrix.
func (g *Graph) materialize() {
	// Every content mutation passes through here before writing, so this is
	// the one place a private store starts a new generation (a copied store
	// starts in one of its own).
	s := g.s
	if s.refs.Load() == 1 {
		s.renew()
		return
	}
	start := g.clock()
	n := len(s.atoms)
	var ns *store
	if s.mat != nil {
		ns = acquireFlat(n, g.opts.Stats)
		if ns.stride == s.stride {
			copy(ns.mat, s.mat[:n*s.stride])
		} else {
			for i := 0; i < n; i++ {
				copy(ns.mat[i*ns.stride:i*ns.stride+n], s.mat[i*s.stride:i*s.stride+n])
			}
		}
	} else {
		ns = newSparse()
		for k, v := range s.sparse {
			ns.sparse[k] = v
		}
	}
	ns.atoms = append(ns.atoms[:0], s.atoms...)
	g.s = ns
	// Copy strictly before dropping the old reference: the decrement may
	// recycle the shared arena into the pool.
	s.release()
	if st := g.opts.Stats; st != nil {
		st.cowMaterializations.Add(1)
		st.maintainTimeNs.Add(int64(time.Since(start)))
	}
}

// slotIntern returns the slot for atom a, adding the variable if needed.
func (g *Graph) slotIntern(a Atom) int {
	if i := g.s.slot(a); i >= 0 {
		return i
	}
	g.materialize()
	return g.s.addSlot(a, g.opts.Stats)
}

// NumVars returns the number of interned variables (including ZeroVar).
func (g *Graph) NumVars() int { return len(g.s.atoms) }

// Vars returns all variable names except ZeroVar, sorted.
func (g *Graph) Vars() []string {
	names := atomNames()
	out := make([]string, 0, len(g.s.atoms)-1)
	for _, a := range g.s.atoms {
		if a != AtomZero {
			out = append(out, names[a])
		}
	}
	sort.Strings(out)
	return out
}

// AppendAtoms appends the graph's variables to dst in slot order, ZeroVar
// first: element i is AtomAt(i).
func (g *Graph) AppendAtoms(dst []Atom) []Atom { return append(dst, g.s.atoms...) }

// HasVar reports whether name has been interned into this graph.
func (g *Graph) HasVar(name string) bool {
	a, ok := LookupAtom(name)
	return ok && g.s.slot(a) >= 0
}

// HasVarA reports whether atom a has a slot in this graph.
func (g *Graph) HasVarA(a Atom) bool { return g.s.slot(a) >= 0 }

// Consistent reports whether the constraints are satisfiable.
func (g *Graph) Consistent() bool { return g.consistent }

// MarkInconsistent forces the graph into the unsatisfiable state.
func (g *Graph) MarkInconsistent() { g.consistent = false }

// Generation names the content of g's storage: two graphs with the same
// non-zero generation hold the same variables and constraints, and are
// consistent. Every content write starts a new generation, clones share
// theirs until one of them writes, and a generation is never reused, not
// even by a recycled store. An inconsistent graph reports 0, since the
// AddLE and MarkInconsistent early-outs leave its storage as it was.
func (g *Graph) Generation() uint64 {
	if !g.consistent {
		return 0
	}
	return g.s.gen
}

// clock reads the time for Stats, its only reader, and skips the read when
// no Stats is attached.
func (g *Graph) clock() time.Time {
	if g.opts.Stats == nil {
		return time.Time{}
	}
	return time.Now()
}

// AddVar ensures name is present (unconstrained if new).
func (g *Graph) AddVar(name string) { g.slotIntern(Intern(name)) }

// AddLE adds the constraint x <= y + c (x - y <= c), maintaining closure
// with the changed-frontier incremental algorithm. Either side may be
// ZeroVar. Returns false if the constraint makes the graph inconsistent.
func (g *Graph) AddLE(x, y string, c int64) bool {
	return g.AddLEA(Intern(x), Intern(y), c)
}

// AddLEA is AddLE over interned atoms — the allocation-free hot path.
func (g *Graph) AddLEA(x, y Atom, c int64) bool {
	if !g.consistent {
		return false
	}
	i, j := g.slotIntern(x), g.slotIntern(y)
	if i == j {
		if c < 0 {
			g.consistent = false
		}
		return g.consistent
	}
	if g.s.get(i, j) <= c {
		return true // already entailed
	}
	// Inconsistency: existing bound j - i <= d with c + d < 0.
	if d := g.s.get(j, i); d < Inf && c+d < 0 {
		g.consistent = false
		return false
	}
	g.materialize()
	g.s.set(i, j, c)
	g.incrementalClose(i, j)
	return g.consistent
}

// AddEq adds x = y + c.
func (g *Graph) AddEq(x, y string, c int64) bool {
	return g.AddEqA(Intern(x), Intern(y), c)
}

// AddEqA adds x = y + c over interned atoms.
func (g *Graph) AddEqA(x, y Atom, c int64) bool {
	return g.AddLEA(x, y, c) && g.AddLEA(y, x, -c)
}

// SetConst adds x = c.
func (g *Graph) SetConst(x string, c int64) bool { return g.AddEqA(Intern(x), AtomZero, c) }

// incrementalClose restores closure after tightening edge (i,j) with the
// changed-edge frontier: first the column of j is updated, collecting the
// affected sources (rows a whose a->i->j path beats the old a->j bound);
// then the row of i symmetrically, collecting affected targets; finally
// only sources × targets are crossed. On a closed matrix any pair (a,b) not
// in that cross product already satisfies d(a,b) <= d(a,i)+w+d(j,b), so the
// pruned pass restores full closure while touching only what changed.
func (g *Graph) incrementalClose(i, j int) {
	start := g.clock()
	s := g.s
	n := len(s.atoms)
	w := s.get(i, j)
	srcs, tgts := s.srcs[:0], s.tgts[:0]
	if s.mat != nil {
		mat, stride := s.mat, s.stride
		for a := 0; a < n; a++ {
			if a == i {
				continue
			}
			dai := mat[a*stride+i]
			if dai >= Inf {
				continue
			}
			if v := dai + w; v < mat[a*stride+j] {
				mat[a*stride+j] = v
				if a == j && v < 0 {
					g.consistent = false
				}
				srcs = append(srcs, int32(a))
			}
		}
		rowI := mat[i*stride : i*stride+n]
		rowJ := mat[j*stride : j*stride+n]
		if g.consistent {
			for b := 0; b < n; b++ {
				if b == j {
					continue
				}
				djb := rowJ[b]
				if djb >= Inf {
					continue
				}
				if v := w + djb; v < rowI[b] {
					rowI[b] = v
					if b == i && v < 0 {
						g.consistent = false
					}
					tgts = append(tgts, int32(b))
				}
			}
		}
		if g.consistent {
			for _, a32 := range srcs {
				a := int(a32)
				through := mat[a*stride+i] + w
				rowA := mat[a*stride : a*stride+n]
				for _, b32 := range tgts {
					b := int(b32)
					if v := through + rowJ[b]; v < rowA[b] {
						rowA[b] = v
						if a == b && v < 0 {
							g.consistent = false
						}
					}
				}
			}
		}
	} else {
		for a := 0; a < n; a++ {
			if a == i {
				continue
			}
			dai := s.get(a, i)
			if dai >= Inf {
				continue
			}
			if v := dai + w; v < s.get(a, j) {
				s.set(a, j, v)
				if a == j && v < 0 {
					g.consistent = false
				}
				srcs = append(srcs, int32(a))
			}
		}
		if g.consistent {
			for b := 0; b < n; b++ {
				if b == j {
					continue
				}
				djb := s.get(j, b)
				if djb >= Inf {
					continue
				}
				if v := w + djb; v < s.get(i, b) {
					s.set(i, b, v)
					if b == i && v < 0 {
						g.consistent = false
					}
					tgts = append(tgts, int32(b))
				}
			}
		}
		if g.consistent {
			for _, a32 := range srcs {
				a := int(a32)
				through := s.get(a, i) + w
				for _, b32 := range tgts {
					b := int(b32)
					if v := through + s.get(j, b); v < s.get(a, b) {
						s.set(a, b, v)
						if a == b && v < 0 {
							g.consistent = false
						}
					}
				}
			}
		}
	}
	s.srcs, s.tgts = srcs, tgts
	if st := g.opts.Stats; st != nil {
		st.incrClosures.Add(1)
		st.incrVarsSum.Add(int64(n))
		st.fullClosuresAvoided.Add(1)
		st.closureTimeNs.Add(int64(time.Since(start)))
	}
}

// FullClose recomputes the transitive closure with Floyd-Warshall, O(n^3).
// Needed after bulk edits (Join, Widen, Forget and Drop all preserve
// closure and do not require it).
func (g *Graph) FullClose() {
	start := g.clock()
	g.materialize()
	s := g.s
	n := len(s.atoms)
	if s.mat != nil {
		mat, stride := s.mat, s.stride
		for k := 0; k < n; k++ {
			rowK := mat[k*stride : k*stride+n]
			for a := 0; a < n; a++ {
				dak := mat[a*stride+k]
				if dak >= Inf {
					continue
				}
				rowA := mat[a*stride : a*stride+n]
				for b := 0; b < n; b++ {
					dkb := rowK[b]
					if dkb >= Inf {
						continue
					}
					if v := dak + dkb; v < rowA[b] {
						rowA[b] = v
					}
				}
			}
		}
	} else {
		for k := 0; k < n; k++ {
			for a := 0; a < n; a++ {
				dak := s.get(a, k)
				if dak >= Inf {
					continue
				}
				for b := 0; b < n; b++ {
					dkb := s.get(k, b)
					if dkb >= Inf {
						continue
					}
					if v := dak + dkb; v < s.get(a, b) {
						s.set(a, b, v)
					}
				}
			}
		}
	}
	for a := 0; a < n; a++ {
		if s.get(a, a) < 0 {
			g.consistent = false
		}
	}
	if st := g.opts.Stats; st != nil {
		st.fullClosures.Add(1)
		st.fullVarsSum.Add(int64(n))
		st.closureTimeNs.Add(int64(time.Since(start)))
	}
}

// DiffBound returns the tightest known bound on x - y, with ok=false when
// unconstrained or either variable is unknown.
func (g *Graph) DiffBound(x, y string) (int64, bool) {
	ax, okx := LookupAtom(x)
	ay, oky := LookupAtom(y)
	if !okx || !oky {
		return 0, false
	}
	return g.DiffBoundA(ax, ay)
}

// DiffBoundA is DiffBound over interned atoms.
func (g *Graph) DiffBoundA(x, y Atom) (int64, bool) {
	i := g.s.slot(x)
	j := g.s.slot(y)
	if i < 0 || j < 0 {
		return 0, false
	}
	b := g.s.get(i, j)
	if b >= Inf {
		return 0, false
	}
	return b, true
}

// Entails reports whether the graph implies x <= y + c. An inconsistent
// graph entails everything.
func (g *Graph) Entails(x, y string, c int64) bool {
	if !g.consistent {
		return true
	}
	if x == y {
		return c >= 0
	}
	b, ok := g.DiffBound(x, y)
	return ok && b <= c
}

// EntailsA is Entails over interned atoms.
func (g *Graph) EntailsA(x, y Atom, c int64) bool {
	if !g.consistent {
		return true
	}
	if x == y {
		return c >= 0
	}
	b, ok := g.DiffBoundA(x, y)
	return ok && b <= c
}

// ConstVal returns the exact known value of x, if the graph pins it.
func (g *Graph) ConstVal(x string) (int64, bool) {
	a, ok := LookupAtom(x)
	if !ok {
		return 0, false
	}
	return g.ConstValA(a)
}

// ConstValA is ConstVal over an interned atom.
func (g *Graph) ConstValA(x Atom) (int64, bool) {
	hi, ok1 := g.DiffBoundA(x, AtomZero)
	lo, ok2 := g.DiffBoundA(AtomZero, x)
	if ok1 && ok2 && hi == -lo {
		return hi, true
	}
	return 0, false
}

// EqualWitnesses is the name form of EqualWitnessesA, as ConstVal is of
// ConstValA: it returns the same cached list, under the same rules.
func (g *Graph) EqualWitnesses(x string) []Witness {
	a, ok := LookupAtom(x)
	if !ok {
		return nil
	}
	return g.EqualWitnessesA(a)
}

// EqualWitnessesA returns, for variable x, every pair (y, c) with the graph
// entailing x = y + c, including (AtomZero, v) when x has a known constant
// value. x itself is excluded. Results are sorted by variable name. The
// list is computed once per storage generation and shared by every clone of
// it, so a repeated lookup costs one slot search and allocates nothing. The
// result must not be modified, and it is valid until the graph is next
// mutated or released.
func (g *Graph) EqualWitnessesA(x Atom) []Witness {
	if !g.consistent {
		return nil
	}
	i := g.s.slot(x)
	if i < 0 {
		return nil
	}
	t := g.s.witnesses()
	lo, hi := t.off[i], t.off[i+1]
	return t.ws[lo:hi:hi]
}

// Witness records the fact x = Var + C for some subject variable x.
type Witness struct {
	Var Atom
	C   int64
}

// ForEachBoundA calls fn for every finite off-diagonal bound x - y <= c in
// the closed graph, in slot order (row by row), identifying variables by
// slot index; AtomAt maps a slot to its atom.
func (g *Graph) ForEachBoundA(fn func(i, j int32, c int64)) {
	s := g.s
	n := len(s.atoms)
	if s.mat != nil {
		for i := 0; i < n; i++ {
			row := s.mat[i*s.stride : i*s.stride+n]
			for j := 0; j < n; j++ {
				if i == j {
					continue
				}
				if b := row[j]; b < Inf {
					fn(int32(i), int32(j), b)
				}
			}
		}
		return
	}
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			if i == j {
				continue
			}
			if b := s.get(i, j); b < Inf {
				fn(int32(i), int32(j), b)
			}
		}
	}
}

// AtomAt returns the atom occupying slot i (for ForEachBoundA callers).
func (g *Graph) AtomAt(i int32) Atom { return g.s.atoms[i] }

// Forget removes all constraints mentioning x while preserving everything
// entailed between other variables (the graph is already closed, so simply
// resetting x's row and column is a sound projection that needs no
// re-closure).
func (g *Graph) Forget(x string) {
	if a, ok := LookupAtom(x); ok {
		g.ForgetA(a)
	}
}

// ForgetA is Forget over an interned atom.
func (g *Graph) ForgetA(x Atom) {
	i := g.s.slot(x)
	if i < 0 {
		return
	}
	g.materialize()
	s := g.s
	n := len(s.atoms)
	if s.mat != nil {
		row := s.mat[i*s.stride : i*s.stride+n]
		for a := range row {
			row[a] = Inf
		}
		for a := 0; a < n; a++ {
			s.mat[a*s.stride+i] = Inf
		}
		row[i] = 0
	} else {
		for a := 0; a < n; a++ {
			if a != i {
				s.set(i, a, Inf)
				s.set(a, i, Inf)
			}
		}
		s.set(i, i, 0)
	}
	if st := g.opts.Stats; st != nil {
		st.fullClosuresAvoided.Add(1)
	}
}

// Drop removes variable x entirely from the graph (Forget plus deletion of
// the slot, filled by swapping in the last slot). All other constraints are
// preserved without re-closure.
func (g *Graph) Drop(x string) {
	if a, ok := LookupAtom(x); ok {
		g.DropA(a)
	}
}

// DropA is Drop over an interned atom.
func (g *Graph) DropA(x Atom) {
	if x == AtomZero {
		return
	}
	if g.s.slot(x) < 0 {
		return
	}
	g.ForgetA(x) // materializes
	s := g.s
	i := s.slot(x)
	last := len(s.atoms) - 1
	if s.mat != nil {
		if i != last {
			for a := 0; a <= last; a++ {
				s.mat[a*s.stride+i] = s.mat[a*s.stride+last]
				s.mat[i*s.stride+a] = s.mat[last*s.stride+a]
			}
			s.mat[i*s.stride+i] = s.mat[last*s.stride+last]
			s.atoms[i] = s.atoms[last]
		}
	} else {
		delete(s.sparse, pairKey(i, i))
		if i != last {
			for a := 0; a <= last; a++ {
				if v, ok := s.sparse[pairKey(a, last)]; ok {
					delete(s.sparse, pairKey(a, last))
					if a == last {
						s.sparse[pairKey(i, i)] = v
					} else {
						s.sparse[pairKey(a, i)] = v
					}
				}
				if v, ok := s.sparse[pairKey(last, a)]; ok {
					delete(s.sparse, pairKey(last, a))
					if a != last {
						s.sparse[pairKey(i, a)] = v
					}
				}
			}
			s.atoms[i] = s.atoms[last]
		}
	}
	s.atoms = s.atoms[:last]
	if st := g.opts.Stats; st != nil {
		st.fullClosuresAvoided.Add(1)
	}
}

// Shift applies the invertible assignment x := x + k: every bound involving
// x moves by k. Closure is preserved.
func (g *Graph) Shift(x string, k int64) { g.ShiftA(Intern(x), k) }

// ShiftA is Shift over an interned atom.
func (g *Graph) ShiftA(x Atom, k int64) {
	i := g.s.slot(x)
	if i < 0 {
		g.slotIntern(x)
		return
	}
	g.materialize()
	s := g.s
	n := len(s.atoms)
	if s.mat != nil {
		row := s.mat[i*s.stride : i*s.stride+n]
		for a := 0; a < n; a++ {
			if a == i {
				continue
			}
			if b := row[a]; b < Inf {
				row[a] = b + k
			}
			if b := s.mat[a*s.stride+i]; b < Inf {
				s.mat[a*s.stride+i] = b - k
			}
		}
	} else {
		for a := 0; a < n; a++ {
			if a == i {
				continue
			}
			if b := s.get(i, a); b < Inf {
				s.set(i, a, b+k)
			}
			if b := s.get(a, i); b < Inf {
				s.set(a, i, b-k)
			}
		}
	}
}

// Rename changes variable old to new (new must not exist yet).
func (g *Graph) Rename(old, new string) {
	if old == new {
		return
	}
	a, ok := LookupAtom(old)
	if !ok || g.s.slot(a) < 0 {
		return
	}
	g.RenameA(a, Intern(new))
}

// RenameA is Rename over interned atoms.
func (g *Graph) RenameA(old, new Atom) {
	if old == new {
		return
	}
	i := g.s.slot(old)
	if i < 0 {
		return
	}
	if g.s.slot(new) >= 0 {
		panic(fmt.Sprintf("cg: Rename target %q already exists", new.String()))
	}
	g.materialize()
	g.s.atoms[i] = new
}

// Relabel renames from[k] to to[k] for every k at once, so from and to may
// overlap (a swap, a cycle). Each renamed variable keeps its slot, as with
// RenameA calls through fresh temporaries, in one materialization. Absent
// atoms of from are skipped, and a relabel that changes nothing leaves
// the Generation alone. Like RenameA, it panics on a collision.
func (g *Graph) Relabel(from, to []Atom) {
	hit := false
	for k, a := range from {
		if a != to[k] && g.s.slot(a) >= 0 {
			hit = true
			break
		}
	}
	if !hit {
		return
	}
	g.materialize()
	atoms := g.s.atoms
	for i, a := range atoms {
		if k := slices.Index(from, a); k >= 0 {
			atoms[i] = to[k]
		}
	}
	for i, a := range atoms {
		if slices.Contains(atoms[i+1:], a) {
			panic(fmt.Sprintf("cg: Relabel target %q already exists", a.String()))
		}
	}
}

// Clone returns a logical copy sharing Options (and therefore Stats).
// Cloning is O(1): the slot table and matrix storage are shared
// copy-on-write between the original and the clone, and the first mutating
// operation on either side materializes a private copy (see materialize).
func (g *Graph) Clone() *Graph {
	c := new(Graph)
	g.CloneInto(c)
	return c
}

// CloneInto is Clone into a graph header the caller allocated, such as one
// embedded in a larger object. dst's previous content is overwritten, not
// released.
func (g *Graph) CloneInto(dst *Graph) {
	g.s.refs.Add(1)
	if st := g.opts.Stats; st != nil {
		st.clonesAvoided.Add(1)
	}
	*dst = Graph{opts: g.opts, s: g.s, consistent: g.consistent}
}

// alignVars makes both graphs contain the union of their variables.
func alignVars(a, b *Graph) {
	for _, at := range a.s.atoms {
		b.slotIntern(at)
	}
	for _, at := range b.s.atoms {
		a.slotIntern(at)
	}
}

// slotMap fills dst with, for each slot of a, the corresponding slot in b
// (both graphs must already contain the same variables, e.g. after
// alignVars).
func slotMap(a, b *Graph, dst []int32) []int32 {
	dst = dst[:0]
	for _, at := range a.s.atoms {
		dst = append(dst, int32(b.s.slot(at)))
	}
	return dst
}

// Join returns the least upper bound (convex hull) of a and b: pointwise
// maximum of the closed matrices. If either side is inconsistent the other
// is returned (bottom is the identity of join).
func Join(a, b *Graph) *Graph {
	if !a.consistent {
		return b.Clone()
	}
	if !b.consistent {
		return a.Clone()
	}
	start := a.clock()
	defer func() {
		if st := a.opts.Stats; st != nil {
			st.joins.Add(1)
			st.joinVarsSum.Add(int64(len(a.s.atoms)))
			st.maintainTimeNs.Add(int64(time.Since(start)))
		}
	}()
	ra, rb := a.Clone(), b.Clone()
	alignVars(ra, rb)
	ra.materialize()
	n := len(ra.s.atoms)
	ra.s.srcs = slotMap(ra, rb, ra.s.srcs)
	other := ra.s.srcs
	for i := 0; i < n; i++ {
		ji := int(other[i])
		for j := 0; j < n; j++ {
			va := ra.s.get(i, j)
			vb := rb.s.get(ji, int(other[j]))
			if vb > va {
				ra.s.set(i, j, vb)
			}
		}
	}
	rb.Release()
	// Pointwise max of closed matrices is closed; no re-closure needed.
	return ra
}

// Widen returns a widened with b: bounds of a that b does not respect are
// dropped to Inf, guaranteeing a finite ascending chain. The result is not
// re-closed (closing after widening would defeat termination).
func Widen(a, b *Graph) *Graph {
	if !a.consistent {
		return b.Clone()
	}
	if !b.consistent {
		return a.Clone()
	}
	start := a.clock()
	defer func() {
		if st := a.opts.Stats; st != nil {
			st.joins.Add(1)
			st.joinVarsSum.Add(int64(len(a.s.atoms)))
			st.maintainTimeNs.Add(int64(time.Since(start)))
		}
	}()
	ra, rb := a.Clone(), b.Clone()
	alignVars(ra, rb)
	ra.materialize()
	n := len(ra.s.atoms)
	ra.s.srcs = slotMap(ra, rb, ra.s.srcs)
	other := ra.s.srcs
	for i := 0; i < n; i++ {
		ji := int(other[i])
		for j := 0; j < n; j++ {
			if i == j {
				continue
			}
			if rb.s.get(ji, int(other[j])) > ra.s.get(i, j) {
				ra.s.set(i, j, Inf)
			}
		}
	}
	rb.Release()
	return ra
}

// Leq reports whether a entails all constraints of b (a is at least as
// precise, i.e. a ⊑ b in the may-analysis lattice ordered by precision).
func Leq(a, b *Graph) bool {
	if !a.consistent {
		return true
	}
	if !b.consistent {
		return false
	}
	bs := b.s
	n := len(bs.atoms)
	for i := 0; i < n; i++ {
		ia := a.s.slot(bs.atoms[i])
		for j := 0; j < n; j++ {
			if i == j {
				continue
			}
			vb := bs.get(i, j)
			if vb >= Inf {
				continue
			}
			if ia < 0 {
				return false
			}
			ja := a.s.slot(bs.atoms[j])
			if ja < 0 || a.s.get(ia, ja) > vb {
				return false
			}
		}
	}
	return true
}

// Equal reports mutual entailment over the union of variables.
func Equal(a, b *Graph) bool { return Leq(a, b) && Leq(b, a) }

// String renders all non-trivial constraints, sorted, e.g.
// "i <= np - 1; x = 5". An equality is rendered once, from its lower slot.
func (g *Graph) String() string {
	if !g.consistent {
		return "inconsistent"
	}
	names := atomNames()
	atoms := g.s.atoms
	var parts []string
	n := len(atoms)
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			if i == j {
				continue
			}
			up := g.s.get(i, j)
			if up >= Inf {
				continue
			}
			down := g.s.get(j, i)
			if down < Inf && down == -up {
				if j > i {
					parts = append(parts, renderEq(names[atoms[i]], names[atoms[j]], up))
				}
			} else {
				parts = append(parts, renderLE(names[atoms[i]], names[atoms[j]], up))
			}
		}
	}
	sort.Strings(parts)
	if len(parts) == 0 {
		return "true"
	}
	return strings.Join(parts, "; ")
}

// Record tags of AppendCanonical's encoding.
const (
	canonInconsistent byte = iota + 1
	canonEnd
	canonLE
	canonEq
)

// AppendCanonical appends a binary identity of g to dst: two graphs append
// the same bytes exactly when String renders them the same. Each rendered
// constraint becomes one record (tag, x, y, c) — x - y <= c for canonLE,
// x = y + c for canonEq — with variables as atom ids, so no name is looked
// up, no number formatted and no string sorted. Records follow
// the atom-id order of their variable pair, which depends only on the
// constraint set, as String's sort does. The content mirrors String:
// unconstrained variables emit nothing, an equality is oriented from its
// lower slot with a ZeroVar side normalized to the right (renderEq), and an
// inconsistent graph is a single tag. canonEnd closes the record list, so
// the encoding is self-delimiting inside a larger key.
func (g *Graph) AppendCanonical(dst []byte) []byte {
	if !g.consistent {
		return append(dst, canonInconsistent)
	}
	s := g.s
	n := len(s.atoms)
	// Slots in atom-id order, by insertion sort into a stack buffer: slot
	// counts are tens, and only a larger graph spills to the heap.
	var buf [64]int32
	order := buf[:0]
	if n > len(buf) {
		order = make([]int32, 0, n)
	}
	for i := 0; i < n; i++ {
		a := s.atoms[i]
		pos := len(order)
		for pos > 0 && s.atoms[order[pos-1]] > a {
			pos--
		}
		order = append(order, 0)
		copy(order[pos+1:], order[pos:])
		order[pos] = int32(i)
	}
	for k, i32 := range order {
		i := int(i32)
		for _, j32 := range order[k+1:] {
			j := int(j32)
			up, down := s.get(i, j), s.get(j, i)
			if up < Inf && down < Inf && down == -up {
				lo, hi, c := i, j, up
				if j < i {
					lo, hi, c = j, i, down
				}
				x, y := s.atoms[lo], s.atoms[hi]
				if x == AtomZero {
					x, y, c = y, x, -c
				}
				dst = appendRecord(dst, canonEq, x, y, c)
				continue
			}
			if up < Inf {
				dst = appendRecord(dst, canonLE, s.atoms[i], s.atoms[j], up)
			}
			if down < Inf {
				dst = appendRecord(dst, canonLE, s.atoms[j], s.atoms[i], down)
			}
		}
	}
	return append(dst, canonEnd)
}

// appendRecord appends one AppendCanonical record: the tag, both atoms as
// uvarints and the offset as a varint. Each field is self-delimiting and
// has one encoding, so the record is too.
func appendRecord(dst []byte, tag byte, x, y Atom, c int64) []byte {
	dst = binary.AppendUvarint(append(dst, tag), uint64(x))
	dst = binary.AppendUvarint(dst, uint64(y))
	return binary.AppendVarint(dst, c)
}

func renderEq(x, y string, c int64) string {
	if y == ZeroVar {
		return x + " = " + strconv.FormatInt(c, 10)
	}
	if x == ZeroVar {
		return renderEq(y, ZeroVar, -c)
	}
	return x + " = " + y + renderOffset(c)
}

func renderLE(x, y string, c int64) string {
	if y == ZeroVar {
		return x + " <= " + strconv.FormatInt(c, 10)
	}
	if x == ZeroVar {
		return y + " >= " + strconv.FormatInt(-c, 10)
	}
	return x + " <= " + y + renderOffset(c)
}

// renderOffset renders the "+ c" tail of a two-variable constraint.
func renderOffset(c int64) string {
	switch {
	case c == 0:
		return ""
	case c > 0:
		return " + " + strconv.FormatInt(c, 10)
	default:
		return " - " + strconv.FormatInt(-c, 10)
	}
}
