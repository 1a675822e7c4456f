// Package core implements the paper's parallel dataflow analysis framework
// over parallel control-flow graphs (pCFGs, Sections IV-VI).
//
// A pCFG node is a tuple of (process set, CFG node) pairs; the analysis
// walks an abstract configuration graph in which each configuration holds:
//
//   - a list of symbolic process sets, each positioned at a CFG node and
//     possibly blocked on a communication operation,
//   - a constraint-graph dataflow state over per-set variable namespaces
//     (the Section VII client state), and
//   - the send-receive matches established so far.
//
// The engine (engine.go) performs the paper's propagate step: transfer
// functions for unblocked sets, process-set splitting at id-dependent
// branches, send-receive matching through a pluggable Matcher (Section VII's
// symbolic matcher, Section VIII's HSM-based cartesian matcher), set merging,
// and widening with the bound-atom intersection of Section VII-D extended by
// parametric generalization. ⊤ marks analysis give-up, exactly as the
// framework prescribes when no match can be made.
package core

import (
	"encoding/binary"
	"fmt"
	"sort"
	"strconv"
	"strings"

	"repro/internal/cfg"
	"repro/internal/cg"
	"repro/internal/procset"
	"repro/internal/sym"
	"repro/internal/tri"
)

// PV builds the namespaced constraint-graph variable for per-set variable
// name on process set id, e.g. PV(0, "x") == "ps0.x".
func PV(id int, name string) string { return pvPrefix(id) + name }

// pvPrefix returns the namespace prefix of a set.
func pvPrefix(id int) string { return "ps" + strconv.Itoa(id) + "." }

// ProcSet is one symbolic process set within a configuration: the paper's
// (process set id, CFG node) tuple element plus its pSets entry.
type ProcSet struct {
	ID      int         // stable identifier within a state lineage
	Node    *cfg.Node   // CFG node the set is about to execute
	Range   procset.Set // the processes represented
	Blocked bool        // true when waiting at a communication operation
	// Approx marks a set whose range is an over-approximation. Only sets
	// that have terminated (reached Exit) may be approximate: they never
	// participate in matching, so exactness (required by Section VI) is
	// preserved where it matters.
	Approx bool
}

func (p *ProcSet) String() string {
	b := ""
	if p.Blocked {
		b = "*"
	}
	if p.Approx {
		b += "~"
	}
	return fmt.Sprintf("%s@n%d%s", p.Range, p.Node.ID, b)
}

// AllProcs returns the full range [0..np-1].
func AllProcs() procset.Set {
	return procset.Range(sym.Zero, sym.VarPlus("np", -1))
}

// Match records an established send-receive match: the communication edge
// between two CFG nodes together with the symbolic process ranges involved.
// Accumulated matches form the application's communication topology.
type Match struct {
	SendNode int
	RecvNode int
	Sender   procset.Set
	Receiver procset.Set
}

func (m *Match) String() string {
	return fmt.Sprintf("n%d%s -> n%d%s", m.SendNode, m.Sender, m.RecvNode, m.Receiver)
}

// State is one abstract configuration (a pCFG node plus its dataflow state).
type State struct {
	Sets    []*ProcSet
	G       *cg.Graph
	Matches []*Match
	// Pending holds in-flight aggregated sends (the non-blocking send
	// extension; see pending.go).
	Pending []*PendingSend
	Top     bool
	TopWhy  string
	// TopNode is the CFG node blamed for the give-up (0 = unknown; node 0
	// is Entry, which never causes ⊤). TopKey is the shape key of the
	// configuration the give-up transition left from. Both are provenance
	// only: they never enter FullKey/ShapeKey/identity, so they cannot affect
	// fixpoint detection or the parallel/sequential equivalence of keys.
	TopNode int
	TopKey  string
	nextID  int
	// nextFrozen numbers frozen-variable twins minted by pending sends.
	nextFrozen int
	// assigned marks program variables that are written somewhere (by an
	// assignment or a receive). Variables never written hold the same value
	// on every process (their input/default value), so they are treated as
	// global symbols rather than per-set variables.
	assigned map[string]bool
	// memo caches bound enrichment for the analysis the state belongs to
	// (procset.Memo); nil outside an analysis. Clone shares it.
	memo *procset.Memo
	// sharedMatches/sharedPending mark the Matches/Pending slices (and their
	// elements) as shared copy-on-write with another State produced by Clone.
	// Mutators call ownMatches/ownPending before writing elements or
	// appending; read-only uses and canonical in-place re-sorts (which keep
	// the same element set) need no copy.
	sharedMatches bool
	sharedPending bool
	// Canonical-key cache: ShapeKey/identity serializations cost sorts
	// plus a walk of the whole constraint graph, and the engine asks
	// for them on every table revisit. A cached key is valid while the
	// configuration content is unchanged: constraint-graph changes are
	// tracked by (graph identity, graph version); Sets/Matches/Pending/Top
	// changes by explicit dirtyKeys calls in the State-level mutators.
	// Clone deliberately does not copy the cache — transfer functions
	// mutate fresh clones through direct field writes that bypass
	// dirtyKeys, so clones must start cold. The binary identity lives in
	// id, a buffer reused across rebuilds.
	shapeStamp keyStamp
	shapeKey   string
	idStamp    keyStamp
	id         []byte
}

// keyStamp marks a cached canonical key valid for the graph identity and
// version it was built against.
type keyStamp struct {
	ok   bool
	g    *cg.Graph
	gVer uint64
}

// valid reports whether the cached key is still trustworthy for graph g.
func (c *keyStamp) valid(g *cg.Graph) bool {
	return c.ok && c.g == g && c.gVer == g.Version()
}

// stamp records that the key was just built against g's current state.
func (c *keyStamp) stamp(g *cg.Graph) {
	*c = keyStamp{ok: true, g: g, gVer: g.Version()}
}

// dirtyKeys invalidates the cached canonical keys. Every State method that
// changes key-relevant content (Sets, Matches, Pending, Top) must call it;
// constraint-graph mutations are caught by the graph version instead.
func (st *State) dirtyKeys() {
	st.shapeStamp.ok = false
	st.idStamp.ok = false
}

// SetAssignedVars installs the set of program variables that are written
// anywhere in the program (collected from the CFG by the engine).
func (st *State) SetAssignedVars(m map[string]bool) { st.assigned = m }

// varName resolves a program variable reference for set psID: written
// variables live in the set's namespace; never-written ones are global.
func (st *State) varName(psID int, name string) string {
	if st.assigned == nil || st.assigned[name] {
		return PV(psID, name)
	}
	return name
}

// NewState builds the initial configuration: one set holding all processes
// [0..np-1] at the CFG entry, with np >= 1 known.
func NewState(entry *cfg.Node, opts cg.Options) *State {
	g := cg.New(opts)
	g.AddLE(cg.ZeroVar, "np", -1) // np >= 1
	all := AllProcs()
	return &State{
		Sets:   []*ProcSet{{ID: 0, Node: entry, Range: all}},
		G:      g,
		nextID: 1,
	}
}

// Ctx returns the procset comparison context for this state, with its
// analysis's enrichment memo.
func (st *State) Ctx() procset.Ctx { return procset.Ctx{G: st.G, Memo: st.memo} }

// Clone copies the configuration. The constraint graph, the match list and
// the pending-send list are shared copy-on-write: the graph header is an
// O(1) reference bump (cg.Graph.CloneInto), and Matches/Pending keep
// pointing at the original records until either side mutates them (see
// ownMatches/ownPending). Only the small Sets slice is copied eagerly — its
// elements are written by almost every transfer function, so laziness
// would not pay. A clone of up to seven sets is one allocation holding the
// state, its graph header, its set pointers and its sets; a set added
// later has its own.
func (st *State) Clone() *State {
	st.sharedMatches = true
	st.sharedPending = true
	ns, g, ptrs, sets := newClone(len(st.Sets))
	*ns = State{
		G:             g,
		Top:           st.Top,
		TopWhy:        st.TopWhy,
		TopNode:       st.TopNode,
		TopKey:        st.TopKey,
		nextID:        st.nextID,
		nextFrozen:    st.nextFrozen,
		Matches:       st.Matches,
		Pending:       st.Pending,
		assigned:      st.assigned,
		memo:          st.memo,
		sharedMatches: true,
		sharedPending: true,
	}
	st.G.CloneInto(g)
	for i, p := range st.Sets {
		sets[i] = *p
		ptrs[i] = &sets[i]
	}
	ns.Sets = ptrs
	return ns
}

// Clone blocks: a state, its graph header, and room for 1, 3, 5 or 7 sets
// and their pointers. newClone takes the smallest block that fits, so a
// one-set state does not grow and at most one set slot goes unused.
// Clones hold 1 to 8 sets on the benchmark workloads, and fewer than 0.4%
// hold 8 (DESIGN.md §21).
type (
	clone1 struct {
		st   State
		g    cg.Graph
		ptrs [1]*ProcSet
		sets [1]ProcSet
	}
	clone3 struct {
		st   State
		g    cg.Graph
		ptrs [3]*ProcSet
		sets [3]ProcSet
	}
	clone5 struct {
		st   State
		g    cg.Graph
		ptrs [5]*ProcSet
		sets [5]ProcSet
	}
	clone7 struct {
		st   State
		g    cg.Graph
		ptrs [7]*ProcSet
		sets [7]ProcSet
	}
)

// newClone allocates the storage of a clone with n sets: one block for
// n <= 7, separate objects otherwise. The set slices are capped at n, so
// a set added later appends outside the block.
func newClone(n int) (*State, *cg.Graph, []*ProcSet, []ProcSet) {
	switch {
	case n <= 1:
		b := new(clone1)
		return &b.st, &b.g, b.ptrs[:n:n], b.sets[:n:n]
	case n <= 3:
		b := new(clone3)
		return &b.st, &b.g, b.ptrs[:n:n], b.sets[:n:n]
	case n <= 5:
		b := new(clone5)
		return &b.st, &b.g, b.ptrs[:n:n], b.sets[:n:n]
	case n <= 7:
		b := new(clone7)
		return &b.st, &b.g, b.ptrs[:n:n], b.sets[:n:n]
	}
	return new(State), new(cg.Graph), make([]*ProcSet, n), make([]ProcSet, n)
}

// Release returns the state's constraint-graph storage to the cg arena
// pool. Call only when the state is provably dead — a superseded table
// entry, a consumed revision, a discarded trial state; the graph must not
// be touched afterwards. Storage still shared with live clones
// stays alive (cg reference counting), so Release is always safe on a
// state nothing else aliases. Safe on nil and on graphless ⊤ states.
func (st *State) Release() {
	if st == nil || st.G == nil {
		return
	}
	st.G.Release()
	st.G = nil
}

// ownMatches materializes a private copy of the match list (deep: elements
// included) if it is still shared with a clone. Must be called before any
// write to st.Matches or a *Match reached through it.
func (st *State) ownMatches() {
	if !st.sharedMatches {
		return
	}
	out := make([]*Match, len(st.Matches))
	for i, m := range st.Matches {
		cm := *m
		out[i] = &cm
	}
	st.Matches = out
	st.sharedMatches = false
}

// ownPending materializes a private copy of the pending-send list (deep) if
// it is still shared with a clone. Must be called before any write to
// st.Pending or a *PendingSend reached through it.
func (st *State) ownPending() {
	if !st.sharedPending {
		return
	}
	st.Pending = clonePendings(st.Pending)
	st.sharedPending = false
}

// FreshID allocates a new process-set identifier.
func (st *State) FreshID() int {
	id := st.nextID
	st.nextID++
	return id
}

// Set returns the process set with the given ID, or nil.
func (st *State) Set(id int) *ProcSet {
	for _, p := range st.Sets {
		if p.ID == id {
			return p
		}
	}
	return nil
}

// MarkTop sends the configuration to ⊤ with a reason (the framework's
// give-up transition).
func (st *State) MarkTop(why string) {
	st.dirtyKeys()
	st.Top = true
	if st.TopWhy == "" {
		st.TopWhy = why
	}
}

// MarkTopAt is MarkTop with blame: it additionally records the CFG node
// whose operation triggered the give-up (first blame wins, like TopWhy).
func (st *State) MarkTopAt(n *cfg.Node, why string) {
	prev := st.TopWhy
	st.MarkTop(why)
	if prev == "" && n != nil {
		st.TopNode = n.ID
	}
}

// namespaceVars returns all constraint-graph variables in set id's
// namespace.
func (st *State) namespaceVars(id int) []string {
	prefix := pvPrefix(id)
	var out []string
	for _, v := range st.G.Vars() {
		if strings.HasPrefix(v, prefix) {
			out = append(out, v)
		}
	}
	return out
}

// CopyNamespace duplicates every constraint involving set from's variables
// into set to's namespace, preserving relations with globals and other sets.
// Used when a process set splits: the new subset inherits the old state
// (the paper's splitPSet).
func (st *State) CopyNamespace(from, to int) {
	fromPrefix, toPrefix := pvPrefix(from), pvPrefix(to)
	rename := func(v string) string {
		if strings.HasPrefix(v, fromPrefix) {
			return toPrefix + strings.TrimPrefix(v, fromPrefix)
		}
		return v
	}
	type bound struct {
		x, y string
		c    int64
	}
	var toAdd []bound
	st.G.ForEachBound(func(x, y string, c int64) {
		nx, ny := rename(x), rename(y)
		if nx != x || ny != y {
			toAdd = append(toAdd, bound{nx, ny, c})
		}
	})
	for _, b := range toAdd {
		st.G.AddLE(b.x, b.y, b.c)
	}
}

// DropNamespace removes all of set id's variables from the graph.
func (st *State) DropNamespace(id int) {
	for _, v := range st.namespaceVars(id) {
		st.G.Drop(v)
	}
}

// SplitSet splits ps into two subsets with the given ranges; ps keeps first,
// and a fresh set receives second (with a copied namespace). Returns the new
// set. Both remain at ps's node with ps's blocked flag.
func (st *State) SplitSet(ps *ProcSet, first, second procset.Set) *ProcSet {
	st.dirtyKeys()
	nid := st.FreshID()
	st.CopyNamespace(ps.ID, nid)
	ps.Range = first
	np := &ProcSet{ID: nid, Node: ps.Node, Range: second, Blocked: ps.Blocked}
	st.Sets = append(st.Sets, np)
	return np
}

// RemoveSet deletes the set with the given id (discovered empty), forgetting
// its namespace.
func (st *State) RemoveSet(id int) {
	st.dirtyKeys()
	st.invalidateNamespace(id)
	st.DropNamespace(id)
	for i, p := range st.Sets {
		if p.ID == id {
			st.Sets = append(st.Sets[:i], st.Sets[i+1:]...)
			return
		}
	}
}

// MergeSets merges set b into set a (both must be at the same CFG node with
// adjacent ranges, checked by the caller). The merged dataflow state is the
// join of "a's view" and "b's view renamed to a" — each variable keeps only
// facts valid for both subsets.
func (st *State) MergeSets(a, b *ProcSet, merged procset.Set) {
	st.dirtyKeys()
	// Ranges and matches may reference per-set variables whose facts the
	// merge will weaken or drop (e.g. the root's loop counter i with i = np
	// at the loop exit); rewrite them to equality witnesses first.
	st.invalidateNamespace(a.ID)
	st.invalidateNamespace(b.ID)
	// View 1: project away b.
	g1 := st.G.Clone()
	for _, v := range namespaceVarsOf(g1, b.ID) {
		g1.Forget(v)
	}
	// View 2: project away a, rename b -> a.
	g2 := st.G.Clone()
	for _, v := range namespaceVarsOf(g2, a.ID) {
		g2.Forget(v)
	}
	bPrefix, aPrefix := pvPrefix(b.ID), pvPrefix(a.ID)
	for _, v := range namespaceVarsOf(g2, b.ID) {
		target := aPrefix + strings.TrimPrefix(v, bPrefix)
		if g2.HasVar(target) {
			// Target was just forgotten (unconstrained): copy b's bounds
			// onto it and drop the source.
			copyBounds(g2, v, target)
			g2.Drop(v)
		} else {
			g2.Rename(v, target)
		}
	}
	old := st.G
	st.G = cg.Join(g1, g2)
	g1.Release()
	g2.Release()
	old.Release()
	a.Range = merged
	// Range atoms referencing b's variables must be rewritten before b's
	// namespace disappears; Enrich already ran during merge checks.
	st.removeSetKeepingRanges(b.ID)
}

func (st *State) removeSetKeepingRanges(id int) {
	st.dirtyKeys()
	for i, p := range st.Sets {
		if p.ID == id {
			st.Sets = append(st.Sets[:i], st.Sets[i+1:]...)
			break
		}
	}
	st.DropNamespace(id)
}

func namespaceVarsOf(g *cg.Graph, id int) []string {
	prefix := pvPrefix(id)
	var out []string
	for _, v := range g.Vars() {
		if strings.HasPrefix(v, prefix) {
			out = append(out, v)
		}
	}
	return out
}

// copyBounds copies all constraints of variable from onto variable to.
func copyBounds(g *cg.Graph, from, to string) {
	type bound struct {
		x, y string
		c    int64
	}
	var toAdd []bound
	g.ForEachBound(func(x, y string, c int64) {
		switch {
		case x == from && y != to:
			toAdd = append(toAdd, bound{to, y, c})
		case y == from && x != to:
			toAdd = append(toAdd, bound{x, to, c})
		}
	})
	for _, b := range toAdd {
		g.AddLE(b.x, b.y, b.c)
	}
}

// ---------------------------------------------------------------------------
// Canonical ordering, shape keys, alignment

// anonRangeKey renders a range with set prefixes erased, for stable
// tie-breaking independent of set IDs.
func anonRangeKey(s procset.Set) string { return anonSetIDs(s.String()) }

// anonSetIDs replaces every "ps<digits>." in r with "ps.", scanning left to
// right exactly as a regexp replace of `ps\d+\.` would. A string without
// "ps" is returned as is.
func anonSetIDs(r string) string {
	if !strings.Contains(r, "ps") {
		return r
	}
	b := make([]byte, 0, len(r))
	for i := 0; i < len(r); {
		if r[i] == 'p' && i+1 < len(r) && r[i+1] == 's' {
			j := i + 2
			for j < len(r) && r[j] >= '0' && r[j] <= '9' {
				j++
			}
			if j > i+2 && j < len(r) && r[j] == '.' {
				b = append(b, "ps."...)
				i = j + 1
				continue
			}
		}
		b = append(b, r[i])
		i++
	}
	return string(b)
}

// sortCanonical orders sets by (CFG node, blocked, anonymized range).
func (st *State) sortCanonical() {
	// Fast path: strictly increasing (node ID, blocked) pairs determine
	// the order on their own — no ties, nothing to sort. This is the
	// overwhelmingly common case (sortCanonical runs on every step and
	// every key-cache miss), and it skips both the sort machinery and the
	// anonymized range keys below.
	inOrder := true
	for i := 1; i < len(st.Sets); i++ {
		a, b := st.Sets[i-1], st.Sets[i]
		if a.Node.ID > b.Node.ID || a.Node.ID == b.Node.ID && (a.Blocked || !b.Blocked) {
			inOrder = false
			break
		}
	}
	if inOrder {
		return
	}
	// Ties need the anonymized range key, which renders the range and
	// scans it: render each at most once, and move it with its set. The
	// sort is an insertion sort, stable as sort.Stable is, so the order is
	// the same. The keys of up to 8 sets stay on the stack, which covers
	// every tie on the benchmark workloads (2 to 8 sets, DESIGN.md §21);
	// a state with more sets (Options.MaxSets allows 24) allocates them.
	var buf [8]string
	keys := buf[:]
	if len(st.Sets) > len(buf) {
		keys = make([]string, len(st.Sets))
	}
	key := func(i int) string {
		if keys[i] == "" { // a rendered range is never empty
			keys[i] = anonRangeKey(st.Sets[i].Range)
		}
		return keys[i]
	}
	less := func(i, j int) bool {
		a, b := st.Sets[i], st.Sets[j]
		if a.Node.ID != b.Node.ID {
			return a.Node.ID < b.Node.ID
		}
		if a.Blocked != b.Blocked {
			return !a.Blocked
		}
		return key(i) < key(j)
	}
	for i := 1; i < len(st.Sets); i++ {
		for j := i; j > 0 && less(j, j-1); j-- {
			st.Sets[j], st.Sets[j-1] = st.Sets[j-1], st.Sets[j]
			keys[j], keys[j-1] = keys[j-1], keys[j]
		}
	}
}

// ShapeKey identifies the pCFG node this configuration occupies: the sorted
// multiset of (CFG node, blocked) pairs.
func (st *State) ShapeKey() string {
	if st.Top {
		return "TOP"
	}
	if st.shapeStamp.valid(st.G) {
		st.G.StatsHandle().AddKeyCacheHits(1)
		return st.shapeKey
	}
	st.G.StatsHandle().AddKeyCacheMisses(1)
	st.sortCanonical()
	st.sortPending()
	var buf [64]byte
	b := buf[:0]
	for i, p := range st.Sets {
		if i > 0 {
			b = append(b, '|')
		}
		b = append(b, 'n')
		b = strconv.AppendInt(b, int64(p.Node.ID), 10)
		if p.Blocked {
			b = append(b, '*')
		}
	}
	for _, p := range st.Pending {
		b = append(b, "|p"...)
		b = strconv.AppendInt(b, int64(p.Node), 10)
		b = append(b, p.Shape.String()...)
	}
	st.shapeKey = string(b)
	st.shapeStamp.stamp(st.G)
	return st.shapeKey
}

// Tags of the binary identity's variable-shape fields. A non-⊤ identity
// starts with a zero byte, a ⊤ one with idTop.
const (
	idTop byte = iota + 1
	idSetInvalid
	idSetPoint
	idSetRange
	idExprVarPlus
	idExprPoly
)

// identity is the configuration's binary identity, the engine's fixpoint
// and duplicate-delivery key: two states have equal identities exactly when
// their FullKey strings are equal. It encodes the same content FullKey
// renders — every atom of every range, node IDs and Blocked/Approx flags,
// the constraint graph through cg.Graph.AppendCanonical, and the match and
// pending records as far as Set.String shows them — with fixed tags and
// length prefixes instead of fmt, so the encoding is canonical and exact
// (no hash, no collision fallback). The result aliases a buffer the state
// reuses: it stays valid until the next identity call on the same state.
func (st *State) identity() []byte {
	b, fresh := st.identityTo(st.id)
	st.id = b
	if fresh {
		st.idStamp.stamp(st.G)
	}
	return b
}

// identityTo returns st's identity without caching a new one: the cached
// identity when it is still valid, otherwise one encoded into buf[:0]
// (fresh). It counts key-cache hits and misses as identity does.
func (st *State) identityTo(buf []byte) (b []byte, fresh bool) {
	if st.Top {
		return append(append(buf[:0], idTop), st.TopWhy...), false
	}
	if st.idStamp.valid(st.G) {
		st.G.StatsHandle().AddKeyCacheHits(1)
		return st.id, false
	}
	st.G.StatsHandle().AddKeyCacheMisses(1)
	st.sortCanonical()
	b = binary.AppendUvarint(append(buf[:0], 0), uint64(len(st.Sets)))
	for _, p := range st.Sets {
		b = appendBoundAll(b, p.Range.LB)
		b = appendBoundAll(b, p.Range.UB)
		b = binary.AppendUvarint(b, uint64(p.Node.ID))
		var flags byte
		if p.Blocked {
			flags |= 1
		}
		if p.Approx {
			flags |= 2
		}
		b = append(b, flags)
	}
	b = st.G.AppendCanonical(b)
	b = binary.AppendUvarint(b, uint64(len(st.Matches)))
	for _, m := range st.Matches {
		b = binary.AppendUvarint(b, uint64(m.SendNode))
		b = binary.AppendUvarint(b, uint64(m.RecvNode))
		b = appendSetShown(b, m.Sender)
		b = appendSetShown(b, m.Receiver)
	}
	st.sortPending()
	b = binary.AppendUvarint(b, uint64(len(st.Pending)))
	for _, p := range st.Pending {
		b = binary.AppendUvarint(b, uint64(p.Node))
		b = append(b, byte(p.Shape))
		b = appendSetShown(b, p.Senders)
		if p.Shape == PendShift {
			b = appendExpr(b, p.Offset)
		} else {
			b = appendSetShown(b, p.Dests)
		}
		if p.ValOK {
			b = appendExpr(append(b, 1), p.Val)
		} else {
			b = append(b, 0)
		}
	}
	return b, true
}

// appendBoundAll encodes every atom of b, as Bound.StringAll renders them.
func appendBoundAll(b []byte, bd procset.Bound) []byte {
	atoms := bd.Atoms()
	b = binary.AppendUvarint(b, uint64(len(atoms)))
	for _, a := range atoms {
		b = appendAtom(b, a)
	}
	return b
}

// appendSetShown encodes what Set.String renders: the primary atom of each
// bound, and whether the set prints as the point form [x] or as [x..y].
func appendSetShown(b []byte, s procset.Set) []byte {
	lb, ub := s.LB.Atoms(), s.UB.Atoms()
	switch {
	case !s.IsValid():
		return append(b, idSetInvalid)
	case len(lb) == 1 && len(ub) == 1 && lb[0].Equal(ub[0]):
		return appendAtom(append(b, idSetPoint), lb[0])
	}
	b = appendAtom(append(b, idSetRange), s.LB.Primary())
	return appendAtom(b, s.UB.Primary())
}

// appendAtom encodes a bound atom as appendExpr encodes its expression: a
// var+c pair writes its variable's name and offset directly.
func appendAtom(b []byte, a procset.Atom) []byte {
	if !a.IsVarPlus() {
		return appendExpr(b, a.Expr())
	}
	b = append(b, idExprVarPlus)
	if a.V == cg.AtomZero {
		b = appendString(b, "")
	} else {
		b = appendString(b, a.V.String())
	}
	return binary.AppendVarint(b, a.C)
}

// appendExpr encodes a polynomial's normal form. The var+c shape (a
// constant when the variable is "") is read without allocating; any other
// polynomial walks its terms.
func appendExpr(b []byte, e sym.Expr) []byte {
	if v, c, ok := e.AsVarPlusConst(); ok {
		b = appendString(append(b, idExprVarPlus), v)
		return binary.AppendVarint(b, c)
	}
	terms := e.Terms()
	b = binary.AppendUvarint(append(b, idExprPoly), uint64(len(terms)))
	for _, t := range terms {
		b = binary.AppendVarint(b, t.Coef)
		b = binary.AppendUvarint(b, uint64(len(t.Vars)))
		for _, v := range t.Vars {
			b = appendString(b, v)
		}
	}
	return b
}

// appendString appends s with a length prefix.
func appendString(b []byte, s string) []byte {
	return append(binary.AppendUvarint(b, uint64(len(s))), s...)
}

// FullKey is the readable rendering of the configuration's identity:
// ranges, dataflow state and matches. The engine compares identity()
// instead; FullKey orders the reported finals and serves tests and dumps,
// so it is not cached.
func (st *State) FullKey() string {
	if st.Top {
		return "TOP:" + st.TopWhy
	}
	st.sortCanonical()
	var b strings.Builder
	for _, p := range st.Sets {
		fmt.Fprintf(&b, "%s@n%d", p.Range.StringAll(), p.Node.ID)
		if p.Blocked {
			b.WriteString("*")
		}
		if p.Approx {
			b.WriteString("~")
		}
		b.WriteString("|")
	}
	b.WriteString("#")
	b.WriteString(st.G.String())
	b.WriteString("#")
	for _, m := range st.Matches {
		b.WriteString(m.String())
		b.WriteString(";")
	}
	st.sortPending()
	for _, p := range st.Pending {
		b.WriteString(p.String())
		if p.ValOK {
			fmt.Fprintf(&b, "=%s", p.Val)
		}
		b.WriteString(";")
	}
	return b.String()
}

// AlignTo renames st's set IDs positionally onto ref's (both must share the
// same ShapeKey and be canonically sorted). Ranges, matches and the
// constraint graph are rewritten consistently.
func (st *State) AlignTo(ref *State) {
	st.sortCanonical()
	ref.sortCanonical()
	if len(st.Sets) != len(ref.Sets) {
		return
	}
	mapping := map[int]int{}
	identical := true
	for i := range st.Sets {
		mapping[st.Sets[i].ID] = ref.Sets[i].ID
		if st.Sets[i].ID != ref.Sets[i].ID {
			identical = false
		}
	}
	if identical {
		return
	}
	st.renameSets(mapping)
}

// renameSets applies a simultaneous set-ID renaming.
func (st *State) renameSets(mapping map[int]int) {
	st.dirtyKeys()
	// Two-phase variable rename through temporaries to avoid collisions.
	var renames [][2]string
	for from, to := range mapping {
		if from == to {
			continue
		}
		fromPrefix, toPrefix := pvPrefix(from), pvPrefix(to)
		for _, v := range st.namespaceVars(from) {
			renames = append(renames, [2]string{v, toPrefix + strings.TrimPrefix(v, fromPrefix)})
		}
	}
	sort.Slice(renames, func(i, j int) bool { return renames[i][0] < renames[j][0] })
	for i, r := range renames {
		st.G.Rename(r[0], fmt.Sprintf("$tmp%d", i))
	}
	for i, r := range renames {
		st.G.Rename(fmt.Sprintf("$tmp%d", i), r[1])
	}
	// Substitution environment for range atoms.
	env := map[string]sym.Expr{}
	for _, r := range renames {
		env[r[0]] = sym.Var(r[1])
	}
	for _, p := range st.Sets {
		if to, ok := mapping[p.ID]; ok {
			p.ID = to
		}
		p.Range = p.Range.SubstAll(env)
	}
	st.ownMatches()
	for _, m := range st.Matches {
		m.Sender = m.Sender.SubstAll(env)
		m.Receiver = m.Receiver.SubstAll(env)
	}
	if st.nextID <= maxID(st.Sets) {
		st.nextID = maxID(st.Sets) + 1
	}
}

func maxID(sets []*ProcSet) int {
	m := 0
	for _, p := range sets {
		if p.ID > m {
			m = p.ID
		}
	}
	return m
}

// SubstEverywhere rewrites a variable in all ranges and match records (used
// by invertible assignments and widening-parameter shifts).
func (st *State) SubstEverywhere(name string, repl sym.Expr) {
	st.dirtyKeys()
	for _, p := range st.Sets {
		if p.Range.Uses(name) {
			p.Range = p.Range.Subst(name, repl)
		}
	}
	for i := 0; i < len(st.Matches); i++ {
		m := st.Matches[i]
		if !m.Sender.Uses(name) && !m.Receiver.Uses(name) {
			continue
		}
		st.ownMatches()
		m = st.Matches[i]
		if m.Sender.Uses(name) {
			m.Sender = m.Sender.Subst(name, repl)
		}
		if m.Receiver.Uses(name) {
			m.Receiver = m.Receiver.Subst(name, repl)
		}
	}
	for i := 0; i < len(st.Pending); i++ {
		p := st.Pending[i]
		uses := p.Senders.Uses(name) ||
			(p.Shape == PendFan && p.Dests.Uses(name)) ||
			p.Offset.Uses(name) ||
			(p.ValOK && p.Val.Uses(name))
		if !uses {
			continue
		}
		st.ownPending()
		p = st.Pending[i]
		if p.Senders.Uses(name) {
			p.Senders = p.Senders.Subst(name, repl)
		}
		if p.Shape == PendFan && p.Dests.Uses(name) {
			p.Dests = p.Dests.Subst(name, repl)
		}
		if p.Offset.Uses(name) {
			p.Offset = sym.Subst(p.Offset, name, repl)
		}
		if p.ValOK && p.Val.Uses(name) {
			p.Val = sym.Subst(p.Val, name, repl)
		}
	}
}

// EnrichEverywhere expands all range bounds with constraint-graph equality
// witnesses (done before widening so the atom intersection can succeed).
// Enrichment only adds atoms, so a bound whose atom count is unchanged is
// unchanged: a state that gains no atom keeps its shared match and pending
// records and its cached keys.
func (st *State) EnrichEverywhere() {
	ctx := st.Ctx()
	changed := false
	for _, p := range st.Sets {
		if r := p.Range.Enrich(ctx); grew(p.Range, r) {
			p.Range = r
			changed = true
		}
	}
	for i, m := range st.Matches {
		s, r := m.Sender.Enrich(ctx), m.Receiver.Enrich(ctx)
		if !grew(m.Sender, s) && !grew(m.Receiver, r) {
			continue
		}
		st.ownMatches()
		m = st.Matches[i]
		m.Sender, m.Receiver = s, r
		changed = true
	}
	for i, p := range st.Pending {
		s, d := p.Senders.Enrich(ctx), p.Dests
		if p.Shape == PendFan {
			d = d.Enrich(ctx)
		}
		if !grew(p.Senders, s) && !grew(p.Dests, d) {
			continue
		}
		st.ownPending()
		p = st.Pending[i]
		p.Senders, p.Dests = s, d
		changed = true
	}
	if changed {
		st.dirtyKeys()
	}
}

// grew reports whether enrichment added an atom to either bound of s.
func grew(s, enriched procset.Set) bool {
	return len(enriched.LB.Atoms()) != len(s.LB.Atoms()) || len(enriched.UB.Atoms()) != len(s.UB.Atoms())
}

// AddMatch records a send-receive match, folding it into an existing record
// for the same CFG node pair when the ranges union cleanly (in either
// direction — forward pipelines accumulate upward, backward ones downward).
func (st *State) AddMatch(sendNode, recvNode int, sender, receiver procset.Set) {
	st.dirtyKeys()
	st.ownMatches()
	ctx := st.Ctx()
	sender = sender.Enrich(ctx)
	receiver = receiver.Enrich(ctx)
	for _, m := range st.Matches {
		if m.SendNode != sendNode || m.RecvNode != recvNode {
			continue
		}
		mS := m.Sender.Enrich(ctx)
		mR := m.Receiver.Enrich(ctx)
		// A contradictory witness class proves anything (both fold checks
		// below pick atoms existentially), so folding through one can erase
		// a genuinely different communication — the differential fuzzer
		// caught a bounded gather losing its last sender this way after a
		// graph widen staled a witness. Keep the record as an independent
		// append instead; the combine path unions records soundly.
		if ctx.ContradictorySet(mS) || ctx.ContradictorySet(mR) ||
			ctx.ContradictorySet(sender) || ctx.ContradictorySet(receiver) {
			continue
		}
		// Same-range re-match (loop fixpoint): keep as is.
		if mS.SameRange(ctx, sender) == tri.True && mR.SameRange(ctx, receiver) == tri.True {
			return
		}
		su, ok1 := mS.UnionAdjacent(ctx, sender)
		ru, ok2 := mR.UnionAdjacent(ctx, receiver)
		if ok1 && ok2 {
			m.Sender, m.Receiver = su, ru
			return
		}
		su, ok1 = sender.UnionAdjacent(ctx, mS)
		ru, ok2 = receiver.UnionAdjacent(ctx, mR)
		if ok1 && ok2 {
			m.Sender, m.Receiver = su, ru
			return
		}
	}
	st.Matches = append(st.Matches, &Match{SendNode: sendNode, RecvNode: recvNode, Sender: sender, Receiver: receiver})
	sort.SliceStable(st.Matches, func(i, j int) bool {
		if st.Matches[i].SendNode != st.Matches[j].SendNode {
			return st.Matches[i].SendNode < st.Matches[j].SendNode
		}
		return st.Matches[i].RecvNode < st.Matches[j].RecvNode
	})
}

func (st *State) String() string {
	if st.Top {
		return "⊤ (" + st.TopWhy + ")"
	}
	var parts []string
	for _, p := range st.Sets {
		parts = append(parts, p.String())
	}
	return "{" + strings.Join(parts, ", ") + "}"
}
