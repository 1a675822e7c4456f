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
	"bytes"
	"encoding/binary"
	"fmt"
	"slices"
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
// name on process set id, e.g. PV(0, "x") == "ps0.x". An interned name is
// returned without allocating.
func PV(id int, name string) string { return pvAtom(id, name).String() }

// pvAtom returns the atom of PV(id, name), composed on the stack.
func pvAtom(id int, name string) cg.Atom {
	var buf [64]byte
	b := append(strconv.AppendInt(append(buf[:0], "ps"...), int64(id), 10), '.')
	return atomOf(append(b, name...))
}

// atomOf returns the atom of the name composed in b: a lookup that
// allocates nothing, and an Intern only on the name's first sight.
func atomOf(b []byte) cg.Atom {
	if a, ok := cg.LookupBytes(b); ok {
		return a
	}
	return cg.Intern(string(b))
}

// splitPV parses a per-set variable name ps<id>.<name> in place. No MPL
// identifier contains '.', so no other variable parses (DESIGN.md §22).
func splitPV(v string) (id int, name string, ok bool) {
	i := 2
	for ; i < len(v) && v[i] >= '0' && v[i] <= '9'; i++ {
		id = id*10 + int(v[i]-'0')
	}
	if i == 2 || i == len(v) || v[:2] != "ps" || v[i] != '.' || v[2] == '0' && i > 3 {
		return 0, "", false
	}
	return id, v[i+1:], true
}

// isPV reports whether v is a per-set variable name.
func isPV(v string) bool {
	_, _, ok := splitPV(v)
	return ok
}

// inNamespace reports whether a is one of set id's variables.
func inNamespace(a cg.Atom, id int) bool {
	n, _, ok := splitPV(a.String())
	return ok && n == id
}

// renamePV returns the atom of per-set variable v moved to set id.
func renamePV(v cg.Atom, id int) cg.Atom {
	_, name, _ := splitPV(v.String())
	return pvAtom(id, name)
}

// appendNamespace appends set id's variables in g to dst in name order,
// the order of the sorted name scan it replaced: drops fill each hole with
// the last slot, so the order of a namespace's drops decides the slot
// layout left behind, and with it the orientation of equalities in keys.
func appendNamespace(dst []cg.Atom, g *cg.Graph, id int) []cg.Atom {
	var all [32]cg.Atom // graphs hold at most 26 variables (DESIGN.md §22)
	start := len(dst)
	for _, a := range g.AppendAtoms(all[:0]) {
		if inNamespace(a, id) {
			dst = insertByName(dst, start, a)
		}
	}
	return dst
}

// insertByName appends a to dst, keeping dst[start:] sorted by name.
func insertByName(dst []cg.Atom, start int, a cg.Atom) []cg.Atom {
	dst = append(dst, a)
	j := len(dst) - 1
	for ; j > start && dst[j-1].String() > a.String(); j-- {
		dst[j] = dst[j-1]
	}
	dst[j] = a
	return dst
}

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

// allProcs is [0..np-1], built once: bounds are immutable.
var allProcs = procset.Range(nil, sym.Zero, sym.VarPlus("np", -1))

// AllProcs returns the full range [0..np-1].
func AllProcs() procset.Set { return allProcs }

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
}

// SetAssignedVars installs the set of program variables that are written
// anywhere in the program (collected from the CFG by the engine).
func (st *State) SetAssignedVars(m map[string]bool) { st.assigned = m }

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
// included, in one block) if it is still shared with a clone. Must be
// called before any write to st.Matches or a *Match reached through it.
func (st *State) ownMatches() {
	if !st.sharedMatches {
		return
	}
	out := matchBlock(len(st.Matches))
	for i, m := range st.Matches {
		*out[i] = *m
	}
	st.Matches = out
	st.sharedMatches = false
}

// matchBlock returns a list of n zero match records that live in one
// block, two allocations whatever n is (none for n = 0, which returns
// nil). A record of the block is written through its list like any other.
func matchBlock(n int) []*Match {
	if n == 0 {
		return nil
	}
	blk := make([]Match, n)
	out := make([]*Match, n)
	for i := range blk {
		out[i] = &blk[i]
	}
	return out
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

// CopyNamespace duplicates every constraint involving set from's variables
// into set to's namespace, preserving relations with globals and other sets.
// Used when a process set splits: the new subset inherits the old state
// (the paper's splitPSet).
func (st *State) CopyNamespace(from, to int) {
	var buf [32]cg.Atom
	ren := st.G.AppendAtoms(buf[:0])
	for i, a := range ren {
		if inNamespace(a, from) {
			ren[i] = renamePV(a, to)
		}
	}
	copyRenamed(st.G, ren)
}

// copyRenamed adds, for every bound x - y <= c of g that ren (slot ->
// atom) renames, the renamed bound, unless it would relate a variable to
// itself. The bounds are collected first, in slot order, into a stack
// buffer: a copy on the benchmark workloads collects at most 84 (DESIGN.md
// §22), and a larger one spills to the heap. New variables take slots in
// the order they first appear.
func copyRenamed(g *cg.Graph, ren []cg.Atom) {
	type bound struct {
		x, y cg.Atom
		c    int64
	}
	var buf [128]bound
	add := buf[:0]
	g.ForEachBoundA(func(i, j int32, c int64) {
		if x, y := ren[i], ren[j]; (x != g.AtomAt(i) || y != g.AtomAt(j)) && x != y {
			add = append(add, bound{x, y, c})
		}
	})
	for _, b := range add {
		g.AddLEA(b.x, b.y, b.c)
	}
}

// DropNamespace removes all of set id's variables from the graph.
func (st *State) DropNamespace(id int) {
	var buf [32]cg.Atom
	for _, v := range appendNamespace(buf[:0], st.G, id) {
		st.G.DropA(v)
	}
}

// SplitSet splits ps into two subsets with the given ranges; ps keeps first,
// and a fresh set receives second (with a copied namespace). Returns the new
// set. Both remain at ps's node with ps's blocked flag.
func (st *State) SplitSet(ps *ProcSet, first, second procset.Set) *ProcSet {
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
	// Ranges and matches may reference per-set variables whose facts the
	// merge will weaken or drop (e.g. the root's loop counter i with i = np
	// at the loop exit); rewrite them to equality witnesses first.
	st.invalidateNamespace(a.ID)
	st.invalidateNamespace(b.ID)
	var bufA, bufB [32]cg.Atom
	nsA := appendNamespace(bufA[:0], st.G, a.ID)
	nsB := appendNamespace(bufB[:0], st.G, b.ID)
	// View 1: project away b.
	g1 := st.G.Clone()
	for _, v := range nsB {
		g1.ForgetA(v)
	}
	// View 2: project away a, rename b -> a.
	g2 := st.G.Clone()
	for _, v := range nsA {
		g2.ForgetA(v)
	}
	for _, v := range nsB {
		if target := renamePV(v, a.ID); g2.HasVarA(target) {
			// Target was just forgotten (unconstrained): copy b's bounds
			// onto it and drop the source.
			copyBounds(g2, v, target)
			g2.DropA(v)
		} else {
			g2.RenameA(v, target)
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
	for i, p := range st.Sets {
		if p.ID == id {
			st.Sets = append(st.Sets[:i], st.Sets[i+1:]...)
			break
		}
	}
	st.DropNamespace(id)
}

// copyBounds copies all constraints of variable from onto variable to.
func copyBounds(g *cg.Graph, from, to cg.Atom) {
	var buf [32]cg.Atom
	ren := g.AppendAtoms(buf[:0])
	ren[slices.Index(ren, from)] = to
	copyRenamed(g, ren)
}

// ---------------------------------------------------------------------------
// Canonical ordering, shape keys, alignment

// appendAnonRange appends s as Set.String renders it with every set
// prefix ps<digits>. erased to "ps.", so ranges compare independently of
// set IDs.
func appendAnonRange(dst []byte, s procset.Set) []byte {
	start := len(dst)
	dst = s.AppendString(dst)
	return dst[:start+len(eraseSetIDs(dst[start:]))]
}

// eraseSetIDs replaces every "ps<digits>." in b with "ps." in place,
// scanning left to right exactly as a regexp replace of `ps\d+\.` would,
// and returns the shortened b.
func eraseSetIDs(b []byte) []byte {
	w := 0
	for r := 0; r < len(b); r++ {
		if b[r] == 'p' && r+1 < len(b) && b[r+1] == 's' {
			j := r + 2
			for j < len(b) && b[j] >= '0' && b[j] <= '9' {
				j++
			}
			if j > r+2 && j < len(b) && b[j] == '.' {
				w += copy(b[w:], "ps.")
				r = j
				continue
			}
		}
		b[w] = b[r]
		w++
	}
	return b[:w]
}

// sortCanonical orders sets by (CFG node, blocked, anonymized range).
func (st *State) sortCanonical() {
	// Fast path: strictly increasing (node ID, blocked) pairs determine
	// the order on their own — no ties, nothing to sort. This is the
	// overwhelmingly common case (sortCanonical runs on every step, every
	// shape-key render and every identity encoding), and it skips both
	// the sort machinery and the anonymized range keys below.
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
	// Ties need the anonymized range key: render each at most once, into
	// one stack buffer, and move it with its set. The sort is an insertion
	// sort, stable as sort.Stable is. Ties on the benchmark workloads have
	// 2 to 8 sets and at most 68 bytes of keys (DESIGN.md §21, §22); a
	// larger tie allocates its key offsets or its key bytes.
	var buf [8][2]int // key i is arena[keys[i][0]:keys[i][1]]
	var text [256]byte
	keys, arena := buf[:], text[:0]
	if len(st.Sets) > len(buf) {
		keys = make([][2]int, len(st.Sets))
	}
	key := func(i int) []byte {
		if keys[i][1] == 0 { // a rendered range is never empty
			start := len(arena)
			arena = appendAnonRange(arena, st.Sets[i].Range)
			keys[i] = [2]int{start, len(arena)}
		}
		return arena[keys[i][0]:keys[i][1]]
	}
	less := func(i, j int) bool {
		a, b := st.Sets[i], st.Sets[j]
		if a.Node.ID != b.Node.ID {
			return a.Node.ID < b.Node.ID
		}
		if a.Blocked != b.Blocked {
			return !a.Blocked
		}
		return bytes.Compare(key(i), key(j)) < 0
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
	var buf [64]byte
	return string(st.appendShapeKey(buf[:0]))
}

// appendShapeKey renders st's shape key into b, after putting the sets and
// pending records in canonical order.
func (st *State) appendShapeKey(b []byte) []byte {
	st.sortCanonical()
	st.sortPending()
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
	return b
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

// appendIdentity appends the configuration's binary identity to buf[:0]:
// the engine's fixpoint and duplicate-delivery key. Two states have equal
// identities exactly when their FullKey strings are equal. It encodes the
// same content FullKey renders — every atom of every range, node IDs and
// Blocked/Approx flags, the constraint graph through
// cg.Graph.AppendCanonical, and the match and pending records as far as
// Set.String shows them — with fixed tags and length prefixes instead of
// fmt, so the encoding is canonical and exact (no hash, no collision
// fallback). Like FullKey it first puts the sets and pending records in
// canonical order. The engine keeps each table entry's identity in its
// seen log (tableEntry.cur), so nothing is cached on the state.
func (st *State) appendIdentity(buf []byte) []byte {
	if st.Top {
		return append(append(buf[:0], idTop), st.TopWhy...)
	}
	st.sortCanonical()
	b := binary.AppendUvarint(append(buf[:0], 0), uint64(len(st.Sets)))
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
	return b
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
// ranges, dataflow state and matches. The engine compares binary
// identities (appendIdentity) instead; FullKey orders the reported finals
// and serves tests and dumps.
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
	for i, p := range st.Sets {
		if p.ID != ref.Sets[i].ID {
			st.renameSets(ref.Sets)
			return
		}
	}
}

// renameSets gives st's sets the IDs of ref's, position by position, as
// one simultaneous renaming of namespaces, ranges and matches.
func (st *State) renameSets(ref []*ProcSet) {
	var fromBuf, toBuf [32]cg.Atom
	from, to := fromBuf[:0], toBuf[:0]
	for i, p := range st.Sets {
		if id := ref[i].ID; p.ID != id {
			start := len(from)
			from = appendNamespace(from, st.G, p.ID)
			for _, v := range from[start:] {
				to = append(to, renamePV(v, id))
			}
		}
	}
	st.G.Relabel(from, to)
	for i, p := range st.Sets {
		p.ID = ref[i].ID
	}
	st.renameInRanges(from, to)
	if st.nextID <= maxID(st.Sets) {
		st.nextID = maxID(st.Sets) + 1
	}
}

// renameInRanges renames variables from[k] to to[k] at once in the set
// ranges and the match records, copying a shared match record only when
// it changes.
func (st *State) renameInRanges(from, to []cg.Atom) {
	for _, p := range st.Sets {
		p.Range, _ = p.Range.Rename(st.memo, from, to)
	}
	for i, m := range st.Matches {
		s, ok1 := m.Sender.Rename(st.memo, from, to)
		r, ok2 := m.Receiver.Rename(st.memo, from, to)
		if ok1 || ok2 {
			st.ownMatches()
			st.Matches[i].Sender, st.Matches[i].Receiver = s, r
		}
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
	for _, p := range st.Sets {
		if p.Range.Uses(name) {
			p.Range = p.Range.Subst(st.memo, name, repl)
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
			m.Sender = m.Sender.Subst(st.memo, name, repl)
		}
		if m.Receiver.Uses(name) {
			m.Receiver = m.Receiver.Subst(st.memo, name, repl)
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
			p.Senders = p.Senders.Subst(st.memo, name, repl)
		}
		if p.Shape == PendFan && p.Dests.Uses(name) {
			p.Dests = p.Dests.Subst(st.memo, name, repl)
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
// records.
func (st *State) EnrichEverywhere() {
	ctx := st.Ctx()
	for _, p := range st.Sets {
		if r := p.Range.Enrich(ctx); grew(p.Range, r) {
			p.Range = r
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
