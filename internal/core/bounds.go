package core

// Rank-bounds observations: while the engine runs, every process set that
// reaches a communication operation can have its partner expression checked
// against the valid rank interval [0, np-1] using the Section VII
// constraint-graph client. The observations accumulate on the Result and
// feed the lint rank-bounds pass, which flags the classic unguarded
// `send x -> id + 1` boundary bug with a proof witness instead of waiting
// for the match search to fail.

import (
	"encoding/binary"
	"fmt"
	"sort"
	"strings"

	"repro/internal/ast"
	"repro/internal/cg"
	"repro/internal/procset"
	"repro/internal/sym"
	"repro/internal/tri"
)

// BoundsStatus classifies one rank-bounds observation.
type BoundsStatus int

// Bounds statuses.
const (
	// BoundsUnknown: the target is affine in id but neither containment in
	// [0, np-1] nor a violation is provable from the dataflow state.
	BoundsUnknown BoundsStatus = iota
	// BoundsProven: every process in the range targets a rank in [0, np-1].
	BoundsProven
	// BoundsViolated: some process in the range provably targets a rank
	// outside [0, np-1].
	BoundsViolated
	// BoundsNonAffine: the target expression is outside the affine fragment
	// (division, modulus, products of variables); the difference-constraint
	// client cannot reason about it directly.
	BoundsNonAffine
)

func (s BoundsStatus) String() string {
	switch s {
	case BoundsUnknown:
		return "unknown"
	case BoundsProven:
		return "proven"
	case BoundsViolated:
		return "violated"
	case BoundsNonAffine:
		return "non-affine"
	}
	return fmt.Sprintf("status(%d)", int(s))
}

// CommBoundsObs is one rank-bounds observation: a process set at a
// communication node, the direction checked (send destination or receive
// source), and the verdict with a human-readable witness.
type CommBoundsObs struct {
	Node   int    // CFG node of the communication operation
	Dir    string // "dest" (send/sendrecv target) or "src" (recv/sendrecv source)
	Range  string // the process range that was positioned at the node
	Status BoundsStatus
	Detail string // witness or reason, e.g. "process np - 1 targets np"
}

func (o CommBoundsObs) String() string {
	return fmt.Sprintf("n%d %s %s %s: %s", o.Node, o.Dir, o.Range, o.Status, o.Detail)
}

// EntailsLE reports whether the constraint graph proves l <= r for affine
// symbolic expressions. It handles the difference-constraint fragment:
// constants, single variables and two-variable differences with unit
// coefficients (everything else returns false, i.e. "not provable").
// Two var+c operands are read directly; anything else goes through r - l.
func (st *State) EntailsLE(l, r sym.Expr) bool {
	// Need d = r - l = pos - neg + c >= 0.
	var pos, neg string
	var c int64
	vl, cl, okl := l.AsVarPlusConst()
	vr, cr, okr := r.AsVarPlusConst()
	if okl && okr {
		c = cr - cl
		if vl != vr { // equal variables cancel
			pos, neg = vr, vl
		}
	} else {
		for _, t := range sym.Sub(r, l).Terms() {
			switch {
			case len(t.Vars) == 0:
				c += t.Coef
			case len(t.Vars) == 1 && t.Coef == 1 && pos == "":
				pos = t.Vars[0]
			case len(t.Vars) == 1 && t.Coef == -1 && neg == "":
				neg = t.Vars[0]
			default:
				return false
			}
		}
	}
	// pos - neg + c >= 0  <=>  neg <= pos + c.
	switch {
	case pos == "" && neg == "":
		return c >= 0
	case neg == "":
		return st.G.Entails(cg.ZeroVar, pos, c)
	case pos == "":
		return st.G.Entails(neg, cg.ZeroVar, c)
	}
	return st.G.Entails(neg, pos, c)
}

// CheckCommBounds decides whether the partner expression expr executed by
// set ps stays inside [0, np-1] for every process in the set's range. The
// expression is translated with id kept as a coefficient; the check then
// puts the range's bound atoms for id at the extreme ends (minimum and
// maximum of an affine function over an interval are attained at the
// endpoints).
func (st *State) CheckCommBounds(ps *ProcSet, dir string, expr ast.Expr) CommBoundsObs {
	return st.boundsVerdict(ps, expr).observation(ps, dir)
}

// Kinds of rank-bounds verdict: each renders its own Detail.
const (
	boundsOutsideAffine byte = iota
	boundsProven
	boundsBeyond
	boundsBelow
	boundsUndecided
)

// boundsVerdict is a rank-bounds decision before any string is rendered:
// its kind and, for a violation, the witness process and the rank it
// targets.
type boundsVerdict struct {
	kind            byte
	process, target procset.Atom
}

// npAtom is the process count; the last rank is np - 1.
var npAtom = cg.Intern("np")

// boundsVerdict decides CheckCommBounds. The target's form is evaluated at
// each bound atom (Affine.at): a target id + k shifts a var+c atom's pair
// by k, and a target without id is one atom, so each is decided with one
// graph query per atom and no polynomial. The range's own atoms are tried
// first: enrichment only adds atoms, so a proof over them is a proof over
// the enriched range, and the range is enriched only when they do not
// prove it.
func (st *State) boundsVerdict(ps *ProcSet, expr ast.Expr) boundsVerdict {
	e, ok := st.AffineID(ps, expr)
	if !ok {
		return boundsVerdict{kind: boundsOutsideAffine}
	}
	a := e.ID
	// ends returns the atoms of the range's lower and upper end in id:
	// decreasing in id, the minimum is at the upper end of the range.
	ends := func(rng procset.Set) (lo, hi []procset.Atom) {
		if a < 0 {
			return rng.UB.Atoms(), rng.LB.Atoms()
		}
		return rng.LB.Atoms(), rng.UB.Atoms()
	}
	zero, minusOne := procset.Atom{}, procset.Atom{C: -1}
	npTop, np := procset.Atom{V: npAtom, C: -1}, procset.Atom{V: npAtom}
	inRange := func(loAtoms, hiAtoms []procset.Atom) bool {
		loOK := false
		for _, atom := range loAtoms {
			if st.entailsLEAtom(zero, e.at(atom)) {
				loOK = true
				break
			}
		}
		if !loOK {
			return false
		}
		for _, atom := range hiAtoms {
			if st.entailsLEAtom(e.at(atom), npTop) {
				return true
			}
		}
		return false
	}
	// The target does not depend on id; evaluate e itself once.
	loAtoms, hiAtoms := zeroAtoms, zeroAtoms
	if a != 0 {
		loAtoms, hiAtoms = ends(ps.Range)
	}
	if inRange(loAtoms, hiAtoms) {
		return boundsVerdict{kind: boundsProven}
	}
	if a != 0 {
		loAtoms, hiAtoms = ends(ps.Range.Enrich(st.Ctx()))
		if inRange(loAtoms, hiAtoms) {
			return boundsVerdict{kind: boundsProven}
		}
	}
	// A violation needs a witness end: some endpoint provably below 0 or at
	// or above np.
	for _, atom := range hiAtoms {
		if t := e.at(atom); st.entailsLEAtom(np, t) {
			return boundsVerdict{kind: boundsBeyond, process: atom, target: t}
		}
	}
	for _, atom := range loAtoms {
		if t := e.at(atom); st.entailsLEAtom(t, minusOne) {
			return boundsVerdict{kind: boundsBelow, process: atom, target: t}
		}
	}
	return boundsVerdict{kind: boundsUndecided}
}

// zeroAtoms stands in for a range's atoms when the target ignores id.
var zeroAtoms = []procset.Atom{{}}

// entailsLEAtom is EntailsLE over atoms: two var+c pairs are decided by the
// bound algebra's atom comparison, with no polynomial.
func (st *State) entailsLEAtom(l, r procset.Atom) bool {
	if !l.IsVarPlus() || !r.IsVarPlus() {
		return st.EntailsLE(l.Expr(), r.Expr())
	}
	return procset.Ctx{G: st.G}.LeqAtom(l, r, 0) == tri.True
}

// observation renders the verdict for set ps checked in direction dir.
func (v boundsVerdict) observation(ps *ProcSet, dir string) CommBoundsObs {
	obs := CommBoundsObs{Node: ps.Node.ID, Dir: dir, Range: ps.Range.String()}
	verb := "sends to"
	if dir == "src" {
		verb = "receives from"
	}
	switch v.kind {
	case boundsOutsideAffine:
		obs.Status = BoundsNonAffine
		obs.Detail = "target expression is outside the affine fragment"
	case boundsProven:
		obs.Status = BoundsProven
		obs.Detail = "every process in " + obs.Range + " targets a rank in [0, np - 1]"
	case boundsBeyond:
		obs.Status = BoundsViolated
		obs.Detail = "process " + v.process.String() + " " + verb + " " + v.target.String() + ", beyond the last rank np - 1"
	case boundsBelow:
		obs.Status = BoundsViolated
		obs.Detail = "process " + v.process.String() + " " + verb + " " + v.target.String() + ", below rank 0"
	default:
		obs.Status = BoundsUnknown
		obs.Detail = "cannot prove the target stays in [0, np - 1] for " + obs.Range
	}
	return obs
}

// recordCommBounds checks and records the rank-bounds observations for a
// process set positioned at a communication node (both facets of sendrecv).
func (e *engine) recordCommBounds(st *State, ps *ProcSet) {
	dest, src := commFacets(ps.Node)
	if dest != nil {
		e.addBoundsObs(ps, "dest", st.boundsVerdict(ps, dest))
	}
	if src != nil {
		e.addBoundsObs(ps, "src", st.boundsVerdict(ps, src))
	}
}

// addBoundsObs records a verdict unless it repeats an earlier one. Most
// observations are repeats, so the dedupe key is binary: everything the
// observation's strings are rendered from — node, direction, verdict kind,
// the range as Set.String shows it, and a violation's witness and target —
// and only a new key renders the strings.
func (e *engine) addBoundsObs(ps *ProcSet, dir string, v boundsVerdict) {
	b := binary.AppendUvarint(e.obsKey[:0], uint64(ps.Node.ID))
	b = append(appendString(b, dir), v.kind)
	b = appendSetShown(b, ps.Range)
	if v.kind == boundsBeyond || v.kind == boundsBelow {
		b = appendAtom(appendAtom(b, v.process), v.target)
	}
	e.obsKey = b
	if _, ok := e.obsSeen[string(b)]; ok {
		return
	}
	if e.obsSeen == nil {
		e.obsSeen = map[string]struct{}{}
	}
	e.obsSeen[string(b)] = struct{}{}
	e.res.CommBounds = append(e.res.CommBounds, v.observation(ps, dir))
}

// ---------------------------------------------------------------------------
// ⊤-blame traces

// TraceTo reconstructs a shortest explored-pCFG path from the initial
// configuration to the configuration with the given shape key, as the
// sequence of edges taken. It returns nil when the key was never reached.
// Used by the ⊤-blame diagnostics to show how the analysis arrived at the
// configuration that gave up. Edges is sorted, so each configuration's
// out-edges are one run, found by binary search and visited in (To,
// Action) order.
func (r *Result) TraceTo(target string) []PCFGEdge {
	if target == "" {
		return nil
	}
	// prev holds the edge each configuration was first reached by; the
	// initial configuration "" is reached by none.
	prev := map[string]PCFGEdge{}
	reached := func(key string) bool {
		_, ok := prev[key]
		return ok || key == ""
	}
	queue := []string{""}
	for len(queue) > 0 && !reached(target) {
		cur := queue[0]
		queue = queue[1:]
		i := sort.Search(len(r.Edges), func(i int) bool { return r.Edges[i].From >= cur })
		for ; i < len(r.Edges) && r.Edges[i].From == cur; i++ {
			if e := r.Edges[i]; !reached(e.To) {
				prev[e.To] = e
				queue = append(queue, e.To)
			}
		}
	}
	if !reached(target) {
		return nil
	}
	var path []PCFGEdge
	for cur := target; cur != ""; {
		e := prev[cur]
		path = append(path, e)
		cur = e.From
	}
	// Reverse into forward order.
	for i, j := 0, len(path)-1; i < j; i, j = i+1, j-1 {
		path[i], path[j] = path[j], path[i]
	}
	return path
}

// BlameNode extracts the CFG node a pCFG action label refers to, or -1.
// Action labels render nodes as "n<id>[...]", "block n<id>", "match
// n<id>->n<id>" and similar.
func (e PCFGEdge) BlameNode() int {
	s := e.Action
	i := strings.IndexByte(s, 'n')
	for i >= 0 {
		j := i + 1
		for j < len(s) && s[j] >= '0' && s[j] <= '9' {
			j++
		}
		if j > i+1 {
			id := 0
			for _, c := range s[i+1 : j] {
				id = id*10 + int(c-'0')
			}
			return id
		}
		next := strings.IndexByte(s[i+1:], 'n')
		if next < 0 {
			return -1
		}
		i += 1 + next
	}
	return -1
}
