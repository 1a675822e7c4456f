package core

// Rank-bounds observations: while the engine runs, every process set that
// reaches a communication operation can have its partner expression checked
// against the valid rank interval [0, np-1] using the Section VII
// constraint-graph client. The observations accumulate on the Result and
// feed the lint rank-bounds pass, which flags the classic unguarded
// `send x -> id + 1` boundary bug with a proof witness instead of waiting
// for the match search to fail.

import (
	"fmt"
	"sort"
	"strconv"
	"strings"

	"repro/internal/ast"
	"repro/internal/cg"
	"repro/internal/sym"
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
// expression is translated with id mapped to the IDMarker symbol; the check
// then substitutes the range's bound atoms for id at the extreme ends
// (minimum and maximum of an affine function over an interval are attained
// at the endpoints).
func (st *State) CheckCommBounds(ps *ProcSet, dir string, expr ast.Expr) CommBoundsObs {
	obs := CommBoundsObs{Node: ps.Node.ID, Dir: dir, Range: ps.Range.String()}
	e, ok := st.AffineExprID(ps, expr)
	if !ok {
		obs.Status = BoundsNonAffine
		obs.Detail = "target expression is outside the affine fragment"
		return obs
	}
	// Extract the coefficient of id; the rest must stay affine.
	var a int64
	for _, t := range e.Terms() {
		uses := false
		for _, v := range t.Vars {
			if v == IDMarker {
				uses = true
			}
		}
		if !uses {
			continue
		}
		if len(t.Vars) != 1 {
			obs.Status = BoundsNonAffine
			obs.Detail = "target multiplies id with another variable"
			return obs
		}
		a += t.Coef
	}
	rng := ps.Range.Enrich(st.Ctx())
	loAtoms, hiAtoms := rng.LB.Atoms(), rng.UB.Atoms()
	if a < 0 {
		// Decreasing in id: the minimum is at the upper end of the range.
		loAtoms, hiAtoms = hiAtoms, loAtoms
	}
	if a == 0 {
		// The target does not depend on id; evaluate e itself once.
		loAtoms, hiAtoms = []sym.Expr{sym.Zero}, []sym.Expr{sym.Zero}
	}
	verb := "sends to"
	if dir == "src" {
		verb = "receives from"
	}
	npTop := sym.VarPlus("np", -1)
	loOK, hiOK := false, false
	for _, atom := range loAtoms {
		v := sym.Subst(e, IDMarker, atom)
		if st.EntailsLE(sym.Zero, v) {
			loOK = true
			break
		}
	}
	for _, atom := range hiAtoms {
		v := sym.Subst(e, IDMarker, atom)
		if st.EntailsLE(v, npTop) {
			hiOK = true
			break
		}
	}
	if loOK && hiOK {
		obs.Status = BoundsProven
		obs.Detail = "every process in " + obs.Range + " targets a rank in [0, np - 1]"
		return obs
	}
	// A violation needs a witness end: some endpoint provably below 0 or at
	// or above np.
	for _, atom := range hiAtoms {
		v := sym.Subst(e, IDMarker, atom)
		if st.EntailsLE(sym.Var("np"), v) {
			obs.Status = BoundsViolated
			obs.Detail = "process " + atom.String() + " " + verb + " " + v.String() + ", beyond the last rank np - 1"
			return obs
		}
	}
	for _, atom := range loAtoms {
		v := sym.Subst(e, IDMarker, atom)
		if st.EntailsLE(v, sym.Const(-1)) {
			obs.Status = BoundsViolated
			obs.Detail = "process " + atom.String() + " " + verb + " " + v.String() + ", below rank 0"
			return obs
		}
	}
	obs.Status = BoundsUnknown
	obs.Detail = "cannot prove the target stays in [0, np - 1] for " + obs.Range
	return obs
}

// recordCommBounds checks and records the rank-bounds observations for a
// process set positioned at a communication node (both facets of sendrecv).
func (e *engine) recordCommBounds(st *State, ps *ProcSet) {
	dest, src := commFacets(ps.Node)
	if dest != nil {
		e.addBoundsObs(st.CheckCommBounds(ps, "dest", dest))
	}
	if src != nil {
		e.addBoundsObs(st.CheckCommBounds(ps, "src", src))
	}
}

// boundsObsKey is the dedupe key of an observation: its fields joined by '|'.
func boundsObsKey(obs CommBoundsObs) string {
	return strconv.Itoa(obs.Node) + "|" + obs.Dir + "|" + strconv.Itoa(int(obs.Status)) + "|" + obs.Range + "|" + obs.Detail
}

func (e *engine) addBoundsObs(obs CommBoundsObs) {
	key := boundsObsKey(obs)
	if e.obsSeen[key] {
		return
	}
	e.obsSeen[key] = true
	e.res.CommBounds = append(e.res.CommBounds, obs)
}

// ---------------------------------------------------------------------------
// ⊤-blame traces

// TraceTo reconstructs a shortest explored-pCFG path from the initial
// configuration to the configuration with the given shape key, as the
// sequence of edges taken. It returns nil when the key was never reached.
// Used by the ⊤-blame diagnostics to show how the analysis arrived at the
// configuration that gave up.
func (r *Result) TraceTo(target string) []PCFGEdge {
	if target == "" {
		return nil
	}
	adj := map[string][]PCFGEdge{}
	for _, e := range r.Edges {
		adj[e.From] = append(adj[e.From], e)
	}
	for _, edges := range adj {
		sort.Slice(edges, func(i, j int) bool {
			if edges[i].To != edges[j].To {
				return edges[i].To < edges[j].To
			}
			return edges[i].Action < edges[j].Action
		})
	}
	prev := map[string]PCFGEdge{}
	seen := map[string]bool{"": true}
	queue := []string{""}
	for len(queue) > 0 && !seen[target] {
		cur := queue[0]
		queue = queue[1:]
		for _, e := range adj[cur] {
			if seen[e.To] {
				continue
			}
			seen[e.To] = true
			prev[e.To] = e
			queue = append(queue, e.To)
		}
	}
	if !seen[target] {
		return nil
	}
	var path []PCFGEdge
	for cur := target; cur != ""; {
		e, ok := prev[cur]
		if !ok {
			break
		}
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
