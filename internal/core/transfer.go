package core

import (
	"fmt"

	"repro/internal/ast"
	"repro/internal/cfg"
	"repro/internal/cg"
	"repro/internal/procset"
	"repro/internal/sem"
	"repro/internal/sym"
	"repro/internal/tri"
)

// AffineExpr translates an MPL integer expression executed by set ps into a
// symbolic affine form over namespaced constraint-graph variables. The
// builtin id resolves only when the set is a singleton (its value is then
// the range's bound expression). Returns ok=false for non-affine shapes
// (handled by the HSM matcher instead).
func (st *State) AffineExpr(ps *ProcSet, e ast.Expr) (sym.Expr, bool) {
	return st.affineExprRange(ps, ps.Range, e)
}

// affineExprRange is AffineExpr with an explicit range for id resolution
// (used when a matched subset differs from the set's full range).
func (st *State) affineExprRange(ps *ProcSet, rng procset.Set, e ast.Expr) (sym.Expr, bool) {
	switch x := e.(type) {
	case *ast.IntLit:
		return sym.Const(x.Value), true
	case *ast.Ident:
		switch x.Name {
		case sem.NPVar:
			return sym.Var("np"), true
		case sem.IDVar:
			if rng.IsSingleton(st.Ctx()) == tri.True {
				return rng.LB.Primary(), true
			}
			return sym.Zero, false
		default:
			return sym.Var(st.varName(ps.ID, x.Name)), true
		}
	case *ast.Unary:
		if x.Op != ast.Neg {
			return sym.Zero, false
		}
		v, ok := st.affineExprRange(ps, rng, x.X)
		if !ok {
			return sym.Zero, false
		}
		return sym.Neg(v), true
	case *ast.Binary:
		switch x.Op {
		case ast.Add, ast.Sub:
			l, ok1 := st.affineExprRange(ps, rng, x.L)
			r, ok2 := st.affineExprRange(ps, rng, x.R)
			if !ok1 || !ok2 {
				return sym.Zero, false
			}
			if x.Op == ast.Add {
				return sym.Add(l, r), true
			}
			return sym.Sub(l, r), true
		case ast.Mul:
			l, ok1 := st.affineExprRange(ps, rng, x.L)
			r, ok2 := st.affineExprRange(ps, rng, x.R)
			if !ok1 || !ok2 {
				return sym.Zero, false
			}
			if c, ok := l.IsConst(); ok {
				return sym.Scale(r, c), true
			}
			if c, ok := r.IsConst(); ok {
				return sym.Scale(l, c), true
			}
			return sym.Zero, false
		}
		return sym.Zero, false
	}
	return sym.Zero, false
}

// IDMarker is the distinguished symbol standing for the builtin id inside
// matcher-side affine expressions (AffineExprID).
const IDMarker = "$id"

// AffineExprID translates an MPL expression like AffineExpr, but maps the
// builtin id to the marker symbol IDMarker so matchers can classify the
// expression's dependence on the process rank.
func (st *State) AffineExprID(ps *ProcSet, e ast.Expr) (sym.Expr, bool) {
	switch x := e.(type) {
	case *ast.IntLit:
		return sym.Const(x.Value), true
	case *ast.Ident:
		switch x.Name {
		case sem.NPVar:
			return sym.Var("np"), true
		case sem.IDVar:
			return sym.Var(IDMarker), true
		default:
			return sym.Var(st.varName(ps.ID, x.Name)), true
		}
	case *ast.Unary:
		if x.Op != ast.Neg {
			return sym.Zero, false
		}
		v, ok := st.AffineExprID(ps, x.X)
		if !ok {
			return sym.Zero, false
		}
		return sym.Neg(v), true
	case *ast.Binary:
		l, ok1 := st.AffineExprID(ps, x.L)
		if !ok1 {
			return sym.Zero, false
		}
		r, ok2 := st.AffineExprID(ps, x.R)
		if !ok2 {
			return sym.Zero, false
		}
		switch x.Op {
		case ast.Add:
			return sym.Add(l, r), true
		case ast.Sub:
			return sym.Sub(l, r), true
		case ast.Mul:
			if c, ok := l.IsConst(); ok {
				return sym.Scale(r, c), true
			}
			if c, ok := r.IsConst(); ok {
				return sym.Scale(l, c), true
			}
		}
		return sym.Zero, false
	}
	return sym.Zero, false
}

// EntailsZero reports whether the constraint graph proves the affine
// expression equal to zero. Handles constants, single variables, and
// two-variable differences with unit coefficients.
func (st *State) EntailsZero(e sym.Expr) bool {
	if e.IsZero() {
		return true
	}
	if c, ok := e.IsConst(); ok {
		return c == 0
	}
	terms := e.Terms()
	var pos, neg string
	var c int64
	for _, t := range terms {
		switch {
		case len(t.Vars) == 0:
			c = t.Coef
		case len(t.Vars) == 1 && t.Coef == 1 && pos == "":
			pos = t.Vars[0]
		case len(t.Vars) == 1 && t.Coef == -1 && neg == "":
			neg = t.Vars[0]
		default:
			return false
		}
	}
	switch {
	case pos != "" && neg != "":
		// pos - neg + c == 0  <=>  pos = neg - c
		return st.G.Entails(pos, neg, -c) && st.G.Entails(neg, pos, c)
	case pos != "":
		return st.G.Entails(pos, cg.ZeroVar, -c) && st.G.Entails(cg.ZeroVar, pos, c)
	case neg != "":
		return st.G.Entails(neg, cg.ZeroVar, c) && st.G.Entails(cg.ZeroVar, neg, -c)
	}
	return false
}

// splitVarPlusConst decomposes an affine sym expression into a
// constraint-graph variable plus constant; constants use ZeroVar.
func splitVarPlusConst(e sym.Expr) (string, int64, bool) {
	v, c, ok := e.AsVarPlusConst()
	if !ok {
		return "", 0, false
	}
	if v == "" {
		return cg.ZeroVar, c, true
	}
	return v, c, true
}

// EvalCond evaluates a boolean condition for set ps, three-valued.
func (st *State) EvalCond(ps *ProcSet, cond ast.Expr) tri.Bool {
	switch x := cond.(type) {
	case *ast.BoolLit:
		return tri.FromBool(x.Value)
	case *ast.Unary:
		if x.Op == ast.LNot {
			return st.EvalCond(ps, x.X).Not()
		}
	case *ast.Binary:
		switch {
		case x.Op == ast.LAnd:
			return st.EvalCond(ps, x.L).And(st.EvalCond(ps, x.R))
		case x.Op == ast.LOr:
			return st.EvalCond(ps, x.L).Or(st.EvalCond(ps, x.R))
		case x.Op.IsComparison():
			l, ok1 := st.AffineExpr(ps, x.L)
			r, ok2 := st.AffineExpr(ps, x.R)
			if !ok1 || !ok2 {
				return tri.Unknown
			}
			return st.evalCmp(x.Op, l, r)
		}
	}
	return tri.Unknown
}

// evalCmp decides l op r from the constraint graph.
func (st *State) evalCmp(op ast.BinOp, l, r sym.Expr) tri.Bool {
	lv, lc, ok1 := splitVarPlusConst(l)
	rv, rc, ok2 := splitVarPlusConst(r)
	if !ok1 || !ok2 {
		// Try the constant difference.
		if d, ok := sym.Cmp(l, r); ok {
			return evalConstCmp(op, d)
		}
		return tri.Unknown
	}
	le := func(x string, xc int64, y string, yc int64, slack int64) tri.Bool {
		// x + xc <= y + yc + slack
		if st.G.Entails(x, y, yc-xc+slack) {
			return tri.True
		}
		if st.G.Entails(y, x, xc-yc-slack-1) {
			return tri.False
		}
		return tri.Unknown
	}
	switch op {
	case ast.Le:
		return le(lv, lc, rv, rc, 0)
	case ast.Lt:
		return le(lv, lc, rv, rc, -1)
	case ast.Ge:
		return le(rv, rc, lv, lc, 0)
	case ast.Gt:
		return le(rv, rc, lv, lc, -1)
	case ast.Eq:
		return le(lv, lc, rv, rc, 0).And(le(rv, rc, lv, lc, 0))
	case ast.Neq:
		return le(lv, lc, rv, rc, 0).And(le(rv, rc, lv, lc, 0)).Not()
	}
	return tri.Unknown
}

func evalConstCmp(op ast.BinOp, d int64) tri.Bool {
	switch op {
	case ast.Le:
		return tri.FromBool(d <= 0)
	case ast.Lt:
		return tri.FromBool(d < 0)
	case ast.Ge:
		return tri.FromBool(d >= 0)
	case ast.Gt:
		return tri.FromBool(d > 0)
	case ast.Eq:
		return tri.FromBool(d == 0)
	case ast.Neq:
		return tri.FromBool(d != 0)
	}
	return tri.Unknown
}

// AssumeCond adds cond (or its negation) for set ps to the constraint graph,
// to the extent it is expressible as difference constraints. Conjunctions
// decompose; negated conjunctions and disjunctions are skipped (sound:
// assuming less).
func (st *State) AssumeCond(ps *ProcSet, cond ast.Expr, negate bool) {
	switch x := cond.(type) {
	case *ast.Unary:
		if x.Op == ast.LNot {
			st.AssumeCond(ps, x.X, !negate)
		}
	case *ast.Binary:
		switch {
		case x.Op == ast.LAnd && !negate:
			st.AssumeCond(ps, x.L, false)
			st.AssumeCond(ps, x.R, false)
		case x.Op == ast.LOr && negate:
			st.AssumeCond(ps, x.L, true)
			st.AssumeCond(ps, x.R, true)
		case x.Op.IsComparison():
			if ast.UsesIdent(x.L, sem.IDVar) || ast.UsesIdent(x.R, sem.IDVar) {
				if ps.Range.IsSingleton(st.Ctx()) != tri.True {
					return // id facts live in the range representation
				}
			}
			l, ok1 := st.AffineExpr(ps, x.L)
			r, ok2 := st.AffineExpr(ps, x.R)
			if !ok1 || !ok2 {
				return
			}
			st.assumeCmp(x.Op, l, r, negate)
		}
	}
}

func (st *State) assumeCmp(op ast.BinOp, l, r sym.Expr, negate bool) {
	if negate {
		switch op {
		case ast.Le:
			op = ast.Gt
		case ast.Lt:
			op = ast.Ge
		case ast.Ge:
			op = ast.Lt
		case ast.Gt:
			op = ast.Le
		case ast.Eq:
			op = ast.Neq
		case ast.Neq:
			op = ast.Eq
		}
	}
	lv, lc, ok1 := splitVarPlusConst(l)
	rv, rc, ok2 := splitVarPlusConst(r)
	if !ok1 || !ok2 {
		return
	}
	switch op {
	case ast.Le: // lv + lc <= rv + rc
		st.G.AddLE(lv, rv, rc-lc)
	case ast.Lt:
		st.G.AddLE(lv, rv, rc-lc-1)
	case ast.Ge:
		st.G.AddLE(rv, lv, lc-rc)
	case ast.Gt:
		st.G.AddLE(rv, lv, lc-rc-1)
	case ast.Eq:
		st.G.AddEq(lv, rv, rc-lc)
	case ast.Neq:
		// Not expressible as a single difference constraint; skip.
	}
}

// idComparison matches conditions of the form "id op e" or "e op id" with a
// set-constant affine e, returning the normalized operator with id on the
// left and the comparison expression.
func (st *State) idComparison(ps *ProcSet, cond ast.Expr) (ast.BinOp, sym.Expr, bool) {
	x, ok := cond.(*ast.Binary)
	if !ok || !x.Op.IsComparison() {
		return 0, sym.Zero, false
	}
	lIsID := isIDIdent(x.L)
	rIsID := isIDIdent(x.R)
	if lIsID == rIsID {
		return 0, sym.Zero, false
	}
	var other ast.Expr
	op := x.Op
	if lIsID {
		other = x.R
	} else {
		other = x.L
		// Flip the comparison so id is on the left.
		switch x.Op {
		case ast.Lt:
			op = ast.Gt
		case ast.Le:
			op = ast.Ge
		case ast.Gt:
			op = ast.Lt
		case ast.Ge:
			op = ast.Le
		}
	}
	if ast.UsesIdent(other, sem.IDVar) {
		return 0, sym.Zero, false
	}
	e, okE := st.AffineExpr(ps, other)
	if !okE {
		return 0, sym.Zero, false
	}
	return op, e, true
}

func isIDIdent(e ast.Expr) bool {
	id, ok := e.(*ast.Ident)
	return ok && id.Name == sem.IDVar
}

// SplitByIDCond partitions rng into the exact sub-ranges satisfying and
// violating an id-comparison, clamping every piece to rng (a pivot outside
// the range must not enlarge it). Pieces may be empty; ok=false when the
// required bound comparisons are not provable in the context.
func SplitByIDCond(ctx procset.Ctx, op ast.BinOp, rng procset.Set, e sym.Expr) (yes, no []procset.Set, ok bool) {
	rng = rng.Enrich(ctx)
	// below = rng ∩ (-inf, pivot)  and  atAbove = rng ∩ [pivot, +inf).
	splitAt := func(pivot sym.Expr) (procset.Set, procset.Set, bool) {
		below, ok1 := procset.Intersect(ctx, rng, procset.Set{LB: rng.LB, UB: procset.NewBound(sym.AddConst(pivot, -1))})
		atAbove, ok2 := procset.Intersect(ctx, rng, procset.Set{LB: procset.NewBound(pivot), UB: rng.UB})
		return below, atAbove, ok1 && ok2
	}
	switch op {
	case ast.Eq, ast.Neq:
		left, atAbove, ok1 := splitAt(e)
		if !ok1 {
			return nil, nil, false
		}
		mid, ok2 := procset.Intersect(ctx, atAbove, procset.Set{LB: procset.NewBound(e), UB: procset.NewBound(e)})
		right, ok3 := procset.Intersect(ctx, atAbove, procset.Set{LB: procset.NewBound(sym.AddConst(e, 1)), UB: rng.UB})
		if !ok2 || !ok3 {
			return nil, nil, false
		}
		if op == ast.Eq {
			return []procset.Set{mid}, []procset.Set{left, right}, true
		}
		return []procset.Set{left, right}, []procset.Set{mid}, true
	case ast.Lt: // id < e
		lt, ge, ok1 := splitAt(e)
		return []procset.Set{lt}, []procset.Set{ge}, ok1
	case ast.Le: // id <= e  <=>  id < e+1
		lt, ge, ok1 := splitAt(sym.AddConst(e, 1))
		return []procset.Set{lt}, []procset.Set{ge}, ok1
	case ast.Gt: // id > e  <=>  !(id <= e)
		lt, ge, ok1 := splitAt(sym.AddConst(e, 1))
		return []procset.Set{ge}, []procset.Set{lt}, ok1
	case ast.Ge:
		lt, ge, ok1 := splitAt(e)
		return []procset.Set{ge}, []procset.Set{lt}, ok1
	}
	return nil, nil, false
}

// ApplyAssign performs the transfer function for "name := rhs" on set ps.
func (st *State) ApplyAssign(ps *ProcSet, name string, rhs ast.Expr) {
	v := PV(ps.ID, name)
	rhsExpr, ok := st.AffineExpr(ps, rhs)
	if !ok {
		// Unknown value: also invalidate range atoms mentioning v.
		st.invalidateVar(v)
		st.G.Forget(v)
		return
	}
	// Invertible self-update x := x + c?
	if w, c, okd := rhsExpr.AsVarPlusConst(); okd && w == v {
		st.G.Shift(v, c)
		// Occurrences of v in ranges denote the OLD value = new v - c.
		st.SubstEverywhere(v, sym.VarPlus(v, -c))
		return
	}
	if rhsExpr.Uses(v) {
		// Self-referencing but not a plain shift (e.g. x := 2*x).
		st.invalidateVar(v)
		st.G.Forget(v)
		return
	}
	st.invalidateVar(v)
	st.G.Forget(v)
	if w, c, okd := splitVarPlusConst(rhsExpr); okd {
		st.G.AddEq(v, w, c)
	}
}

// invalidateNamespace rewrites range/match atoms referencing any of set
// id's variables to equality witnesses (done before the namespace's facts
// are weakened or dropped).
func (st *State) invalidateNamespace(id int) {
	for _, v := range st.namespaceVars(id) {
		st.invalidateVar(v)
	}
}

// invalidateVar rewrites range/match atoms that mention a variable about to
// lose its value, substituting an equality witness when one exists.
func (st *State) invalidateVar(v string) {
	used := false
	for _, p := range st.Sets {
		if p.Range.Uses(v) {
			used = true
		}
	}
	for _, m := range st.Matches {
		if m.Sender.Uses(v) || m.Receiver.Uses(v) {
			used = true
		}
	}
	for _, p := range st.Pending {
		if p.Senders.Uses(v) || p.Dests.Uses(v) || p.Offset.Uses(v) || (p.ValOK && p.Val.Uses(v)) {
			used = true
		}
	}
	if !used {
		return
	}
	// Prefer an equality witness not involving v.
	for _, w := range st.G.EqualWitnesses(v) {
		repl := sym.VarPlus(w.Var, w.C)
		if w.Var == cg.ZeroVar {
			repl = sym.Const(w.C)
		}
		st.SubstEverywhere(v, repl)
		return
	}
	// No witness: enrich (may add other atoms), then drop atoms using v.
	st.EnrichEverywhere()
	for _, p := range st.Sets {
		p.Range = procset.Set{LB: p.Range.LB.DropUses(v), UB: p.Range.UB.DropUses(v)}
	}
	for _, m := range st.Matches {
		m.Sender = procset.Set{LB: m.Sender.LB.DropUses(v), UB: m.Sender.UB.DropUses(v)}
		m.Receiver = procset.Set{LB: m.Receiver.LB.DropUses(v), UB: m.Receiver.UB.DropUses(v)}
	}
	for _, p := range st.Pending {
		p.Senders = procset.Set{LB: p.Senders.LB.DropUses(v), UB: p.Senders.UB.DropUses(v)}
		if p.Shape == PendFan {
			p.Dests = procset.Set{LB: p.Dests.LB.DropUses(v), UB: p.Dests.UB.DropUses(v)}
		}
	}
}

// RangesValid reports whether all ranges still have representable bounds
// (an invalid bound forces ⊤).
func (st *State) RangesValid() bool {
	for _, p := range st.Sets {
		if !p.Range.IsValid() {
			return false
		}
	}
	return true
}

// GlobalAssume processes an "assume" statement for set ps: affine facts go
// to the constraint graph; multiplicative equalities (np == nrows * ncols,
// ncols == 2 * nrows) are recorded as invariants for the HSM matcher.
func (st *State) GlobalAssume(ps *ProcSet, cond ast.Expr, inv *Invariants) {
	st.AssumeCond(ps, cond, false)
	if inv != nil {
		inv.Collect(cond)
	}
}

// Invariants accumulates non-affine global equalities for the cartesian
// (HSM) matcher, e.g. np = nrows*ncols.
type Invariants struct {
	Subst       map[string]sym.Expr
	LowerBounds map[string]int64
}

// NewInvariants returns an empty invariant store with np >= 1.
func NewInvariants() *Invariants {
	return &Invariants{
		Subst:       map[string]sym.Expr{},
		LowerBounds: map[string]int64{"np": 1},
	}
}

// Collect extracts invariants from an assume condition: var == polynomial
// equalities and var >= c lower bounds, recursing into conjunctions.
func (inv *Invariants) Collect(cond ast.Expr) {
	inv.collectLocked(cond)
}

func (inv *Invariants) collectLocked(cond ast.Expr) {
	b, ok := cond.(*ast.Binary)
	if !ok {
		return
	}
	if b.Op == ast.LAnd {
		inv.collectLocked(b.L)
		inv.collectLocked(b.R)
		return
	}
	toPoly := func(e ast.Expr) (sym.Expr, bool) { return astToPoly(e) }
	switch b.Op {
	case ast.Eq:
		if id, ok := b.L.(*ast.Ident); ok && id.Name != sem.IDVar {
			if rhs, ok := toPoly(b.R); ok && !rhs.Uses(id.Name) {
				inv.Subst[id.Name] = rhs
			}
		}
	case ast.Ge:
		if id, ok := b.L.(*ast.Ident); ok && id.Name != sem.IDVar {
			if rhs, ok := toPoly(b.R); ok {
				if c, isC := rhs.IsConst(); isC {
					if cur, exists := inv.LowerBounds[id.Name]; !exists || c > cur {
						inv.LowerBounds[id.Name] = c
					}
				}
			}
		}
	}
}

// InjectAffineConsequences adds difference-constraint consequences of the
// multiplicative invariants to a constraint graph: for name = c * v1...vd
// with known lower bounds L_i >= 1 on each variable, it derives
// name >= c*prod(L) and name >= v_i + (c*prod(L) - L_i) for each factor
// (sound by monotonicity of the monomial above the bounds). This lets the
// Section VII client reason about grid sizes like np = 2*half or
// np = 4*ny that are otherwise invisible to difference constraints.
func InjectAffineConsequences(g *cg.Graph, inv *Invariants) {
	for name, rhs := range inv.Subst {
		terms := rhs.Terms()
		if len(terms) != 1 {
			continue
		}
		t := terms[0]
		if t.Coef <= 0 || len(t.Vars) == 0 {
			continue
		}
		prodL := t.Coef
		ok := true
		for _, v := range t.Vars {
			l := inv.LowerBounds[v]
			if l < 1 {
				ok = false
				break
			}
			prodL *= l
		}
		if !ok {
			continue
		}
		// name >= c*prod(L).
		g.AddLE(cg.ZeroVar, name, -prodL)
		// name - v_i >= prodL - L_i, provided the monomial grows at least
		// as fast as v_i (true when the partial derivative at the bounds,
		// c*prod(L)/L_i, is >= 1).
		seen := map[string]bool{}
		for _, v := range t.Vars {
			if seen[v] {
				continue
			}
			seen[v] = true
			l := inv.LowerBounds[v]
			if prodL/l >= 1 && prodL-l >= 0 {
				g.AddLE(v, name, -(prodL - l))
			}
		}
	}
}

// ScanInvariants walks a CFG collecting the global invariants declared by
// assume statements (used to construct HSM-based matchers before analysis).
func ScanInvariants(g *cfg.Graph) *Invariants {
	inv := NewInvariants()
	for _, n := range g.Nodes {
		if n.Kind == cfg.Assume {
			inv.Collect(n.Cond)
		}
	}
	return inv
}

// astToPoly converts an id-free MPL integer expression to a polynomial
// (division/modulus unsupported).
func astToPoly(e ast.Expr) (sym.Expr, bool) {
	switch x := e.(type) {
	case *ast.IntLit:
		return sym.Const(x.Value), true
	case *ast.Ident:
		if x.Name == sem.IDVar {
			return sym.Zero, false
		}
		return sym.Var(x.Name), true
	case *ast.Unary:
		if x.Op != ast.Neg {
			return sym.Zero, false
		}
		v, ok := astToPoly(x.X)
		if !ok {
			return sym.Zero, false
		}
		return sym.Neg(v), true
	case *ast.Binary:
		l, ok1 := astToPoly(x.L)
		r, ok2 := astToPoly(x.R)
		if !ok1 || !ok2 {
			return sym.Zero, false
		}
		switch x.Op {
		case ast.Add:
			return sym.Add(l, r), true
		case ast.Sub:
			return sym.Sub(l, r), true
		case ast.Mul:
			return sym.Mul(l, r), true
		}
	}
	return sym.Zero, false
}

// advance moves ps along its unique sequential successor.
func advance(ps *ProcSet) {
	ps.Node = ps.Node.SuccSeq()
	ps.Blocked = false
}

// debugString renders a node action for diagnostics.
func nodeDesc(n *cfg.Node) string { return fmt.Sprintf("n%d[%s]", n.ID, n.Label()) }
