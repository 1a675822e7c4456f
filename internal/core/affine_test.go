package core_test

import (
	"fmt"
	"math/rand"
	"path/filepath"
	"sort"
	"testing"

	"repro/internal/ast"
	"repro/internal/cfg"
	"repro/internal/cg"
	"repro/internal/clients/cartesian"
	"repro/internal/core"
	"repro/internal/parser"
	"repro/internal/procset"
	"repro/internal/sem"
	"repro/internal/sym"
	"repro/internal/tri"
)

// refAffineExprID is the sym translation the affine form replaced in the
// matchers and the rank-bounds check: id becomes the IDMarker symbol.
func refAffineExprID(st *core.State, ps *core.ProcSet, e ast.Expr) (sym.Expr, bool) {
	switch x := e.(type) {
	case *ast.IntLit:
		return sym.Const(x.Value), true
	case *ast.Ident:
		switch x.Name {
		case sem.NPVar:
			return sym.Var("np"), true
		case sem.IDVar:
			return sym.Var(core.IDMarker), true
		default:
			return sym.Var(core.VarName(st, ps.ID, x.Name)), true
		}
	case *ast.Unary:
		if x.Op != ast.Neg {
			return sym.Zero, false
		}
		v, ok := refAffineExprID(st, ps, x.X)
		if !ok {
			return sym.Zero, false
		}
		return sym.Neg(v), true
	case *ast.Binary:
		l, ok1 := refAffineExprID(st, ps, x.L)
		if !ok1 {
			return sym.Zero, false
		}
		r, ok2 := refAffineExprID(st, ps, x.R)
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

// refAffineExprRange is the sym translation the affine form replaced in the
// transfers: id resolves to the primary atom of a singleton rng.
func refAffineExprRange(st *core.State, ps *core.ProcSet, rng procset.Set, e ast.Expr) (sym.Expr, bool) {
	switch x := e.(type) {
	case *ast.IntLit:
		return sym.Const(x.Value), true
	case *ast.Ident:
		switch x.Name {
		case sem.NPVar:
			return sym.Var("np"), true
		case sem.IDVar:
			if rng.IsSingleton(st.Ctx()) == tri.True {
				return rng.LB.Primary().Expr(), true
			}
			return sym.Zero, false
		default:
			return sym.Var(core.VarName(st, ps.ID, x.Name)), true
		}
	case *ast.Unary:
		if x.Op != ast.Neg {
			return sym.Zero, false
		}
		v, ok := refAffineExprRange(st, ps, rng, x.X)
		if !ok {
			return sym.Zero, false
		}
		return sym.Neg(v), true
	case *ast.Binary:
		switch x.Op {
		case ast.Add, ast.Sub:
			l, ok1 := refAffineExprRange(st, ps, rng, x.L)
			r, ok2 := refAffineExprRange(st, ps, rng, x.R)
			if !ok1 || !ok2 {
				return sym.Zero, false
			}
			if x.Op == ast.Add {
				return sym.Add(l, r), true
			}
			return sym.Sub(l, r), true
		case ast.Mul:
			l, ok1 := refAffineExprRange(st, ps, rng, x.L)
			r, ok2 := refAffineExprRange(st, ps, rng, x.R)
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

// refEntailsZero is the term walk EntailsZero replaced.
func refEntailsZero(st *core.State, e sym.Expr) bool {
	if e.IsZero() {
		return true
	}
	if c, ok := e.IsConst(); ok {
		return c == 0
	}
	var pos, neg string
	var c int64
	for _, t := range e.Terms() {
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
		return st.G.Entails(pos, neg, -c) && st.G.Entails(neg, pos, c)
	case pos != "":
		return st.G.Entails(pos, cg.ZeroVar, -c) && st.G.Entails(cg.ZeroVar, pos, c)
	case neg != "":
		return st.G.Entails(neg, cg.ZeroVar, c) && st.G.Entails(cg.ZeroVar, neg, -c)
	}
	return false
}

// withoutID is a reference polynomial minus its IDMarker term, as the
// matchers' classify and IssueSend computed the offset.
func withoutID(e sym.Expr) sym.Expr {
	return sym.Sub(e, sym.Scale(sym.Var(core.IDMarker), e.Coeff(core.IDMarker)))
}

// intExprs returns every integer expression of g's nodes — send and
// receive partners and payloads, assignment right-hand sides, print
// arguments, comparison operands — and their integer subexpressions.
func intExprs(g *cfg.Graph) []ast.Expr {
	var out []ast.Expr
	var walk func(e ast.Expr, isInt bool)
	walk = func(e ast.Expr, isInt bool) {
		switch x := e.(type) {
		case nil:
			return
		case *ast.Unary:
			walk(x.X, x.Op == ast.Neg)
		case *ast.Binary:
			switch {
			case x.Op == ast.LAnd || x.Op == ast.LOr:
				walk(x.L, false)
				walk(x.R, false)
				return
			case x.Op.IsComparison():
				walk(x.L, true)
				walk(x.R, true)
				return
			}
			walk(x.L, true)
			walk(x.R, true)
		}
		if isInt {
			out = append(out, e)
		}
	}
	for _, n := range g.Nodes {
		for _, e := range []ast.Expr{n.Dest, n.Src, n.Value, n.AssignRhs, n.Arg} {
			walk(e, true)
		}
		walk(n.Cond, false)
	}
	return out
}

// checkForms compares the forms of exprs, read by set ps of st, with the
// reference translations in both id modes: Expr must give the reference
// polynomial, both must refuse together, and every decision the readers
// take from a form (IsConst, VarPlus, EntailsZero, the constant difference
// of two forms) must match the one the reference polynomial gave.
func checkForms(t *testing.T, name string, st *core.State, ps *core.ProcSet, exprs []ast.Expr, cov map[string]int) {
	t.Helper()
	fail := func(e ast.Expr, format string, args ...any) {
		t.Helper()
		t.Fatalf("%s: set %d %s, expression %s: %s", name, ps.ID, ps.Range, e, fmt.Sprintf(format, args...))
	}
	rngs := []procset.Set{ps.Range}
	if ps.Range.IsValid() {
		rngs = append(rngs, procset.Singleton(nil, ps.Range.LB.Primary().Expr()))
	}
	var prev, prevAt core.Affine
	var prevRef, prevAtRef sym.Expr
	havePrev, havePrevAt := false, false
	for _, e := range exprs {
		f, ok := st.AffineID(ps, e)
		ref, rok := refAffineExprID(st, ps, e)
		if ok != rok {
			fail(e, "AffineID ok %v, reference ok %v", ok, rok)
		}
		if !ok {
			cov["refused"]++
		} else {
			if got := f.Expr(); !sym.Equal(got, ref) || got.Key() != ref.Key() {
				fail(e, "AffineID gives %s, reference %s", got, ref)
			}
			if f.ID != ref.Coeff(core.IDMarker) {
				fail(e, "id coefficient %d, reference %d", f.ID, ref.Coeff(core.IDMarker))
			}
			switch f.ID {
			case 0, 1, -1:
				cov[fmt.Sprintf("id coefficient %d", f.ID)]++
			default:
				cov["id coefficient other"]++
			}
			ofs, refOfs := f.Offset(), withoutID(ref)
			if got, want := st.EntailsZero(ofs), refEntailsZero(st, refOfs); got != want {
				fail(e, "EntailsZero(offset %s) = %v, reference %v", refOfs, got, want)
			}
			if havePrev {
				sum, refSum := ofs.Add(prev.Offset()), sym.Add(refOfs, withoutID(prevRef))
				if got, want := st.EntailsZero(sum), refEntailsZero(st, refSum); got != want {
					fail(e, "EntailsZero(%s) = %v, reference %v", refSum, got, want)
				} else if want {
					cov["offset sum entails zero"]++
				}
			}
			prev, prevRef, havePrev = f, ref, true
		}
		for i, rng := range rngs {
			f, ok := core.AffineAt(st, ps, rng, e)
			ref, rok := refAffineExprRange(st, ps, rng, e)
			if ok != rok {
				fail(e, "AffineAt(%s) ok %v, reference ok %v", rng, ok, rok)
			}
			if !ok {
				cov["refused on a range"]++
				continue
			}
			if got := f.Expr(); !sym.Equal(got, ref) || got.Key() != ref.Key() {
				fail(e, "AffineAt(%s) gives %s, reference %s", rng, got, ref)
			}
			checkReading(t, name, f, ref, cov)
			if i == 0 && havePrevAt {
				d, isConst := f.Sub(prevAt).IsConst()
				rd, risConst := sym.Cmp(ref, prevAtRef)
				if isConst != risConst || isConst && d != rd {
					fail(e, "constant difference with %s: %d %v, reference %d %v", prevAtRef, d, isConst, rd, risConst)
				}
				if isConst {
					cov["constant difference"]++
				}
			}
			if i == 0 {
				prevAt, prevAtRef, havePrevAt = f, ref, true
			}
			if i > 0 && ast.UsesIdent(e, sem.IDVar) {
				cov["id resolved"]++
				if !rng.LB.Primary().IsVarPlus() {
					cov["id resolved to a general atom"]++
				}
			}
		}
	}
}

// checkReading checks a range-mode form's var+c and constant readings
// against its reference polynomial.
func checkReading(t *testing.T, name string, f core.Affine, ref sym.Expr, cov map[string]int) {
	t.Helper()
	c, isConst := f.IsConst()
	rc, risConst := ref.IsConst()
	if isConst != risConst || isConst && c != rc {
		t.Fatalf("%s: %s: IsConst %d %v, reference %d %v", name, ref, c, isConst, rc, risConst)
	}
	v, vc, ok := f.VarPlus()
	rv, rvc, rok := ref.AsVarPlusConst()
	vname := ""
	if ok && v != cg.AtomZero {
		vname = v.String()
	}
	if ok != rok || ok && (vname != rv || vc != rvc) {
		t.Fatalf("%s: %s: VarPlus (%s, %d, %v), reference (%s, %d, %v)", name, ref, vname, vc, ok, rv, rvc, rok)
	}
	switch {
	case core.HasResidual(f):
		cov["residual"]++
	case isConst:
		cov["constant"]++
	case ok:
		cov["var+c"]++
	default:
		cov["affine beyond var+c"]++
	}
}

// TestAffineFormMatchesPolynomial translates every integer expression of
// the paper workloads, every testdata program and the first 100 programs
// of generator pool 1, safe and buggy, as each set of each state the
// one-worker analysis delivers to its table reads it, and compares the form
// with the sym translations it replaced (checkForms). Hand-built states
// then add what the corpus rarely reaches: random expressions over more
// variables than a form holds, and ranges whose singleton atom for id is a
// general polynomial.
func TestAffineFormMatchesPolynomial(t *testing.T) {
	progs := identityPrograms(t, 100)
	var paths []string
	for _, pat := range []string{"../../testdata/*.mpl", "../../testdata/*/*.mpl"} {
		m, err := filepath.Glob(pat)
		if err != nil {
			t.Fatal(err)
		}
		paths = append(paths, m...)
	}
	sort.Strings(paths)
	for _, path := range paths {
		progs = append(progs, identityProgram{name: path, g: loadGraph(t, path)})
	}
	cov := map[string]int{}
	states := 0
	for _, p := range progs {
		exprs := intExprs(p.g)
		var seen []*core.State
		opts := core.WithRevisionHook(core.Options{}, func(_ string, st *core.State) { seen = append(seen, st) })
		opts.Matcher = cartesian.New(core.ScanInvariants(p.g))
		if _, err := core.Analyze(p.g, opts); err != nil {
			t.Fatalf("%s: %v", p.name, err)
		}
		// Every delivered state of a small program, an even sample of at
		// most maxStates states of a large one.
		const maxStates = 30
		step := (len(seen) + maxStates - 1) / maxStates
		for i := 0; i < len(seen); i += step {
			if st := seen[i]; !st.Top {
				states++
				for _, ps := range st.Sets {
					checkForms(t, p.name, st, ps, exprs, cov)
				}
			}
		}
	}
	checkRandomForms(t, cov)
	t.Logf("%d programs, %d states; coverage: %v", len(progs), states, cov)
	for _, k := range []string{"refused", "refused on a range", "id coefficient 0", "id coefficient 1", "id coefficient -1",
		"id coefficient other", "offset sum entails zero", "constant difference", "constant", "var+c", "affine beyond var+c", "residual",
		"id resolved", "id resolved to a general atom"} {
		if cov[k] == 0 {
			t.Errorf("coverage: case %q never reached", k)
		}
	}
}

// checkRandomForms compares random expressions over x, y, z, w, np and id,
// with literals and all five arithmetic operators, on states whose sets sit
// on var+c ranges, on singletons at var+c atoms and on singletons at
// general atoms (2*np, nrows*ncols - 1, np - k).
func checkRandomForms(t *testing.T, cov map[string]int) {
	t.Helper()
	prog, err := parser.Parse("vars.mpl", "x := 1\ny := 2\nz := 3\nw := 4\n")
	if err != nil {
		t.Fatal(err)
	}
	st := core.NewState(cfg.Build(prog).Entry, cg.Options{})
	st.SetAssignedVars(map[string]bool{"x": true, "y": true, "z": true})
	st.G.AddEq(core.PV(0, "x"), "np", -1)
	st.G.SetConst(core.PV(0, "y"), 2)
	rng := rand.New(rand.NewSource(24))
	general := []sym.Expr{
		sym.Scale(sym.Var("np"), 2),
		sym.AddConst(sym.Mul(sym.Var("nrows"), sym.Var("ncols")), -1),
		sym.Sub(sym.Var("np"), sym.Var("k")),
	}
	leaves := []string{"x", "y", "z", "w", "np", "id"}
	var gen func(depth int) ast.Expr
	gen = func(depth int) ast.Expr {
		if depth == 0 || rng.Intn(4) == 0 {
			if rng.Intn(3) == 0 {
				return &ast.IntLit{Value: int64(rng.Intn(9) - 4)}
			}
			return &ast.Ident{Name: leaves[rng.Intn(len(leaves))]}
		}
		if rng.Intn(8) == 0 {
			return &ast.Unary{Op: ast.Neg, X: gen(depth - 1)}
		}
		ops := []ast.BinOp{ast.Add, ast.Add, ast.Sub, ast.Sub, ast.Mul, ast.Div, ast.Mod}
		return &ast.Binary{Op: ops[rng.Intn(len(ops))], L: gen(depth - 1), R: gen(depth - 1)}
	}
	for iter := 0; iter < 2000; iter++ {
		var r procset.Set
		switch rng.Intn(4) {
		case 0:
			r = procset.Range(nil, sym.Zero, sym.VarPlus("np", -1))
		case 1:
			r = procset.Singleton(nil, sym.VarPlus(core.PV(0, "x"), int64(rng.Intn(3)-1)))
		case 2:
			r = procset.Singleton(nil, sym.Const(int64(rng.Intn(4))))
		default:
			r = procset.Singleton(nil, general[rng.Intn(len(general))])
		}
		ps := &core.ProcSet{ID: 0, Node: st.Sets[0].Node, Range: r}
		exprs := make([]ast.Expr, 6)
		for i := range exprs {
			exprs[i] = gen(4)
		}
		checkForms(t, "random", st, ps, exprs, cov)
	}
}
