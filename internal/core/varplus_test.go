package core_test

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"repro/internal/ast"
	"repro/internal/cfg"
	"repro/internal/cg"
	"repro/internal/clients/cartesian"
	"repro/internal/core"
	"repro/internal/parser"
	"repro/internal/sym"
)

// refEntailsLE is the EntailsLE the var+c fast path replaced: it reads the
// difference r - l term by term.
func refEntailsLE(st *core.State, l, r sym.Expr) bool {
	d := sym.Sub(r, l)
	var pos, neg string
	var c int64
	for _, t := range d.Terms() {
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

var entailVars = []string{"i", "j", "np", "k0"}

// randOperand draws mostly var+c expressions (constants and zero
// included), plus 2*np, nrows*ncols, -v + c and v - w.
func randOperand(rng *rand.Rand) sym.Expr {
	c := int64(rng.Intn(9) - 4)
	v := entailVars[rng.Intn(len(entailVars))]
	switch rng.Intn(10) {
	case 0:
		return sym.AddConst(sym.Scale(sym.Var("np"), 2), c)
	case 1:
		return sym.Mul(sym.Var("nrows"), sym.Var("ncols"))
	case 2:
		return sym.AddConst(sym.Neg(sym.Var(v)), c)
	case 3:
		return sym.Sub(sym.Var(v), sym.Var(entailVars[rng.Intn(len(entailVars))]))
	case 4, 5:
		return sym.Const(c)
	default:
		return sym.AddConst(sym.Var(v), c)
	}
}

func entryState(t *testing.T) *core.State {
	t.Helper()
	prog, err := parser.Parse("t.mpl", "x := 1\n")
	if err != nil {
		t.Fatal(err)
	}
	return core.NewState(cfg.Build(prog).Entry, cg.Options{})
}

// TestEntailsLEMatchesReference runs EntailsLE against the term-reading
// reference on random operands and random constraint graphs (some of them
// inconsistent). Both answers, and every operand shape the fast path
// distinguishes, must be reached.
func TestEntailsLEMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(15))
	st := entryState(t)
	cov := map[string]int{}
	for iter := 0; iter < 20000; iter++ {
		g := cg.NewDefault()
		for n := rng.Intn(6); n > 0; n-- {
			x := entailVars[rng.Intn(len(entailVars))]
			y := entailVars[rng.Intn(len(entailVars))]
			c := int64(rng.Intn(7) - 3)
			switch rng.Intn(3) {
			case 0:
				g.SetConst(x, c)
			case 1:
				g.AddLE(x, y, c)
			default:
				if x != y {
					g.AddEq(x, y, c)
				}
			}
		}
		st.G = g
		l, r := randOperand(rng), randOperand(rng)
		vl, _, okl := l.AsVarPlusConst()
		vr, _, okr := r.AsVarPlusConst()
		switch {
		case !okl || !okr:
			cov["non-var+c"]++
		case vl == vr:
			cov["same variable"]++
		case vl == "" || vr == "":
			cov["constant side"]++
		default:
			cov["two variables"]++
		}
		got, want := st.EntailsLE(l, r), refEntailsLE(st, l, r)
		if got != want {
			t.Fatalf("EntailsLE(%s, %s) under %v = %v, want %v", l, r, g, got, want)
		}
		cov[fmt.Sprint("result ", want)]++
	}
	t.Logf("coverage: %v", cov)
	for _, k := range []string{"non-var+c", "same variable", "constant side", "two variables", "result true", "result false"} {
		if cov[k] == 0 {
			t.Errorf("coverage: case %q never reached", k)
		}
	}
}

// TestEntailsLEZeroAlloc gates the rank-bounds query on var+c operands.
func TestEntailsLEZeroAlloc(t *testing.T) {
	st := entryState(t)
	st.G.AddEq("i", "np", -1)
	l, r, k := sym.VarPlus("i", 1), sym.Var("np"), sym.Const(-1)
	if n := testing.AllocsPerRun(1000, func() {
		_ = st.EntailsLE(l, r)
		_ = st.EntailsLE(k, l)
		_ = st.EntailsLE(r, r)
	}); n != 0 {
		t.Errorf("EntailsLE on var+c operands allocates %v per op, want 0", n)
	}
}

// refCheckCommBounds is CheckCommBounds as it was before its strings were
// concatenated: every Detail is formatted with fmt, and the bounds are
// decided by refEntailsLE.
func refCheckCommBounds(st *core.State, ps *core.ProcSet, dir string, expr ast.Expr) core.CommBoundsObs {
	obs := core.CommBoundsObs{Node: ps.Node.ID, Dir: dir, Range: ps.Range.String()}
	e, ok := st.AffineExprID(ps, expr)
	if !ok {
		obs.Status = core.BoundsNonAffine
		obs.Detail = "target expression is outside the affine fragment"
		return obs
	}
	var a int64
	for _, t := range e.Terms() {
		uses := false
		for _, v := range t.Vars {
			if v == core.IDMarker {
				uses = true
			}
		}
		if !uses {
			continue
		}
		if len(t.Vars) != 1 {
			obs.Status = core.BoundsNonAffine
			obs.Detail = "target multiplies id with another variable"
			return obs
		}
		a += t.Coef
	}
	rng := ps.Range.Enrich(st.Ctx())
	loAtoms, hiAtoms := rng.LB.Atoms(), rng.UB.Atoms()
	if a < 0 {
		loAtoms, hiAtoms = hiAtoms, loAtoms
	}
	if a == 0 {
		loAtoms, hiAtoms = []sym.Expr{sym.Zero}, []sym.Expr{sym.Zero}
	}
	verb := "sends to"
	if dir == "src" {
		verb = "receives from"
	}
	npTop := sym.VarPlus("np", -1)
	loOK, hiOK := false, false
	for _, atom := range loAtoms {
		if refEntailsLE(st, sym.Zero, sym.Subst(e, core.IDMarker, atom)) {
			loOK = true
			break
		}
	}
	for _, atom := range hiAtoms {
		if refEntailsLE(st, sym.Subst(e, core.IDMarker, atom), npTop) {
			hiOK = true
			break
		}
	}
	if loOK && hiOK {
		obs.Status = core.BoundsProven
		obs.Detail = fmt.Sprintf("every process in %s targets a rank in [0, np - 1]", obs.Range)
		return obs
	}
	for _, atom := range hiAtoms {
		v := sym.Subst(e, core.IDMarker, atom)
		if refEntailsLE(st, sym.Var("np"), v) {
			obs.Status = core.BoundsViolated
			obs.Detail = fmt.Sprintf("process %s %s %s, beyond the last rank np - 1", atom, verb, v)
			return obs
		}
	}
	for _, atom := range loAtoms {
		v := sym.Subst(e, core.IDMarker, atom)
		if refEntailsLE(st, v, sym.Const(-1)) {
			obs.Status = core.BoundsViolated
			obs.Detail = fmt.Sprintf("process %s %s %s, below rank 0", atom, verb, v)
			return obs
		}
	}
	obs.Status = core.BoundsUnknown
	obs.Detail = fmt.Sprintf("cannot prove the target stays in [0, np - 1] for %s", obs.Range)
	return obs
}

// commFacets returns the partner expressions a node at a communication
// operation is checked against, by direction, as the engine's own helper.
func commFacets(n *cfg.Node) map[string]ast.Expr {
	switch n.Kind {
	case cfg.Send:
		return map[string]ast.Expr{"dest": n.Dest}
	case cfg.Recv:
		return map[string]ast.Expr{"src": n.Src}
	case cfg.SendRecv:
		return map[string]ast.Expr{"dest": n.Dest, "src": n.Src}
	}
	return nil
}

// TestCommBoundsMatchesReference checks every rank-bounds observation the
// corpus produces — each process set at a communication node in every
// state the one-worker engine delivers to its table — against the fmt
// reference, Detail and dedupe key included. Every kind of observation
// must occur.
func TestCommBoundsMatchesReference(t *testing.T) {
	cov := map[string]int{}
	progs := identityPrograms(t, 40)
	// Unguarded shifts both ways, so both kinds of violation occur.
	for _, src := range []string{"send x -> id + 1\nrecv y <- id - 1\n", "send x -> id - 1\nrecv y <- id + 1\n"} {
		prog, err := parser.Parse("shift.mpl", src)
		if err != nil {
			t.Fatal(err)
		}
		progs = append(progs, identityProgram{name: src, g: cfg.Build(prog)})
	}
	for _, p := range progs {
		var states []*core.State
		opts := core.WithRevisionHook(core.Options{}, func(_ string, st *core.State) { states = append(states, st) })
		opts.Matcher = cartesian.New(core.ScanInvariants(p.g))
		if _, err := core.Analyze(p.g, opts); err != nil {
			t.Fatalf("%s: %v", p.name, err)
		}
		for _, st := range states {
			for _, ps := range st.Sets {
				for dir, expr := range commFacets(ps.Node) {
					got, want := st.CheckCommBounds(ps, dir, expr), refCheckCommBounds(st, ps, dir, expr)
					if got != want {
						t.Fatalf("%s: CheckCommBounds = %+v, want %+v", p.name, got, want)
					}
					wantKey := fmt.Sprintf("%d|%s|%d|%s|%s", want.Node, want.Dir, want.Status, want.Range, want.Detail)
					if key := core.BoundsObsKey(got); key != wantKey {
						t.Fatalf("%s: key %q, want %q", p.name, key, wantKey)
					}
					switch {
					case strings.HasSuffix(got.Detail, "below rank 0"):
						cov["violated below"]++
					case strings.HasSuffix(got.Detail, "beyond the last rank np - 1"):
						cov["violated beyond"]++
					default:
						cov[got.Status.String()]++
					}
				}
			}
		}
	}
	t.Logf("coverage: %v", cov)
	for _, k := range []string{"proven", "violated below", "violated beyond", "unknown", "non-affine"} {
		if cov[k] == 0 {
			t.Errorf("coverage: no %s observation", k)
		}
	}
}
