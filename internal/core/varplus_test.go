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
	"repro/internal/procset"
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
// included, offsets negative and two-digit too), plus 2*np, nrows*ncols,
// -v + c and v - w.
func randOperand(rng *rand.Rand) sym.Expr {
	c := int64(rng.Intn(25) - 12)
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

// TestEntailsLEMatchesReference runs EntailsLE, and its form over bound
// atoms, against the term-reading reference on random operands and random
// constraint graphs (some of them inconsistent). Both answers, and every
// operand shape the fast paths distinguish, must be reached.
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
		if !g.Consistent() {
			cov["inconsistent graph"]++
		}
		got, want := st.EntailsLE(l, r), refEntailsLE(st, l, r)
		if got != want {
			t.Fatalf("EntailsLE(%s, %s) under %v = %v, want %v", l, r, g, got, want)
		}
		if got := core.EntailsLEAtom(st, procset.AtomOf(l), procset.AtomOf(r)); got != want {
			t.Fatalf("EntailsLEAtom(%s, %s) under %v = %v, want %v", l, r, g, got, want)
		}
		cov[fmt.Sprint("result ", want)]++
	}
	t.Logf("coverage: %v", cov)
	for _, k := range []string{"non-var+c", "same variable", "constant side", "two variables", "inconsistent graph",
		"result true", "result false"} {
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
// decided by refEntailsLE over the enriched range. With enrich false it
// decides over the range's own atoms only.
func refCheckCommBounds(st *core.State, ps *core.ProcSet, dir string, expr ast.Expr, enrich bool) core.CommBoundsObs {
	obs := core.CommBoundsObs{Node: ps.Node.ID, Dir: dir, Range: ps.Range.String()}
	e, ok := refAffineExprID(st, ps, expr)
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
	rng := ps.Range
	if enrich {
		rng = rng.Enrich(st.Ctx())
	}
	loAtoms, hiAtoms := exprsOf(rng.LB), exprsOf(rng.UB)
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

// exprsOf returns a bound's atoms as the sym.Expr atoms they replaced.
func exprsOf(b procset.Bound) []sym.Expr {
	var out []sym.Expr
	for _, a := range b.Atoms() {
		out = append(out, a.Expr())
	}
	return out
}

// facet is one partner expression a communication node is checked against.
type facet struct {
	dir  string
	expr ast.Expr
}

// commFacets returns a communication node's facets in the order the engine
// records them: the destination, then the source.
func commFacets(n *cfg.Node) []facet {
	switch n.Kind {
	case cfg.Send:
		return []facet{{"dest", n.Dest}}
	case cfg.Recv:
		return []facet{{"src", n.Src}}
	case cfg.SendRecv:
		return []facet{{"dest", n.Dest}, {"src", n.Src}}
	}
	return nil
}

// TestCommBoundsMatchesReference checks every rank-bounds observation the
// corpus produces — each process set at a communication node in every
// state the one-worker engine delivers to its table — against the fmt
// reference over sym.Expr atoms, Detail included. The same observations
// recorded through the engine's binary-key dedupe, twice over, must keep
// exactly what a dedupe on the reference's rendered fields keeps, in order.
// Every kind of observation, and a repeat of each, must occur. Hand-built
// states then reach the verdicts that only the enriched range decides,
// which CheckCommBounds finds after its proof over the range's own atoms
// fails: a proof, and violations whose witness is an enriched atom.
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
		rec := core.NewBoundsRecorder()
		var kept []core.CommBoundsObs
		seen := map[string]bool{}
		// The second pass repeats every observation of the first.
		for pass := 0; pass < 2; pass++ {
			for _, st := range states {
				for _, ps := range st.Sets {
					rec.Record(st, ps)
					for _, f := range commFacets(ps.Node) {
						got, want := st.CheckCommBounds(ps, f.dir, f.expr), refCheckCommBounds(st, ps, f.dir, f.expr, true)
						if got != want {
							t.Fatalf("%s: CheckCommBounds = %+v, want %+v", p.name, got, want)
						}
						if own := refCheckCommBounds(st, ps, f.dir, f.expr, false); own.Status != want.Status {
							cov["decided by enrichment"]++
						}
						wantKey := fmt.Sprintf("%d|%s|%d|%s|%s", want.Node, want.Dir, want.Status, want.Range, want.Detail)
						kind := got.Status.String()
						switch {
						case strings.HasSuffix(got.Detail, "below rank 0"):
							kind = "violated below"
						case strings.HasSuffix(got.Detail, "beyond the last rank np - 1"):
							kind = "violated beyond"
						}
						cov[kind]++
						if seen[wantKey] {
							cov[kind+" repeated"]++
							continue
						}
						seen[wantKey] = true
						kept = append(kept, want)
					}
				}
			}
		}
		if got := rec.Observations(); fmt.Sprint(got) != fmt.Sprint(kept) {
			t.Fatalf("%s: recorded observations\n%v\nwant\n%v", p.name, got, kept)
		}
	}
	checkEnrichedCommBounds(t, cov)
	t.Logf("coverage: %v", cov)
	for _, k := range []string{"proven", "violated below", "violated beyond", "unknown", "non-affine"} {
		if cov[k] == 0 || cov[k+" repeated"] == 0 {
			t.Errorf("coverage: %d %s observations, %d of them repeats; want both > 0", cov[k], k, cov[k+" repeated"])
		}
	}
	for _, k := range []string{"enriched proven", "enriched violated below", "enriched violated beyond"} {
		if cov[k] == 0 {
			t.Errorf("coverage: no %s observation", k)
		}
	}
}

// checkEnrichedCommBounds checks rank-bounds observations that the range's
// own atoms cannot decide but its enriched atoms can: the target scales id
// by 2, so an end atom over a variable gives a polynomial the constraint
// graph cannot bound, while the constant or var+c atom the graph proves
// equal to it gives a target it can. Each must agree with the reference,
// differ from the reference over the own atoms, and, for a violation, name
// the enriched atom as its witness.
func checkEnrichedCommBounds(t *testing.T, cov map[string]int) {
	t.Helper()
	cases := []struct {
		kind   string
		src    string // one communication statement
		facts  func(g *cg.Graph)
		detail string
	}{
		{"proven", "send x -> 2 * id\n", func(g *cg.Graph) {
			g.SetConst("k", 3)
			g.AddLE(cg.ZeroVar, "np", -7)
		}, "every process in [0..k] targets a rank in [0, np - 1]"},
		{"violated beyond", "send x -> 2 * id\n", func(g *cg.Graph) {
			g.AddEq("k", "np", -1)
			g.AddLE(cg.ZeroVar, "np", -2)
		}, "process np - 1 sends to 2*np - 2, beyond the last rank np - 1"},
		{"violated below", "recv y <- 1 - 2 * id\n", func(g *cg.Graph) {
			g.SetConst("k", 1)
			g.AddLE(cg.ZeroVar, "np", -2)
		}, "process 1 receives from -1, below rank 0"},
	}
	for _, c := range cases {
		prog, err := parser.Parse("enriched.mpl", c.src)
		if err != nil {
			t.Fatal(err)
		}
		g := cfg.Build(prog)
		st := core.NewState(g.Entry, cg.Options{})
		c.facts(st.G)
		node := g.Entry.SuccSeq()
		ps := &core.ProcSet{ID: 0, Node: node, Range: procset.Range(nil, sym.Zero, sym.Var("k")), Blocked: true}
		st.Sets = []*core.ProcSet{ps}
		for _, f := range commFacets(node) {
			got, want := st.CheckCommBounds(ps, f.dir, f.expr), refCheckCommBounds(st, ps, f.dir, f.expr, true)
			if got != want {
				t.Fatalf("%s: CheckCommBounds = %+v, want %+v", c.kind, got, want)
			}
			if own := refCheckCommBounds(st, ps, f.dir, f.expr, false); own.Status == want.Status {
				t.Fatalf("%s: the range's own atoms already decide %+v", c.kind, own)
			}
			if got.Detail != c.detail {
				t.Fatalf("%s: observation %+v, want detail %q", c.kind, got, c.detail)
			}
			cov["enriched "+c.kind]++
		}
	}
}

// TestAppendAtomMatchesAppendExpr pins the identity bytes of a bound atom:
// the atom pair writes exactly what appendExpr writes for the expression
// it replaced, for var+c forms, constants, zero, negative and two-digit
// offsets, and shapes outside var+c.
func TestAppendAtomMatchesAppendExpr(t *testing.T) {
	rng := rand.New(rand.NewSource(19))
	cov := map[string]int{}
	for iter := 0; iter < 20000; iter++ {
		e := randOperand(rng)
		switch v, c, ok := e.AsVarPlusConst(); {
		case !ok:
			cov["non-var+c"]++
		case e.IsZero():
			cov["zero"]++
		case v == "":
			cov["constant"]++
		case c <= -10 || c >= 10:
			cov["two-digit offset"]++
		case c < 0:
			cov["negative offset"]++
		}
		got, want := core.AppendAtom(nil, procset.AtomOf(e)), core.AppendExpr(nil, e)
		if string(got) != string(want) {
			t.Fatalf("identity of %q = %x, want %x", e.Key(), got, want)
		}
	}
	for _, k := range []string{"non-var+c", "zero", "constant", "negative offset", "two-digit offset"} {
		if cov[k] == 0 {
			t.Errorf("coverage: case %q never reached", k)
		}
	}
}
