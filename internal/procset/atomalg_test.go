package procset

import (
	"math/rand"
	"sort"
	"testing"

	"repro/internal/cg"
	"repro/internal/sym"
	"repro/internal/tri"
)

// refBound is the bound representation the atom pairs replaced, kept as
// the reference: sym.Expr atoms, deduplicated and sorted by CompareKey.
type refBound []sym.Expr

// refInsert is the sym.Expr bound's Insert: one pass of CompareKey finds
// both duplicates and the insertion position, and the cap is checked only
// after the search.
func refInsert(b refBound, e sym.Expr) refBound {
	pos := len(b)
	for i, a := range b {
		c := a.CompareKey(e)
		if c == 0 {
			return b
		}
		if c > 0 {
			pos = i
			break
		}
	}
	if len(b) >= maxAtoms {
		return b
	}
	out := make(refBound, 0, len(b)+1)
	out = append(out, b[:pos]...)
	out = append(out, e)
	return append(out, b[pos:]...)
}

// refNew builds a reference bound by successive inserts, as NewBound did.
func refNew(es ...sym.Expr) refBound {
	var b refBound
	for _, e := range es {
		b = refInsert(b, e)
	}
	return b
}

// fromRef converts a reference bound atom by atom, keeping its order.
func fromRef(r refBound) Bound {
	if len(r) == 0 {
		return Bound{}
	}
	atoms := make([]Atom, len(r))
	for i, e := range r {
		atoms[i] = AtomOf(e)
	}
	return Bound{atoms: atoms}
}

// refWitness records x = Var + C, by name.
type refWitness struct {
	Var string
	C   int64
}

// refWitnesses is a fresh scan for x's equality witnesses, sorted by name,
// that bypasses the graph's witness cache.
func refWitnesses(g *cg.Graph, x string) []refWitness {
	if !g.Consistent() || !g.HasVar(x) {
		return nil
	}
	names := append(g.Vars(), cg.ZeroVar)
	sort.Strings(names)
	var out []refWitness
	for _, y := range names {
		if y == x {
			continue
		}
		up, ok1 := g.DiffBound(x, y)
		down, ok2 := g.DiffBound(y, x)
		if ok1 && ok2 && up == -down {
			out = append(out, refWitness{Var: y, C: up})
		}
	}
	return out
}

// refEnrich is the sym.Expr Enrich: it mints an expression for every
// witness and lets refInsert discard duplicates and apply the cap.
func refEnrich(ctx Ctx, b refBound) refBound {
	if ctx.G == nil || len(b) == 0 {
		return b
	}
	out := b
	for _, a := range b {
		v, c, ok := a.AsVarPlusConst()
		if !ok {
			continue
		}
		name := v
		if name == "" {
			name = cg.ZeroVar
		}
		for _, w := range refWitnesses(ctx.G, name) {
			if w.Var == cg.ZeroVar {
				out = refInsert(out, sym.Const(w.C+c))
			} else {
				out = refInsert(out, sym.VarPlus(w.Var, w.C+c))
			}
		}
	}
	return out
}

// refLeq is the sym.Expr LeqAtom: a constant difference by sym.Cmp, else
// name-keyed graph queries on two var+c forms.
func refLeq(ctx Ctx, a, b sym.Expr, slack int64) tri.Bool {
	if d, ok := sym.Cmp(a, b); ok {
		return tri.FromBool(d <= slack)
	}
	va, ca, oka := a.AsVarPlusConst()
	vb, cb, okb := b.AsVarPlusConst()
	if !oka || !okb || ctx.G == nil {
		return tri.Unknown
	}
	if va == "" {
		va = cg.ZeroVar
	}
	if vb == "" {
		vb = cg.ZeroVar
	}
	if ctx.G.Entails(va, vb, cb-ca+slack) {
		return tri.True
	}
	if ctx.G.Entails(vb, va, ca-cb-slack-1) {
		return tri.False
	}
	return tri.Unknown
}

// refComparable is the sym.Expr comparableAtoms.
func refComparable(ctx Ctx, a, b sym.Expr) bool {
	if _, ok := sym.Cmp(a, b); ok {
		return true
	}
	va, _, oka := a.AsVarPlusConst()
	vb, _, okb := b.AsVarPlusConst()
	if !oka || !okb || ctx.G == nil {
		return false
	}
	if va == "" {
		va = cg.ZeroVar
	}
	if vb == "" {
		vb = cg.ZeroVar
	}
	if !ctx.G.HasVar(va) || !ctx.G.HasVar(vb) {
		return false
	}
	if _, ok := ctx.G.DiffBound(va, vb); ok {
		return true
	}
	_, ok := ctx.G.DiffBound(vb, va)
	return ok
}

// keepVarPlus rebuilds a reference bound from exprs, dropping every shape
// outside var+c, as the sym.Expr Subst, SubstAll and OffsetExpr did.
func keepVarPlus(exprs []sym.Expr) refBound {
	var out refBound
	for _, e := range exprs {
		if _, _, ok := e.AsVarPlusConst(); ok {
			out = refInsert(out, e)
		}
	}
	return out
}

func refSubst(b refBound, name string, repl sym.Expr) refBound {
	var out []sym.Expr
	for _, a := range b {
		out = append(out, sym.Subst(a, name, repl))
	}
	return keepVarPlus(out)
}

func refSubstAll(b refBound, env map[string]sym.Expr) refBound {
	var out []sym.Expr
	for _, a := range b {
		out = append(out, sym.SubstAll(a, env))
	}
	return keepVarPlus(out)
}

func refOffsetExpr(b refBound, ofs sym.Expr) refBound {
	var out []sym.Expr
	for _, a := range b {
		out = append(out, sym.Add(a, ofs))
	}
	return keepVarPlus(out)
}

func refOffset(b refBound, c int64) refBound {
	var out refBound
	for _, a := range b {
		out = refInsert(out, sym.AddConst(a, c))
	}
	return out
}

func refDropUses(b refBound, name string) refBound {
	var out refBound
	for _, a := range b {
		if !a.Uses(name) {
			out = refInsert(out, a)
		}
	}
	return out
}

func refIntersect(b, o refBound) refBound {
	var out refBound
	for _, a := range b {
		for _, x := range o {
			if sym.Equal(a, x) {
				out = refInsert(out, a)
				break
			}
		}
	}
	return out
}

// sameAtoms reports whether b holds exactly the reference's atoms in its
// order, compared by key and by rendering.
func sameAtoms(b Bound, r refBound) bool {
	if len(b.atoms) != len(r) {
		return false
	}
	for i, a := range b.atoms {
		if a.Expr().Key() != r[i].Key() || a.String() != r[i].String() {
			return false
		}
	}
	return true
}

func keysOf(b Bound) []string {
	out := make([]string, len(b.atoms))
	for i, a := range b.atoms {
		out[i] = a.Expr().Key()
	}
	return out
}

func refKeys(r refBound) []string {
	out := make([]string, len(r))
	for i, e := range r {
		out[i] = e.Key()
	}
	return out
}

var atomVars = []string{"i", "j", "np", "k0", "x", "ps1.i"}

// randAtom draws an atom expression. Offsets run over [-12, 12], so
// negative and two-digit offsets occur, whose key order is not numeric.
// Besides var+c forms there are constants, zero, a variable no graph sees,
// and shapes outside var+c: 2*np + c, nrows*ncols, -v + c and v + w.
func randAtom(rng *rand.Rand) sym.Expr {
	c := int64(rng.Intn(25) - 12)
	v := atomVars[rng.Intn(len(atomVars))]
	switch r := rng.Intn(24); {
	case r == 0:
		return sym.AddConst(sym.Scale(sym.Var("np"), 2), c)
	case r == 1:
		return sym.Mul(sym.Var("nrows"), sym.Var("ncols"))
	case r == 2:
		return sym.AddConst(sym.Neg(sym.Var(v)), c)
	case r == 3:
		return sym.Add(sym.Var(v), sym.Var(atomVars[rng.Intn(len(atomVars))]))
	case r == 4:
		return sym.VarPlus("unbound", c)
	case r == 5:
		return sym.Zero
	case r < 10:
		return sym.Const(c)
	default:
		return sym.VarPlus(v, c)
	}
}

// randRef draws a reference bound of 1 to 11 insertions, so some reach the
// cap.
func randRef(rng *rand.Rand) refBound {
	var b refBound
	for n := 1 + rng.Intn(11); n > 0; n-- {
		b = refInsert(b, randAtom(rng))
	}
	return b
}

// randGraph draws a small constraint graph rich in equalities, so bounds
// have many witnesses, including constant (ZeroVar) ones and two-digit
// offsets. Some draws end up inconsistent.
func randGraph(rng *rand.Rand) *cg.Graph {
	g := cg.NewDefault()
	for n := rng.Intn(7); n > 0; n-- {
		x := atomVars[rng.Intn(len(atomVars))]
		y := atomVars[rng.Intn(len(atomVars))]
		c := int64(rng.Intn(25) - 12)
		switch rng.Intn(4) {
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
	return g
}

// noteAtomShapes counts the atom classes a reference bound exercises.
func noteAtomShapes(cov map[string]int, r refBound) {
	if len(r) == maxAtoms {
		cov["bound at cap"]++
	}
	for i, e := range r {
		v, c, ok := e.AsVarPlusConst()
		switch {
		case !ok:
			cov["non-var+c atom"]++
		case e.IsZero():
			cov["zero"]++
		case v == "":
			cov["constant"]++
		case c < 0:
			cov["negative offset"]++
		case c >= 10:
			cov["two-digit offset"]++
		}
		// Key order is not numeric order: 2|1*x sorts after 10|1*y.
		if i > 0 {
			_, pc, pok := r[i-1].AsVarPlusConst()
			if ok && pok && pc > c {
				cov["key order not numeric"]++
			}
		}
	}
}

// TestAtomRepresentationMatchesExpr pins the three equivalences the atom
// pairs keep with the sym.Expr atoms they replaced: key order
// (compareAtoms against CompareKey, and the key bytes themselves), the
// rendering (String, byte for byte), and equality and constant differences
// (Equal against sym.Equal, ConstDiff against sym.Cmp). The identity bytes
// are pinned in core, which writes them.
func TestAtomRepresentationMatchesExpr(t *testing.T) {
	for _, tc := range []struct {
		e    sym.Expr
		want string
	}{
		{sym.Var("x"), "x"}, {sym.VarPlus("x", 3), "x + 3"}, {sym.VarPlus("x", -3), "x - 3"},
		{sym.Const(-3), "-3"}, {sym.Zero, "0"}, {sym.Const(12), "12"},
	} {
		if got := AtomOf(tc.e).String(); got != tc.want || got != tc.e.String() {
			t.Errorf("AtomOf(%q).String() = %q, want %q", tc.e.Key(), got, tc.want)
		}
	}
	// Key order is not numeric order.
	ordered := []Atom{AtomOf(sym.VarPlus("x", -1)), AtomOf(sym.Var("y")), AtomOf(sym.VarPlus("a", 10))}
	for i := 1; i < len(ordered); i++ {
		if compareAtoms(ordered[i-1], ordered[i]) >= 0 {
			t.Errorf("%s does not sort before %s", ordered[i-1], ordered[i])
		}
	}

	// Every pair of a grid of names and offsets around the digit-count
	// boundaries orders as its keys do.
	var grid []sym.Expr
	for _, v := range []string{"", "a", "b", "ab", "k0", "ps1.i", "$p0"} {
		for _, c := range []int64{-1000, -101, -100, -99, -11, -10, -9, -2, -1, 0, 1, 2, 9, 10, 11, 19, 99, 100, 101, 1000} {
			if v == "" {
				grid = append(grid, sym.Const(c))
			} else {
				grid = append(grid, sym.VarPlus(v, c))
			}
		}
	}
	grid = append(grid, sym.Scale(sym.Var("np"), 2), sym.AddConst(sym.Scale(sym.Var("np"), 2), -1),
		sym.Mul(sym.Var("nrows"), sym.Var("ncols")))
	for _, a := range grid {
		for _, b := range grid {
			got, want := compareAtoms(AtomOf(a), AtomOf(b)), a.CompareKey(b)
			if (got < 0) != (want < 0) || (got == 0) != (want == 0) {
				t.Fatalf("compareAtoms(%q, %q) = %d, want the sign of %d", a.Key(), b.Key(), got, want)
			}
		}
	}

	rng := rand.New(rand.NewSource(17))
	cov := map[string]int{}
	for iter := 0; iter < 20000; iter++ {
		a, b := randAtom(rng), randAtom(rng)
		if rng.Intn(8) == 0 {
			b = sym.AddConst(a, 0) // an equal expression built apart
		}
		x, y := AtomOf(a), AtomOf(b)
		noteAtomShapes(cov, refBound{a})
		if x.IsVarPlus() {
			cov["var+c pair"]++
		}
		var buf [64]byte
		if got := string(x.appendKey(buf[:0])); got != a.Key() {
			t.Fatalf("key of %s = %q, want %q", a, got, a.Key())
		}
		if got, want := x.String(), a.String(); got != want {
			t.Fatalf("String of %q = %q, want %q", a.Key(), got, want)
		}
		if e := x.Expr(); !sym.Equal(e, a) || e.Key() != a.Key() {
			t.Fatalf("Expr of %q = %q", a.Key(), e.Key())
		}
		got, want := compareAtoms(x, y), a.CompareKey(b)
		if (got < 0) != (want < 0) || (got == 0) != (want == 0) {
			t.Fatalf("compareAtoms(%q, %q) = %d, want the sign of %d", a.Key(), b.Key(), got, want)
		}
		if want == 0 {
			cov["equal keys"]++
		}
		if got, want := x.Equal(y), sym.Equal(a, b); got != want {
			t.Fatalf("Equal(%q, %q) = %v, want %v", a.Key(), b.Key(), got, want)
		}
		gd, gok := x.ConstDiff(y)
		wd, wok := sym.Cmp(a, b)
		if gd != wd || gok != wok {
			t.Fatalf("ConstDiff(%q, %q) = %d,%v, want %d,%v", a.Key(), b.Key(), gd, gok, wd, wok)
		}
		if wok && !x.IsVarPlus() {
			cov["constant difference of non-var+c"]++
		}
	}
	t.Logf("coverage: %v", cov)
	for _, k := range []string{"var+c pair", "non-var+c atom", "constant", "zero", "negative offset",
		"two-digit offset", "equal keys", "constant difference of non-var+c"} {
		if cov[k] == 0 {
			t.Errorf("coverage: case %q never reached", k)
		}
	}
}

// TestAtomAlgebraMatchesReference runs NewBound and Enrich against the
// sym.Expr reference on random bounds and graphs and requires identical
// atom sequences. The sweep must reach the 8-atom cap, constant witnesses,
// contradictory atom classes, enrichments that add several atoms, and
// every atom class (non-var+c, constants, zero, negative and two-digit
// offsets, key order that is not numeric).
func TestAtomAlgebraMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	cov := map[string]int{}
	for iter := 0; iter < 20000; iter++ {
		ctx := Ctx{G: randGraph(rng)}
		var exprs []sym.Expr
		for n := 1 + rng.Intn(12); n > 0; n-- {
			e := randAtom(rng)
			if rng.Intn(4) == 0 && len(exprs) > 0 {
				e = sym.AddConst(exprs[rng.Intn(len(exprs))], 0) // a duplicate
			}
			exprs = append(exprs, e)
		}
		ref := refNew(exprs...)
		b := NewBound(nil, exprs...)
		if !sameAtoms(b, ref) {
			t.Fatalf("NewBound(%v) = %v, want %v", exprs, keysOf(b), refKeys(ref))
		}
		got, want := ctx.Enrich(b), refEnrich(ctx, ref)
		if !sameAtoms(got, want) {
			t.Fatalf("Enrich(%v) under %v = %v, want %v", refKeys(ref), ctx.G, keysOf(got), refKeys(want))
		}
		if again := ctx.Enrich(got); !sameAtoms(again, want) {
			t.Fatalf("Enrich not idempotent: %v -> %v", keysOf(got), keysOf(again))
		}
		noteAtomShapes(cov, want)
		if len(want) >= len(ref)+2 {
			cov["enrich adds several"]++
		}
		if ctx.Contradictory(got) {
			cov["contradictory"]++
		}
		for _, a := range ref {
			if v, _, ok := a.AsVarPlusConst(); ok && v != "" && ctx.G.HasVar(v) {
				if _, ok := ctx.G.ConstVal(v); ok {
					cov["constant witness"]++
					break
				}
			}
		}
	}
	t.Logf("coverage: %v", cov)
	for _, k := range []string{"bound at cap", "non-var+c atom", "constant", "zero", "negative offset", "two-digit offset",
		"key order not numeric", "enrich adds several", "contradictory", "constant witness"} {
		if cov[k] == 0 {
			t.Errorf("coverage: case %q never reached", k)
		}
	}
}

var exprVars = []string{"i", "j", "np", "nrows", "ncols", "ps1.i"}

// randExpr draws mostly var+c expressions (constants and zero included),
// plus shapes outside var+c: 2*np, nrows*ncols, -v + c and v + w.
func randExpr(rng *rand.Rand) sym.Expr {
	c := int64(rng.Intn(9) - 4)
	v := exprVars[rng.Intn(len(exprVars))]
	switch rng.Intn(12) {
	case 0:
		return sym.AddConst(sym.Scale(sym.Var("np"), 2), c)
	case 1:
		return sym.Mul(sym.Var("nrows"), sym.Var("ncols"))
	case 2:
		return sym.AddConst(sym.Neg(sym.Var(v)), c)
	case 3:
		return sym.Add(sym.Var(v), sym.Var(exprVars[rng.Intn(len(exprVars))]))
	case 4, 5:
		return sym.Const(c)
	default:
		return sym.Add(sym.Var(v), sym.Const(c))
	}
}

func sameExpr(a, b sym.Expr) bool { return sym.Equal(a, b) && a.Key() == b.Key() }

// refSymSubst is the general sym.Subst: rebuild every monomial by products.
func refSymSubst(e sym.Expr, name string, repl sym.Expr) sym.Expr {
	if !e.Uses(name) {
		return e
	}
	out := sym.Zero
	for _, t := range e.Terms() {
		mono := sym.Const(t.Coef)
		for _, v := range t.Vars {
			if v == name {
				mono = sym.Mul(mono, repl)
			} else {
				mono = sym.Mul(mono, sym.Var(v))
			}
		}
		out = sym.Add(out, mono)
	}
	return out
}

// TestVarPlusFastPathsMatchReference runs every operation that works on
// the atom pairs — Intersect, Subst, Rename, DropUses, Offset,
// OffsetExpr, the atom comparison behind LeqBound and Contradictory, and
// comparableAtoms behind Coherent — against the sym.Expr reference, on
// random bounds, substitutions and graphs, and requires identical results.
// The var+c fast paths inside sym (Cmp, VarPlus, Subst) are checked against
// the general algebra too. Every case the fast paths distinguish must be
// reached.
func TestVarPlusFastPathsMatchReference(t *testing.T) {
	rng := rand.New(rand.NewSource(15))
	cov := map[string]int{}
	for iter := 0; iter < 20000; iter++ {
		a, b := randExpr(rng), randExpr(rng)
		va, _, okA := a.AsVarPlusConst()
		vb, _, okB := b.AsVarPlusConst()
		wd, wok := sym.Sub(a, b).IsConst()
		switch {
		case !okA || !okB:
			if wok {
				cov["cmp non-var+c constant"]++
			} else {
				cov["cmp non-var+c"]++
			}
		case va == vb:
			cov["cmp same var"]++
		default:
			cov["cmp different var"]++
		}
		if gd, gok := sym.Cmp(a, b); gd != wd || gok != wok {
			t.Fatalf("Cmp(%s, %s) = %d,%v, want %d,%v", a, b, gd, gok, wd, wok)
		}
		name := atomVars[rng.Intn(len(atomVars))]
		c := int64(rng.Intn(25) - 12)
		if got, want := sym.VarPlus(name, c), sym.Add(sym.Var(name), sym.Const(c)); !sameExpr(got, want) {
			t.Fatalf("VarPlus(%s, %d) = %q, want %q", name, c, got.Key(), want.Key())
		}
		repl := randAtom(rng)
		switch {
		case !okA:
			cov["subst non-var+c"]++
		case va == name:
			cov["subst hit"]++
		default:
			cov["subst miss"]++
		}
		if got, want := sym.Subst(a, name, repl), refSymSubst(a, name, repl); !sameExpr(got, want) {
			t.Fatalf("Subst(%s, %s, %s) = %q, want %q", a, name, repl, got.Key(), want.Key())
		}

		xr, yr := randRef(rng), randRef(rng)
		switch rng.Intn(3) {
		case 0: // y holds every atom of x
			for _, e := range xr {
				yr = append(yr, e)
			}
		case 1:
			yr = xr
		}
		x, y := fromRef(xr), fromRef(yr)
		noteAtomShapes(cov, xr)
		want := refIntersect(xr, yr)
		switch {
		case len(want) == len(xr):
			cov["intersect keeps all"]++
		case len(want) == 0:
			cov["intersect keeps none"]++
		default:
			cov["intersect filters"]++
		}
		if got := x.Intersect(nil, y); !sameAtoms(got, want) {
			t.Fatalf("Intersect(%v, %v) = %v, want %v", refKeys(xr), refKeys(yr), keysOf(got), refKeys(want))
		}

		want = refSubst(xr, name, repl)
		if got := x.Subst(nil, name, repl); !sameAtoms(got, want) {
			t.Fatalf("Subst(%v, %s, %s) = %v, want %v", refKeys(xr), name, repl, keysOf(got), refKeys(want))
		} else if len(got.atoms) > 0 && &got.atoms[0] == &x.atoms[0] {
			cov["subst unchanged"]++
		} else {
			cov["subst rebuilt"]++
		}

		env := map[string]sym.Expr{}
		var from, to []cg.Atom
		for n := rng.Intn(3); n >= 0; n-- {
			v, w := atomVars[rng.Intn(len(atomVars))], atomVars[rng.Intn(len(atomVars))]
			if _, dup := env[v]; !dup {
				env[v] = sym.Var(w)
				from, to = append(from, cg.Intern(v)), append(to, cg.Intern(w))
			}
		}
		want = refSubstAll(xr, env)
		if got, _ := x.Rename(nil, from, to); !sameAtoms(got, want) {
			t.Fatalf("Rename(%v, %v) = %v, want %v", refKeys(xr), env, keysOf(got), refKeys(want))
		}

		want = refDropUses(xr, name)
		if got := x.DropUses(nil, name); !sameAtoms(got, want) {
			t.Fatalf("DropUses(%v, %s) = %v, want %v", refKeys(xr), name, keysOf(got), refKeys(want))
		}
		if got, want := x.Offset(nil, c), refOffset(xr, c); !sameAtoms(got, want) {
			t.Fatalf("Offset(%v, %d) = %v, want %v", refKeys(xr), c, keysOf(got), refKeys(want))
		}
		ofs := randAtom(rng)
		if got, want := x.OffsetExpr(nil, ofs), refOffsetExpr(xr, ofs); !sameAtoms(got, want) {
			t.Fatalf("OffsetExpr(%v, %s) = %v, want %v", refKeys(xr), ofs, keysOf(got), refKeys(want))
		}

		ctx := Ctx{G: randGraph(rng)}
		if rng.Intn(8) == 0 {
			ctx.G = nil
		}
		slack := int64(rng.Intn(5) - 2)
		for i, ea := range xr {
			for j, eb := range yr {
				got, want := ctx.LeqAtom(x.atoms[i], y.atoms[j], slack), refLeq(ctx, ea, eb, slack)
				if got != want {
					t.Fatalf("LeqAtom(%s, %s, %d) under %v = %v, want %v", ea, eb, slack, ctx.G, got, want)
				}
				cov["leq "+want.String()]++
				if got, want := ctx.comparableAtoms(x.atoms[i], y.atoms[j]), refComparable(ctx, ea, eb); got != want {
					t.Fatalf("comparableAtoms(%s, %s) under %v = %v, want %v", ea, eb, ctx.G, got, want)
				}
			}
		}
	}
	t.Logf("coverage: %v", cov)
	for _, k := range []string{"cmp non-var+c", "cmp non-var+c constant", "cmp same var", "cmp different var",
		"subst non-var+c", "subst hit", "subst miss",
		"bound at cap", "non-var+c atom", "constant", "zero", "negative offset", "two-digit offset",
		"key order not numeric", "intersect keeps all", "intersect keeps none", "intersect filters",
		"subst unchanged", "subst rebuilt", "leq true", "leq false", "leq unknown"} {
		if cov[k] == 0 {
			t.Errorf("coverage: case %q never reached", k)
		}
	}
}

// TestAtomAlgebraZeroAlloc gates the fast path the fixpoint runs on every
// join and widen: re-enriching an enriched bound must not allocate.
func TestAtomAlgebraZeroAlloc(t *testing.T) {
	ctx := ctxWith(func(g *cg.Graph) {
		g.SetConst("i", 1)
		g.AddEq("j", "np", -1)
		g.AddEq("k0", "i", 2)
	})
	b := ctx.Enrich(NewBound(nil, sym.VarPlus("i", 0), sym.VarPlus("j", 1)))
	if len(b.atoms) < 4 {
		t.Fatalf("enriched bound too small to exercise the fast path: %v", keysOf(b))
	}
	if n := testing.AllocsPerRun(1000, func() { _ = ctx.Enrich(b) }); n != 0 {
		t.Errorf("Enrich of an enriched bound allocates %v per op, want 0", n)
	}
}

// TestVarPlusFastPathsAllocs gates the allocations of the bound algebra:
// an enrichment that adds atoms allocates once (the merged list), an
// intersection that keeps every atom and a substitution no atom uses
// allocate nothing, and a substitution that rebuilds a bound allocates at
// most once.
func TestVarPlusFastPathsAllocs(t *testing.T) {
	ctx := ctxWith(func(g *cg.Graph) {
		g.SetConst("i", 1)
		g.AddEq("j", "np", -1)
		g.AddEq("k0", "i", 2)
		g.AddEq("x", "j", 3)
	})
	fresh := NewBound(nil, sym.VarPlus("i", 0), sym.VarPlus("j", 1))
	enriched := ctx.Enrich(fresh)
	if k := len(enriched.atoms) - len(fresh.atoms); k < 3 {
		t.Fatalf("enrichment adds %d atoms, want several: %v", k, keysOf(enriched))
	}
	if n := testing.AllocsPerRun(1000, func() { _ = ctx.Enrich(fresh) }); n != 1 {
		t.Errorf("Enrich adding atoms allocates %v per op, want 1", n)
	}
	if n := testing.AllocsPerRun(1000, func() { _ = enriched.Intersect(nil, enriched) }); n != 0 {
		t.Errorf("Intersect keeping every atom allocates %v per op, want 0", n)
	}
	repl := sym.VarPlus("y", 2)
	if n := testing.AllocsPerRun(1000, func() { _ = enriched.Subst(nil, "unused", repl) }); n != 0 {
		t.Errorf("Subst of a name no atom uses allocates %v per op, want 0", n)
	}
	sub := enriched.Subst(nil, "np", repl)
	if !sub.Uses("y") || sub.StringAll() == enriched.StringAll() {
		t.Fatalf("Subst(np) did not rebuild %v: %v", enriched.StringAll(), sub.StringAll())
	}
	if n := testing.AllocsPerRun(1000, func() { _ = enriched.Subst(nil, "np", repl) }); n > 1 {
		t.Errorf("Subst rebuilding a bound allocates %v per op, want at most 1", n)
	}
}

// BenchmarkEnrich measures enriching a fresh bound and re-enriching the
// result, the two shapes EnrichEverywhere sees under join and widen.
func BenchmarkEnrich(b *testing.B) {
	ctx := ctxWith(func(g *cg.Graph) {
		g.SetConst("i", 1)
		g.AddEq("j", "np", -1)
		g.AddEq("k0", "i", 2)
		g.AddEq("x", "j", 3)
	})
	fresh := NewBound(nil, sym.VarPlus("i", 0), sym.VarPlus("j", 1))
	enriched := ctx.Enrich(fresh)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_ = ctx.Enrich(fresh)
		_ = ctx.Enrich(enriched)
	}
}
