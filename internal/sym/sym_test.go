package sym

import (
	"math/rand"
	"strconv"
	"strings"
	"testing"
	"testing/quick"
)

func TestConstArithmetic(t *testing.T) {
	a := Const(3)
	b := Const(4)
	if got, _ := Add(a, b).IsConst(); got != 7 {
		t.Errorf("3+4 = %d", got)
	}
	if got, _ := Mul(a, b).IsConst(); got != 12 {
		t.Errorf("3*4 = %d", got)
	}
	if got, _ := Sub(a, b).IsConst(); got != -1 {
		t.Errorf("3-4 = %d", got)
	}
	if !Zero.IsZero() {
		t.Error("Zero not zero")
	}
	if v, ok := Zero.IsConst(); !ok || v != 0 {
		t.Error("Zero not const 0")
	}
}

func TestNormalization(t *testing.T) {
	// x + y - x == y
	e := Sub(Add(Var("x"), Var("y")), Var("x"))
	if !Equal(e, Var("y")) {
		t.Errorf("x+y-x = %v", e)
	}
	// 2x - x - x == 0
	e = Sub(Sub(Scale(Var("x"), 2), Var("x")), Var("x"))
	if !e.IsZero() {
		t.Errorf("2x-x-x = %v", e)
	}
}

func TestMulCommutesAndDistributes(t *testing.T) {
	x, y, z := Var("x"), Var("y"), Var("z")
	if !Equal(Mul(x, y), Mul(y, x)) {
		t.Error("xy != yx")
	}
	if !Equal(Mul(x, Add(y, z)), Add(Mul(x, y), Mul(x, z))) {
		t.Error("x(y+z) != xy+xz")
	}
	// (x+1)*(x-1) = x^2 - 1
	sq := Mul(Add(x, One), Sub(x, One))
	want := Sub(Mul(x, x), One)
	if !Equal(sq, want) {
		t.Errorf("(x+1)(x-1) = %v, want %v", sq, want)
	}
}

func TestAsVarPlusConst(t *testing.T) {
	cases := []struct {
		e  Expr
		v  string
		c  int64
		ok bool
	}{
		{Const(5), "", 5, true},
		{Zero, "", 0, true},
		{Var("i"), "i", 0, true},
		{VarPlus("i", 3), "i", 3, true},
		{VarPlus("i", -2), "i", -2, true},
		{Scale(Var("i"), 2), "", 0, false},
		{Add(Var("i"), Var("j")), "", 0, false},
		{Mul(Var("i"), Var("i")), "", 0, false},
	}
	for _, c := range cases {
		v, k, ok := c.e.AsVarPlusConst()
		if ok != c.ok || (ok && (v != c.v || k != c.c)) {
			t.Errorf("AsVarPlusConst(%v) = %q,%d,%v; want %q,%d,%v", c.e, v, k, ok, c.v, c.c, c.ok)
		}
	}
}

func TestSubst(t *testing.T) {
	// np -> nrows*ncols in np - nrows
	e := Sub(Var("np"), Var("nrows"))
	got := Subst(e, "np", Mul(Var("nrows"), Var("ncols")))
	want := Sub(Mul(Var("ncols"), Var("nrows")), Var("nrows"))
	if !Equal(got, want) {
		t.Errorf("subst = %v, want %v", got, want)
	}
	// Substituting in a squared occurrence: x*x with x -> y+1 = y^2+2y+1
	sq := Mul(Var("x"), Var("x"))
	got = Subst(sq, "x", Add(Var("y"), One))
	want = Add(Add(Mul(Var("y"), Var("y")), Scale(Var("y"), 2)), One)
	if !Equal(got, want) {
		t.Errorf("subst sq = %v, want %v", got, want)
	}
}

func TestSubstAllSimultaneous(t *testing.T) {
	// {x->y, y->x} applied to x - y swaps, not chains.
	e := Sub(Var("x"), Var("y"))
	got := SubstAll(e, map[string]Expr{"x": Var("y"), "y": Var("x")})
	want := Sub(Var("y"), Var("x"))
	if !Equal(got, want) {
		t.Errorf("SubstAll = %v, want %v", got, want)
	}
}

func TestDiv(t *testing.T) {
	nr := Var("nrows")
	// (nrows^2 + 2*nrows) / nrows = nrows + 2
	e := Add(Mul(nr, nr), Scale(nr, 2))
	q, ok := Div(e, nr)
	if !ok || !Equal(q, Add(nr, Const(2))) {
		t.Errorf("div = %v, %v", q, ok)
	}
	// (4x) / 2 = 2x
	q, ok = Div(Scale(Var("x"), 4), Const(2))
	if !ok || !Equal(q, Scale(Var("x"), 2)) {
		t.Errorf("4x/2 = %v, %v", q, ok)
	}
	// (2*nrows*x)/(2*nrows) = x
	q, ok = Div(Mul(Scale(nr, 2), Var("x")), Scale(nr, 2))
	if !ok || !Equal(q, Var("x")) {
		t.Errorf("2nr*x/2nr = %v, %v", q, ok)
	}
	// x+1 not divisible by x
	if _, ok := Div(Add(Var("x"), One), Var("x")); ok {
		t.Error("x+1 / x should fail")
	}
	// 3x not divisible by 2
	if _, ok := Div(Scale(Var("x"), 3), Const(2)); ok {
		t.Error("3x / 2 should fail")
	}
	// division by zero or non-monomial fails
	if _, ok := Div(Var("x"), Zero); ok {
		t.Error("x / 0 should fail")
	}
	if _, ok := Div(Var("x"), Add(Var("y"), One)); ok {
		t.Error("x / (y+1) should fail")
	}
}

func TestVarsDegreeUses(t *testing.T) {
	e := Add(Mul(Var("b"), Var("a")), Var("c"))
	vars := e.Vars()
	if len(vars) != 3 || vars[0] != "a" || vars[2] != "c" {
		t.Errorf("Vars = %v", vars)
	}
	if e.Degree() != 2 {
		t.Errorf("Degree = %d", e.Degree())
	}
	if e.IsAffine() {
		t.Error("a*b+c reported affine")
	}
	if !VarPlus("x", 1).IsAffine() {
		t.Error("x+1 not affine")
	}
	if !e.Uses("b") || e.Uses("zz") {
		t.Error("Uses wrong")
	}
}

func TestCoeffAndConstTerm(t *testing.T) {
	e := Add(Scale(Var("x"), 3), Const(-7))
	if e.Coeff("x") != 3 || e.Coeff("y") != 0 {
		t.Errorf("coeff wrong for %v", e)
	}
	constTerm := int64(0)
	for _, tm := range e.Terms() {
		if len(tm.Vars) == 0 {
			constTerm = tm.Coef
		}
	}
	if constTerm != -7 {
		t.Errorf("constant term of %v = %d, want -7", e, constTerm)
	}
}

func TestString(t *testing.T) {
	cases := map[string]Expr{
		"0":               Zero,
		"5":               Const(5),
		"-3":              Const(-3),
		"x":               Var("x"),
		"x + 1":           VarPlus("x", 1),
		"x - 1":           VarPlus("x", -1),
		"2*x":             Scale(Var("x"), 2),
		"-x":              Neg(Var("x")),
		"nrows*nrows":     Mul(Var("nrows"), Var("nrows")),
		"x*y + 2":         Add(Mul(Var("x"), Var("y")), Const(2)),
		"-2*x - 3*y + 10": Add(Add(Scale(Var("x"), -2), Scale(Var("y"), -3)), Const(10)),
		"-12*i*j - 1":     Add(Scale(Mul(Var("i"), Var("j")), -12), Const(-1)),
	}
	for want, e := range cases {
		if got := e.String(); got != want {
			t.Errorf("String(%#v) = %q, want %q", e, got, want)
		}
	}
}

func TestCmp(t *testing.T) {
	if d, ok := Cmp(VarPlus("x", 5), VarPlus("x", 2)); !ok || d != 3 {
		t.Errorf("Cmp = %d,%v", d, ok)
	}
	if _, ok := Cmp(Var("x"), Var("y")); ok {
		t.Error("Cmp of unrelated vars should fail")
	}
}

// randomExpr builds a random polynomial for property tests.
func randomExpr(r *rand.Rand, depth int) Expr {
	if depth == 0 {
		switch r.Intn(3) {
		case 0:
			return Const(int64(r.Intn(11) - 5))
		default:
			return Var(string(rune('a' + r.Intn(4))))
		}
	}
	a := randomExpr(r, depth-1)
	b := randomExpr(r, depth-1)
	switch r.Intn(3) {
	case 0:
		return Add(a, b)
	case 1:
		return Sub(a, b)
	default:
		return Mul(a, b)
	}
}

func randomEnv(r *rand.Rand) map[string]int64 {
	env := map[string]int64{}
	for _, v := range []string{"a", "b", "c", "d"} {
		env[v] = int64(r.Intn(21) - 10)
	}
	return env
}

func TestQuickEvalHomomorphism(t *testing.T) {
	// Eval commutes with Add/Sub/Mul: the normal form preserves meaning.
	cfg := &quick.Config{MaxCount: 300}
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		a := randomExpr(r, 3)
		b := randomExpr(r, 3)
		env := randomEnv(r)
		return Add(a, b).Eval(env) == a.Eval(env)+b.Eval(env) &&
			Sub(a, b).Eval(env) == a.Eval(env)-b.Eval(env) &&
			Mul(a, b).Eval(env) == a.Eval(env)*b.Eval(env) &&
			Neg(a).Eval(env) == -a.Eval(env)
	}
	if err := quick.Check(f, cfg); err != nil {
		t.Error(err)
	}
}

func TestQuickSubstSemantics(t *testing.T) {
	// Eval(Subst(e, x, r), env) == Eval(e, env[x -> Eval(r, env)])
	cfg := &quick.Config{MaxCount: 300}
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		e := randomExpr(rng, 3)
		repl := randomExpr(rng, 2)
		env := randomEnv(rng)
		substituted := Subst(e, "a", repl).Eval(env)
		env2 := map[string]int64{}
		for k, v := range env {
			env2[k] = v
		}
		env2["a"] = repl.Eval(env)
		return substituted == e.Eval(env2)
	}
	if err := quick.Check(f, cfg); err != nil {
		t.Error(err)
	}
}

func TestQuickDivExact(t *testing.T) {
	// If Div succeeds, quotient * divisor == dividend.
	cfg := &quick.Config{MaxCount: 300}
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		q := randomExpr(r, 2)
		divisors := []Expr{Const(int64(r.Intn(4) + 1)), Var("a"), Mul(Const(2), Var("b"))}
		d := divisors[r.Intn(len(divisors))]
		product := Mul(q, d)
		got, ok := Div(product, d)
		if !ok {
			return false
		}
		return Equal(got, q)
	}
	if err := quick.Check(f, cfg); err != nil {
		t.Error(err)
	}
}

func TestKeyDeterministic(t *testing.T) {
	a := Add(Add(Var("x"), Var("y")), Const(1))
	b := Add(Const(1), Add(Var("y"), Var("x")))
	if a.Key() != b.Key() {
		t.Errorf("keys differ: %q vs %q", a.Key(), b.Key())
	}
}

// refString is String as a strings.Builder rendering over the terms with
// the constant rotated to the back: the reference AppendString is checked
// against.
func refString(e Expr) string {
	if len(e.terms) == 0 {
		return "0"
	}
	ordered := e.terms
	if len(ordered[0].vars) == 0 && len(ordered) > 1 {
		ordered = append(append([]term(nil), ordered[1:]...), ordered[0])
	}
	var b strings.Builder
	for i, t := range ordered {
		c := t.coef
		if i == 0 {
			if c < 0 {
				b.WriteString("-")
				c = -c
			}
		} else if c < 0 {
			b.WriteString(" - ")
			c = -c
		} else {
			b.WriteString(" + ")
		}
		if len(t.vars) == 0 {
			b.WriteString(strconv.FormatInt(c, 10))
			continue
		}
		if c != 1 {
			b.WriteString(strconv.FormatInt(c, 10))
			b.WriteByte('*')
		}
		b.WriteString(strings.Join(t.vars, "*"))
	}
	return b.String()
}

// TestAppendStringMatchesReference checks String and AppendString against
// refString on random polynomials of up to four terms and degree three,
// appended after existing bytes.
func TestAppendStringMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(30))
	vars := []string{"np", "nrows", "x", "ps1.i", "k0"}
	for iter := 0; iter < 5000; iter++ {
		e := Zero
		for n := rng.Intn(5); n > 0; n-- {
			term := Const(int64(rng.Intn(21) - 10))
			for d := rng.Intn(4); d > 0; d-- {
				term = Mul(term, Var(vars[rng.Intn(len(vars))]))
			}
			e = Add(e, term)
		}
		want := refString(e)
		if got := e.String(); got != want {
			t.Fatalf("String = %q, reference %q", got, want)
		}
		if got := string(e.AppendString([]byte("x="))); got != "x="+want {
			t.Fatalf("AppendString = %q, reference %q", got, "x="+want)
		}
	}
}
