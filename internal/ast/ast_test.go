package ast_test

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/ast"
	"repro/internal/parser"
)

func exprOf(t *testing.T, src string) ast.Expr {
	t.Helper()
	prog, err := parser.Parse("t.mpl", "tmp := "+src)
	if err != nil {
		t.Fatal(err)
	}
	return prog.Stmts[0].(*ast.Assign).Rhs
}

func TestUsesIdent(t *testing.T) {
	e := exprOf(t, "a + b * 3")
	if !ast.UsesIdent(e, "b") || ast.UsesIdent(e, "id") {
		t.Error("UsesIdent wrong")
	}
}

func TestWalkPruning(t *testing.T) {
	e := exprOf(t, "(a + b) * (c + d)")
	count := 0
	ast.Walk(e, func(x ast.Expr) bool {
		count++
		// Prune at the first binary child: skip its operands.
		_, isBin := x.(*ast.Binary)
		return !isBin || count == 1
	})
	// Root (*), then a+b (pruned) and c+d (pruned): 3 nodes visited.
	if count != 3 {
		t.Errorf("visited %d nodes, want 3", count)
	}
}

func TestWalkStmtsRecursesBodies(t *testing.T) {
	prog, err := parser.Parse("t.mpl", `
if id == 0 then
  while x < 3 do
    for i := 1 to 2 do
      send x -> 1
    end
  end
end`)
	if err != nil {
		t.Fatal(err)
	}
	var kinds []string
	ast.WalkStmts(prog.Stmts, func(s ast.Stmt) bool {
		kinds = append(kinds, reflect.TypeOf(s).Elem().Name())
		return true
	})
	want := []string{"If", "While", "For", "Send"}
	if !reflect.DeepEqual(kinds, want) {
		t.Errorf("kinds = %v, want %v", kinds, want)
	}
}

func TestExprStringPrecedence(t *testing.T) {
	cases := map[string]string{
		"(a + b) * c": "(a + b) * c",
		"a + b * c":   "a + b * c",
		"a - (b - c)": "a - (b - c)",
		"-(a + b)":    "-(a + b)",
	}
	for src, want := range cases {
		if got := exprOf(t, src).String(); got != want {
			t.Errorf("String(%q) = %q, want %q", src, got, want)
		}
	}
}

func TestOpPredicates(t *testing.T) {
	if !ast.Add.IsArith() || ast.Add.IsComparison() || ast.Add.IsLogical() {
		t.Error("Add predicates wrong")
	}
	if !ast.Le.IsComparison() || ast.Le.IsArith() {
		t.Error("Le predicates wrong")
	}
	if !ast.LAnd.IsLogical() || ast.LAnd.IsComparison() {
		t.Error("LAnd predicates wrong")
	}
}

func TestFormatAllStatements(t *testing.T) {
	src := `var a, b
a := 1
if a == 1 then
  skip
else
  print a
end
while a < 3 do
  a := a + 1
end
for i := 1 to 2 do
  send a -> 0 : tag
end
recv b <- 0 : tag
sendrecv a -> 1, b <- 1
assume np >= 2
assert a > 0
`
	prog, err := parser.Parse("t.mpl", src)
	if err != nil {
		t.Fatal(err)
	}
	out := ast.Format(prog.Stmts)
	// Round-trip stability.
	prog2, err := parser.Parse("t2.mpl", out)
	if err != nil {
		t.Fatalf("reparse: %v\n%s", err, out)
	}
	if out2 := ast.Format(prog2.Stmts); out2 != out {
		t.Errorf("format unstable:\n%s\nvs\n%s", out, out2)
	}
}

// refString is Expr.String as operator concatenation with the old
// parenthesization helpers: the reference AppendExpr is checked against.
func refString(e ast.Expr) string {
	prec := map[ast.BinOp]int{ast.LOr: 1, ast.LAnd: 2, ast.Eq: 3, ast.Neq: 3, ast.Lt: 3, ast.Le: 3,
		ast.Gt: 3, ast.Ge: 3, ast.Add: 4, ast.Sub: 4, ast.Mul: 5, ast.Div: 5, ast.Mod: 5}
	paren := func(x ast.Expr, wrap func(*ast.Binary) bool) string {
		if b, ok := x.(*ast.Binary); ok && wrap(b) {
			return "(" + refString(b) + ")"
		}
		return refString(x)
	}
	switch e := e.(type) {
	case *ast.IntLit:
		return fmt.Sprintf("%d", e.Value)
	case *ast.Unary:
		return e.Op.String() + paren(e.X, func(*ast.Binary) bool { return true })
	case *ast.Binary:
		return paren(e.L, func(b *ast.Binary) bool { return prec[b.Op] < prec[e.Op] }) + " " + e.Op.String() + " " +
			paren(e.R, func(b *ast.Binary) bool { return prec[b.Op] <= prec[e.Op] })
	}
	return e.String()
}

// TestAppendExprMatchesReference checks String and AppendExpr against
// refString on random expression trees over every operator.
func TestAppendExprMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(30))
	var gen func(depth int) ast.Expr
	gen = func(depth int) ast.Expr {
		switch k := rng.Intn(6); {
		case depth == 0 || k == 0:
			return &ast.IntLit{Value: int64(rng.Intn(40) - 20)}
		case k == 1:
			return &ast.Ident{Name: []string{"id", "np", "x"}[rng.Intn(3)]}
		case k == 2:
			return &ast.BoolLit{Value: rng.Intn(2) == 0}
		case k == 3:
			return &ast.Unary{Op: ast.UnaryOp(rng.Intn(2)), X: gen(depth - 1)}
		}
		return &ast.Binary{Op: ast.BinOp(rng.Intn(int(ast.LOr) + 1)), L: gen(depth - 1), R: gen(depth - 1)}
	}
	for iter := 0; iter < 5000; iter++ {
		e := gen(4)
		want := refString(e)
		if got := e.String(); got != want {
			t.Fatalf("String = %q, reference %q", got, want)
		}
		if got := string(ast.AppendExpr([]byte("e="), e)); got != "e="+want {
			t.Fatalf("AppendExpr = %q, reference %q", got, "e="+want)
		}
	}
}
