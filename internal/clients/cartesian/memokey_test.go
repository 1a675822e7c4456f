package cartesian

import (
	"strings"
	"testing"

	"repro/internal/ast"
	"repro/internal/core"
	"repro/internal/hsm"
	"repro/internal/parser"
	"repro/internal/sym"
)

// TestHSMMemoKey checks hsmDecision's memo key: it holds the same bytes
// the rendered strings joined by the separator did, a decision is stored
// once under it after one counted miss, and a repeat query is a hit that
// allocates nothing.
func TestHSMMemoKey(t *testing.T) {
	prog, err := parser.Parse("t.mpl", "assume np == nrows * nrows\nsend v -> (id % nrows) * nrows + id / nrows\nrecv v <- (id % nrows) * nrows + id / nrows\n")
	if err != nil {
		t.Fatal(err)
	}
	var dest, src ast.Expr
	for _, s := range prog.Stmts {
		switch s := s.(type) {
		case *ast.Send:
			dest = s.Dest
		case *ast.Recv:
			src = s.Src
		}
	}
	inv := core.NewInvariants()
	inv.Collect(prog.Stmts[0].(*ast.Assume).Cond)
	m := New(inv)
	idh := hsm.Run(sym.Zero, sym.Var("np"), sym.One)
	res := m.hsmDecision(idh, idh, dest, src)
	if hits, misses := m.memo.HitCount(), m.memo.MissCount(); hits != 0 || misses != 1 || m.memo.Len() != 1 {
		t.Fatalf("first query: %d hits, %d misses, %d decisions", hits, misses, m.memo.Len())
	}
	want := strings.Join([]string{m.invFP, idh.String(), idh.String(), dest.String(), src.String()}, "\x1f")
	if got, ok := m.memo.Lookup([]byte(want)); !ok || got != res {
		t.Fatalf("no decision stored under %q", want)
	}
	if n := testing.AllocsPerRun(100, func() {
		if m.hsmDecision(idh, idh, dest, src) != res {
			t.Fatal("a memo hit changed the decision")
		}
	}); n != 0 {
		t.Errorf("a memo hit allocates %v times, want 0", n)
	}
	if misses := m.memo.MissCount(); misses != 1 {
		t.Errorf("repeat queries missed the memo: %d misses", misses)
	}
}
