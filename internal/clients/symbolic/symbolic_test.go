package symbolic

import (
	"testing"

	"repro/internal/ast"
	"repro/internal/cfg"
	"repro/internal/cg"
	"repro/internal/core"
	"repro/internal/parser"
	"repro/internal/procset"
	"repro/internal/sym"
	"repro/internal/tri"
)

// harness builds a State with two blocked process sets at synthetic send
// and recv nodes, plus the given constraint facts.
type harness struct {
	st       *core.State
	sender   *core.ProcSet
	receiver *core.ProcSet
	g        *cfg.Graph
}

func exprOf(t *testing.T, src string) ast.Expr {
	t.Helper()
	prog, err := parser.Parse("e.mpl", "tmp := "+src)
	if err != nil {
		t.Fatalf("parse %q: %v", src, err)
	}
	return prog.Stmts[0].(*ast.Assign).Rhs
}

// mkHarness builds the two-set state. Ranges are given as (lb, ub) sym
// expressions; facts apply additional constraints.
func mkHarness(t *testing.T, sLB, sUB, rLB, rUB sym.Expr, facts func(*core.State)) *harness {
	t.Helper()
	prog, err := parser.Parse("h.mpl", "send x -> 0\nrecv y <- 0")
	if err != nil {
		t.Fatal(err)
	}
	g := cfg.Build(prog)
	st := core.NewState(g.Entry, coreCGOpts())
	st.G.AddLE(coreZeroVar(), "np", -2) // np >= 2
	sendNode := g.Entry.SuccSeq()
	recvNode := sendNode.SuccSeq()

	all := st.Sets[0]
	all.Node = sendNode
	all.Blocked = true
	all.Range = procset.Set{LB: procset.NewBound(nil, sLB), UB: procset.NewBound(nil, sUB)}
	recvSet := st.SplitSet(all, all.Range, procset.Set{LB: procset.NewBound(nil, rLB), UB: procset.NewBound(nil, rUB)})
	recvSet.Node = recvNode
	recvSet.Blocked = true
	if facts != nil {
		facts(st)
	}
	return &harness{st: st, sender: all, receiver: recvSet, g: g}
}

func TestShiftMatchFullOverlap(t *testing.T) {
	// The paper's shift example (with the constant stride the var+c bound
	// representation supports): senders [0..k] with send -> id + 3,
	// receivers [3..m] with recv <- id - 3 and m = k + 6. All senders
	// match the receiver prefix [3..k+3]; the rest [k+4..m] stays blocked.
	h := mkHarness(t,
		sym.Const(0), sym.Var("k"),
		sym.Const(3), sym.Var("m"),
		func(st *core.State) {
			st.G.AddLE(coreZeroVar(), "k", 0) // k >= 0
			st.G.AddEq("m", "k", 6)           // m = k + 6
		})
	m := &Matcher{}
	plan, ok := m.Match(h.st, h.sender, exprOf(t, "id + 3"), h.receiver, exprOf(t, "id - 3"))
	if !ok {
		t.Fatal("match failed")
	}
	if plan.SenderMatched.String() != "[0..k]" {
		t.Errorf("sender matched = %v", plan.SenderMatched)
	}
	if len(plan.SenderRests) != 0 {
		t.Errorf("sender rests = %v", plan.SenderRests)
	}
	if plan.RecvMatched.String() != "[3..k + 3]" {
		t.Errorf("recv matched = %v", plan.RecvMatched)
	}
	if len(plan.RecvRests) != 1 || plan.RecvRests[0].String() != "[k + 4..m]" {
		t.Errorf("recv rests = %v", plan.RecvRests)
	}
	if m.MatchCount() != 1 {
		t.Errorf("instrumentation: %d matches", m.MatchCount())
	}
}

func TestShiftMismatchedOffsets(t *testing.T) {
	// send -> id + 1 against recv <- id + 1 composes to id + 2: not the
	// identity, so no match.
	h := mkHarness(t, sym.Const(0), sym.Const(3), sym.Const(1), sym.Const(4), nil)
	m := &Matcher{}
	if _, ok := m.Match(h.st, h.sender, exprOf(t, "id + 1"), h.receiver, exprOf(t, "id + 1")); ok {
		t.Error("non-inverse offsets matched")
	}
}

func TestConstToConstMatch(t *testing.T) {
	// Sender [0] sends to 1; receiver [1..np-1] expects from 0: singleton
	// pair (0 -> 1); receiver splits.
	h := mkHarness(t, sym.Const(0), sym.Const(0), sym.Const(1), sym.VarPlus("np", -1),
		func(st *core.State) { st.G.AddLE(coreZeroVar(), "np", -3) })
	m := &Matcher{}
	plan, ok := m.Match(h.st, h.sender, exprOf(t, "1"), h.receiver, exprOf(t, "0"))
	if !ok {
		t.Fatal("match failed")
	}
	if plan.SenderMatched.String() != "[0]" || plan.RecvMatched.String() != "[1]" {
		t.Errorf("matched = %v -> %v", plan.SenderMatched, plan.RecvMatched)
	}
	if len(plan.RecvRests) != 1 || plan.RecvRests[0].String() != "[2..np - 1]" {
		t.Errorf("rests = %v", plan.RecvRests)
	}
}

func TestConstDestWrongReceiver(t *testing.T) {
	// Sender [0] sends to 5; receiver range is [1..3]: 5 outside.
	h := mkHarness(t, sym.Const(0), sym.Const(0), sym.Const(1), sym.Const(3), nil)
	m := &Matcher{}
	if _, ok := m.Match(h.st, h.sender, exprOf(t, "5"), h.receiver, exprOf(t, "0")); ok {
		t.Error("out-of-range destination matched")
	}
}

func TestVarDestMatch(t *testing.T) {
	// The Fig 5 shape: sender [0] sends to i (i = 2 known); receivers
	// [1..np-1] expect from 0. The receiver {i} is carved out.
	h := mkHarness(t, sym.Const(0), sym.Const(0), sym.Const(1), sym.VarPlus("np", -1),
		func(st *core.State) {
			st.G.AddLE(coreZeroVar(), "np", -4)
			st.G.SetConst(core.PV(0, "i"), 2)
			st.G.AddLE(core.PV(0, "i"), "np", -1)
		})
	m := &Matcher{}
	plan, ok := m.Match(h.st, h.sender, exprOf(t, "i"), h.receiver, exprOf(t, "0"))
	if !ok {
		t.Fatal("match failed")
	}
	if plan.RecvMatched.String() != "[ps0.i]" {
		t.Errorf("recv matched = %v", plan.RecvMatched)
	}
	if len(plan.RecvRests) != 2 {
		t.Errorf("rests = %v", plan.RecvRests)
	}
}

func TestPartialOverlapRejectedWhenUnknown(t *testing.T) {
	// Without ordering facts the intersection cannot be proved: no match
	// (exactness requirement).
	h := mkHarness(t, sym.Var("a"), sym.Var("b"), sym.Var("c"), sym.Var("d"), nil)
	m := &Matcher{}
	if _, ok := m.Match(h.st, h.sender, exprOf(t, "id + 1"), h.receiver, exprOf(t, "id - 1")); ok {
		t.Error("matched with unprovable ranges")
	}
}

func TestNonAffineExpressionsRejected(t *testing.T) {
	h := mkHarness(t, sym.Const(0), sym.Const(3), sym.Const(0), sym.Const(3), nil)
	m := &Matcher{}
	for _, src := range []string{"id * id", "id / 2", "id % 3", "2 * id"} {
		if _, ok := m.Match(h.st, h.sender, exprOf(t, src), h.receiver, exprOf(t, "id")); ok {
			t.Errorf("non-var+c expression %q matched", src)
		}
	}
}

func TestSelfMatchIdentityOnly(t *testing.T) {
	h := mkHarness(t, sym.Const(0), sym.VarPlus("np", -1), sym.Const(0), sym.VarPlus("np", -1), nil)
	m := &Matcher{}
	if !m.SelfMatch(h.st, h.sender, exprOf(t, "id"), exprOf(t, "id")) {
		t.Error("identity self-match failed")
	}
	if m.SelfMatch(h.st, h.sender, exprOf(t, "id + 1"), exprOf(t, "id - 1")) {
		t.Error("shift self-match should fail (not a permutation of the set)")
	}
	if m.SelfMatch(h.st, h.sender, exprOf(t, "0"), exprOf(t, "0")) {
		t.Error("constant self-match should fail")
	}
}

func TestSubtractCases(t *testing.T) {
	ctx := procset.Ctx{}
	whole := procset.Range(nil, sym.Const(0), sym.Const(9))
	// Middle part: two rests.
	rests, ok := subtract(ctx, whole, procset.Range(nil, sym.Const(3), sym.Const(5)))
	if !ok || len(rests) != 2 {
		t.Fatalf("rests = %v, %v", rests, ok)
	}
	if rests[0].String() != "[0..2]" || rests[1].String() != "[6..9]" {
		t.Errorf("rests = %v", rests)
	}
	// Prefix part.
	rests, ok = subtract(ctx, whole, procset.Range(nil, sym.Const(0), sym.Const(4)))
	if !ok || len(rests) != 1 || rests[0].String() != "[5..9]" {
		t.Errorf("prefix rests = %v, %v", rests, ok)
	}
	// Whole part.
	rests, ok = subtract(ctx, whole, whole)
	if !ok || len(rests) != 0 {
		t.Errorf("whole rests = %v, %v", rests, ok)
	}
	// Not contained.
	if _, ok := subtract(ctx, whole, procset.Range(nil, sym.Const(5), sym.Const(15))); ok {
		t.Error("non-subset subtraction succeeded")
	}
}

func TestIntersectHelpers(t *testing.T) {
	ctx := procset.Ctx{}
	a := procset.Range(nil, sym.Const(0), sym.Const(5))
	b := procset.Range(nil, sym.Const(3), sym.Const(9))
	in, ok := procset.Intersect(ctx, a, b)
	if !ok || in.String() != "[3..5]" {
		t.Errorf("intersect = %v, %v", in, ok)
	}
	if in.Empty(ctx) != tri.False {
		t.Error("intersection emptiness")
	}
	// Unknown ordering fails.
	c := procset.Range(nil, sym.Var("u"), sym.Var("v"))
	if _, ok := procset.Intersect(ctx, a, c); ok {
		t.Error("intersect with unknown bounds succeeded")
	}
}

func coreCGOpts() cg.Options { return cg.Options{} }

func coreZeroVar() string { return cg.ZeroVar }

// TestShiftReadingZeroAlloc gates the matcher's reading of id + 1 and
// id - 1 partners: translating both expressions, taking their id
// coefficients and offsets and deciding the identity condition allocate
// nothing (a pair that fails it returns before any range is built), nor
// does the self-match of send -> id with recv <- id, nor converting the
// offset ±1 into the shared sym constants core.ShiftPlan shifts ranges by.
func TestShiftReadingZeroAlloc(t *testing.T) {
	h := mkHarness(t, sym.Const(0), sym.Const(3), sym.Const(1), sym.Const(4), nil)
	m := &Matcher{}
	plus, minus, id := exprOf(t, "id + 1"), exprOf(t, "id - 1"), exprOf(t, "id")
	for _, e := range []ast.Expr{plus, minus} {
		if n := testing.AllocsPerRun(100, func() { _, _ = m.Match(h.st, h.sender, e, h.receiver, e) }); n != 0 {
			t.Errorf("Match of send -> %s with recv <- %s allocates %v per op, want 0", e, e, n)
		}
		d, ok := h.st.AffineID(h.sender, e)
		if !ok {
			t.Fatalf("%s has no affine form", e)
		}
		c := d.Offset()
		if n := testing.AllocsPerRun(100, func() { _, _ = c.Expr(), c.Neg().Expr() }); n != 0 {
			t.Errorf("the offsets of %s allocate %v per op, want 0", e, n)
		}
	}
	if !m.SelfMatch(h.st, h.sender, id, id) {
		t.Fatal("send -> id with recv <- id does not self-match")
	}
	if n := testing.AllocsPerRun(100, func() { _ = m.SelfMatch(h.st, h.sender, id, id) }); n != 0 {
		t.Errorf("SelfMatch of send -> id with recv <- id allocates %v per op, want 0", n)
	}
}
