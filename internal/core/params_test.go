package core

import (
	"math/rand"
	"regexp"
	"strings"
	"testing"

	"repro/internal/cfg"
	"repro/internal/cg"
	"repro/internal/parser"
	"repro/internal/procset"
	"repro/internal/sem"
	"repro/internal/sym"
)

func newTestState(t *testing.T) (*State, *cfg.Graph) {
	t.Helper()
	prog, err := parser.Parse("t.mpl", "send x -> 1\nrecv y <- 0")
	if err != nil {
		t.Fatal(err)
	}
	g := cfg.Build(prog)
	st := NewState(g.Entry, cg.Options{})
	return st, g
}

func TestHelperVarDetection(t *testing.T) {
	for _, v := range []string{"wp0", "wp12", "fz3", "k0", "f7"} {
		if !sem.IsHelperName(v) {
			t.Errorf("%q not detected as helper", v)
		}
	}
	for _, v := range []string{"np", "nrows", "ps0.i", "kite", "wp", "fzz1", "x"} {
		if sem.IsHelperName(v) {
			t.Errorf("%q wrongly detected as helper", v)
		}
	}
}

// TestHelperVarMatchesPattern pins the byte-level isHelperVar to the
// pattern it replaced, ^(wp|fz|k|f)[0-9]+$, on random strings over the
// pattern's alphabet, and gates it at zero allocations.
func TestHelperVarMatchesPattern(t *testing.T) {
	re := regexp.MustCompile(`^(wp|fz|k|f)\d+$`)
	rng := rand.New(rand.NewSource(5))
	const alphabet = "wpfzk0129.x"
	for iter := 0; iter < 20000; iter++ {
		b := make([]byte, rng.Intn(6))
		for i := range b {
			b[i] = alphabet[rng.Intn(len(alphabet))]
		}
		if v := string(b); sem.IsHelperName(v) != re.MatchString(v) {
			t.Fatalf("IsHelperName(%q) = %v, pattern says %v", v, sem.IsHelperName(v), re.MatchString(v))
		}
	}
	if n := testing.AllocsPerRun(1000, func() { _ = sem.IsHelperName("wp12") || sem.IsHelperName("ps0.i") }); n != 0 {
		t.Errorf("isHelperVar allocates %v per op, want 0", n)
	}
}

func TestCanonicalizeParamsRenames(t *testing.T) {
	st, _ := newTestState(t)
	st.G.SetConst("wp7", 3)
	st.Sets[0].Range = procset.Range(nil, sym.Const(0), sym.VarPlus("wp7", 0))
	mapping := st.CanonicalizeParams()
	if mapping["wp7"] != "k0" {
		t.Fatalf("mapping = %v", mapping)
	}
	if st.Sets[0].Range.String() != "[0..k0]" {
		t.Errorf("range = %v", st.Sets[0].Range)
	}
	if !st.G.HasVar("k0") || st.G.HasVar("wp7") {
		t.Error("graph not renamed")
	}
	if v, ok := st.G.ConstVal("k0"); !ok || v != 3 {
		t.Errorf("k0 = %d,%v", v, ok)
	}
	// Idempotent.
	m2 := st.CanonicalizeParams()
	if m2["k0"] != "k0" {
		t.Errorf("second canonicalization: %v", m2)
	}
}

func TestCanonicalizeDropsStaleHelpers(t *testing.T) {
	st, _ := newTestState(t)
	st.G.SetConst("wp3", 1) // not referenced by any bound
	st.CanonicalizeParams()
	for _, v := range st.G.Vars() {
		if sem.IsHelperName(v) {
			t.Errorf("stale helper %q survived", v)
		}
	}
}

func TestCanonicalizeTwoParams(t *testing.T) {
	st, _ := newTestState(t)
	st.G.AddEq("wp9", "wp2", 1)
	st.Sets[0].Range = procset.Range(nil, sym.VarPlus("wp9", 0), sym.VarPlus("wp2", 5))
	st.CanonicalizeParams()
	// Appearance order: wp9 (LB) before wp2 (UB).
	if st.Sets[0].Range.String() != "[k0..k1 + 5]" {
		t.Errorf("range = %v", st.Sets[0].Range)
	}
	if !st.G.Entails("k0", "k1", 1) || !st.G.Entails("k1", "k0", -1) {
		t.Error("relation between params lost")
	}
}

func TestResolveHelpersSubstitutesWitness(t *testing.T) {
	st, _ := newTestState(t)
	st.G.AddEq("k0", "np", -3)
	st.Matches = append(st.Matches, &Match{
		SendNode: 1, RecvNode: 2,
		Sender:   procset.Range(nil, sym.Const(1), sym.VarPlus("k0", 0)),
		Receiver: procset.Range(nil, sym.Const(2), sym.VarPlus("k0", 1)),
	})
	st.ResolveHelpers()
	m := st.Matches[0]
	if m.Sender.String() != "[1..np - 3]" || m.Receiver.String() != "[2..np - 2]" {
		t.Errorf("resolved match = %v -> %v", m.Sender, m.Receiver)
	}
}

func TestFreezeConstsAndGlobals(t *testing.T) {
	st, _ := newTestState(t)
	// Globals and constants pass through unchanged.
	e, ok := st.freeze(sym.VarPlus("np", -1))
	if !ok || e.String() != "np - 1" {
		t.Errorf("freeze(np-1) = %v,%v", e, ok)
	}
	// A per-set variable with a known constant folds to the constant.
	st.G.SetConst(PV(0, "i"), 7)
	e, ok = st.freeze(sym.VarPlus(PV(0, "i"), 2))
	if !ok || e.String() != "9" {
		t.Errorf("freeze(ps0.i+2) = %v,%v", e, ok)
	}
	// A per-set variable without a witness gets a frozen twin.
	st.G.AddVar(PV(0, "j"))
	st.G.AddLE(PV(0, "j"), "np", 0)
	e, ok = st.freeze(sym.VarPlus(PV(0, "j"), 0))
	if !ok {
		t.Fatal("freeze failed")
	}
	if !strings.HasPrefix(e.String(), "fz") {
		t.Errorf("frozen form = %v", e)
	}
	// The twin carries the original's constraints via the equality.
	if !st.G.Entails(e.String(), "np", 0) {
		t.Errorf("frozen twin lost relation: %v", st.G)
	}
}

func TestIssueSendAggregatesFan(t *testing.T) {
	st, g := newTestState(t)
	sendNode := g.Entry.SuccSeq()
	ps := st.Sets[0]
	ps.Node = sendNode
	ps.Range = procset.Singleton(nil, sym.Zero)
	st.G.AddLE(cg.ZeroVar, "np", -4)
	st.SetAssignedVars(map[string]bool{"x": true, "i": true})

	// Two sends to consecutive constants aggregate into one fan.
	st.G.SetConst(PV(0, "i"), 1)
	prog, _ := parser.Parse("s.mpl", "send x -> i")
	sn := cfg.Build(prog).Entry.SuccSeq()
	if !st.IssueSend(ps, sn) {
		t.Fatal("first issue failed")
	}
	st.G.Shift(PV(0, "i"), 1) // i := 2
	if !st.IssueSend(ps, sn) {
		t.Fatal("second issue failed")
	}
	if len(st.Pending) != 1 {
		t.Fatalf("pending = %v, want one aggregated fan", st.Pending)
	}
	p := st.Pending[0]
	if p.Shape != PendFan {
		t.Fatalf("shape = %v", p.Shape)
	}
	if got := p.Dests.String(); got != "[1..2]" {
		t.Errorf("dests = %v", got)
	}
}

// TestSameFailureReadsFanDests checks the widening-failure rule on pending
// sends: a fan's destination bounds count, a shift's do not, and a pair
// that shares no atom is the one firstFailingBound reports.
func TestSameFailureReadsFanDests(t *testing.T) {
	st, _ := newTestState(t)
	pend := func(shape PendShape, destLB int64) *State {
		s := st.Clone()
		s.Pending = []*PendingSend{{
			Shape:   shape,
			Senders: procset.Singleton(nil, sym.Zero),
			Dests:   procset.Range(nil, sym.Const(destLB), sym.VarPlus("np", -1)),
		}}
		return s
	}
	failing := func(old, nw *State) bool {
		_, _, ok := firstFailingBound(old, nw)
		return ok
	}
	if failing(pend(PendFan, 2), pend(PendFan, 2)) {
		t.Error("equal fans fail widening")
	}
	old, nw := pend(PendFan, 2), pend(PendFan, 3)
	if a, b, ok := firstFailingBound(old, nw); !ok || a.String() != "2" || b.String() != "3" {
		t.Errorf("firstFailingBound = %v, %v, %v; want the destination lower bounds", a, b, ok)
	}
	if failing(pend(PendShift, 2), pend(PendShift, 3)) {
		t.Error("a shift's unused destination bounds fail widening")
	}
}

// TestAlignPendingPanicsOnMismatch checks that the combine refuses pending
// lists the shape key says cannot meet: of different lengths, or with a
// record of another node or shape at the same position.
func TestAlignPendingPanicsOnMismatch(t *testing.T) {
	st, _ := newTestState(t)
	pend := func(recs ...PendingSend) *State {
		s := st.Clone()
		s.Pending = nil
		for i := range recs {
			recs[i].Senders = procset.Singleton(nil, sym.Zero)
			recs[i].Dests = AllProcs()
			s.Pending = append(s.Pending, &recs[i])
		}
		return s
	}
	alignPending(pend(PendingSend{Node: 3, Shape: PendFan}), pend(PendingSend{Node: 3, Shape: PendFan}))
	for _, c := range []struct {
		name    string
		old, nw *State
	}{
		{"lengths", pend(PendingSend{Node: 3}), pend()},
		{"nodes", pend(PendingSend{Node: 3}), pend(PendingSend{Node: 4})},
		{"shapes", pend(PendingSend{Node: 3, Shape: PendShift}), pend(PendingSend{Node: 3, Shape: PendFan})},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: misaligned pending records did not panic", c.name)
				}
			}()
			alignPending(c.old, c.nw)
		}()
	}
}
