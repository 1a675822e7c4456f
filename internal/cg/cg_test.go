package cg

import (
	"math/rand"
	"strings"
	"testing"
	"testing/quick"
)

func backends() []Options {
	return []Options{{Backend: ArrayBackend}, {Backend: MapBackend}}
}

func TestBasicEntailment(t *testing.T) {
	for _, opts := range backends() {
		g := New(opts)
		g.AddLE("x", "y", 3) // x <= y + 3
		g.AddLE("y", "z", 2) // y <= z + 2
		if !g.Entails("x", "z", 5) {
			t.Errorf("[%v] x <= z+5 not entailed", opts.Backend)
		}
		if g.Entails("x", "z", 4) {
			t.Errorf("[%v] x <= z+4 wrongly entailed", opts.Backend)
		}
		if g.Entails("z", "x", 100) {
			t.Errorf("[%v] z <= x+100 wrongly entailed (no info)", opts.Backend)
		}
	}
}

func TestConstants(t *testing.T) {
	for _, opts := range backends() {
		g := New(opts)
		g.SetConst("x", 5)
		g.AddEq("y", "x", 2)
		if v, ok := g.ConstVal("x"); !ok || v != 5 {
			t.Errorf("[%v] x = %d,%v", opts.Backend, v, ok)
		}
		if v, ok := g.ConstVal("y"); !ok || v != 7 {
			t.Errorf("[%v] y = %d,%v", opts.Backend, v, ok)
		}
		if _, ok := g.ConstVal("unknown"); ok {
			t.Errorf("[%v] unknown var has const", opts.Backend)
		}
	}
}

func TestInconsistency(t *testing.T) {
	for _, opts := range backends() {
		g := New(opts)
		g.AddLE("x", "y", -1) // x < y
		ok := g.AddLE("y", "x", -1)
		if ok || g.Consistent() {
			t.Errorf("[%v] cycle x<y<x not detected", opts.Backend)
		}
		// Inconsistent graphs entail everything.
		if !g.Entails("a", "b", -100) {
			t.Errorf("[%v] inconsistent graph should entail all", opts.Backend)
		}
	}
}

func TestSelfEdge(t *testing.T) {
	g := NewDefault()
	if !g.AddLE("x", "x", 0) || !g.AddLE("x", "x", 5) {
		t.Error("x <= x + c (c>=0) should be fine")
	}
	if g.AddLE("x", "x", -1) {
		t.Error("x <= x - 1 should be inconsistent")
	}
}

func TestEqualWitnesses(t *testing.T) {
	g := NewDefault()
	g.SetConst("i", 1)
	g.AddEq("j", "i", 0)
	ws := g.EqualWitnesses("j")
	// j = $0 + 1 and j = i.
	if len(ws) != 2 {
		t.Fatalf("witnesses = %v", ws)
	}
	if ws[0].Var != AtomZero || ws[0].C != 1 {
		t.Errorf("w0 = %v", ws[0])
	}
	if ws[1].Var.String() != "i" || ws[1].C != 0 {
		t.Errorf("w1 = %v", ws[1])
	}
}

func TestForget(t *testing.T) {
	g := NewDefault()
	g.AddLE("x", "y", 1)
	g.AddLE("y", "z", 1)
	g.Forget("y")
	// x <= z + 2 was entailed through y and must survive projection.
	if !g.Entails("x", "z", 2) {
		t.Error("transitive fact lost by Forget")
	}
	if _, ok := g.DiffBound("x", "y"); ok {
		t.Error("constraint on forgotten var survives")
	}
	if _, ok := g.DiffBound("y", "z"); ok {
		t.Error("constraint on forgotten var survives")
	}
}

func TestShift(t *testing.T) {
	g := NewDefault()
	g.SetConst("i", 1)
	g.AddLE("i", "np", -1)
	g.Shift("i", 1) // i := i + 1
	if v, ok := g.ConstVal("i"); !ok || v != 2 {
		t.Errorf("after shift i = %d,%v, want 2", v, ok)
	}
	if !g.Entails("i", "np", 0) {
		t.Error("i <= np lost after shift")
	}
	if g.Entails("i", "np", -1) {
		t.Error("i <= np-1 should no longer hold exactly")
	}
}

func TestRename(t *testing.T) {
	g := NewDefault()
	g.SetConst("a", 3)
	g.Rename("a", "b")
	if v, ok := g.ConstVal("b"); !ok || v != 3 {
		t.Errorf("b = %d,%v", v, ok)
	}
	if g.HasVar("a") {
		t.Error("old name survives")
	}
}

func TestCloneIndependence(t *testing.T) {
	for _, opts := range backends() {
		g := New(opts)
		g.SetConst("x", 1)
		c := g.Clone()
		c.SetConst("y", 2)
		if g.HasVar("y") {
			t.Errorf("[%v] clone mutated original", opts.Backend)
		}
		if v, ok := c.ConstVal("x"); !ok || v != 1 {
			t.Errorf("[%v] clone lost x", opts.Backend)
		}
	}
}

func TestJoin(t *testing.T) {
	a := NewDefault()
	a.SetConst("x", 1)
	b := NewDefault()
	b.SetConst("x", 3)
	j := Join(a, b)
	// Join keeps only common facts: 1 <= x <= 3.
	if !j.Entails("x", ZeroVar, 3) {
		t.Error("x <= 3 lost")
	}
	if !j.Entails(ZeroVar, "x", -1) {
		t.Error("x >= 1 lost")
	}
	if _, ok := j.ConstVal("x"); ok {
		t.Error("join should not pin x")
	}
}

func TestJoinWithBottom(t *testing.T) {
	a := NewDefault()
	a.SetConst("x", 1)
	bot := NewDefault()
	bot.MarkInconsistent()
	j := Join(a, bot)
	if v, ok := j.ConstVal("x"); !ok || v != 1 {
		t.Errorf("join with bottom lost info: x=%d,%v", v, ok)
	}
	j2 := Join(bot, a)
	if v, ok := j2.ConstVal("x"); !ok || v != 1 {
		t.Errorf("join with bottom (flipped) lost info: x=%d,%v", v, ok)
	}
}

func TestWiden(t *testing.T) {
	a := NewDefault()
	a.SetConst("i", 1)
	a.AddLE("i", "np", -1)
	b := NewDefault()
	b.SetConst("i", 2)
	b.AddLE("i", "np", -1)
	w := Widen(a, b)
	// Stable: i >= 1 (b has i >= 2 which implies i >= 1), i <= np - 1.
	if !w.Entails(ZeroVar, "i", -1) {
		t.Error("i >= 1 lost in widening")
	}
	if !w.Entails("i", "np", -1) {
		t.Error("i <= np-1 lost in widening")
	}
	// Unstable: i <= 1 must be dropped.
	if w.Entails("i", ZeroVar, 1) {
		t.Error("i <= 1 survived widening")
	}
}

func TestWideningTerminates(t *testing.T) {
	cur := NewDefault()
	cur.SetConst("i", 0)
	for k := 1; k < 100; k++ {
		next := NewDefault()
		next.SetConst("i", int64(k))
		widened := Widen(cur, next)
		if Equal(widened, cur) {
			return // stabilized
		}
		cur = widened
	}
	t.Error("widening did not stabilize in 100 steps")
}

func TestLeqAndEqual(t *testing.T) {
	a := NewDefault()
	a.SetConst("x", 1)
	b := NewDefault()
	b.AddLE("x", ZeroVar, 5)
	if !Leq(a, b) {
		t.Error("x=1 should entail x<=5")
	}
	if Leq(b, a) {
		t.Error("x<=5 should not entail x=1")
	}
	if !Equal(a, a.Clone()) {
		t.Error("graph not equal to own clone")
	}
	if Equal(a, b) {
		t.Error("different graphs equal")
	}
}

func TestStats(t *testing.T) {
	var st Stats
	g := New(Options{Stats: &st})
	g.AddLE("a", "b", 1)
	g.AddLE("b", "c", 1)
	g.FullClose()
	if st.IncrClosures() != 2 {
		t.Errorf("IncrClosures = %d, want 2", st.IncrClosures())
	}
	if st.FullClosures() != 1 {
		t.Errorf("FullClosures = %d, want 1", st.FullClosures())
	}
	if st.AvgIncrVars() <= 0 || st.AvgFullVars() <= 0 {
		t.Error("avg vars not recorded")
	}
}

func TestString(t *testing.T) {
	g := NewDefault()
	g.SetConst("x", 5)
	g.AddLE("i", "np", -1)
	s := g.String()
	if !strings.Contains(s, "x = 5") {
		t.Errorf("String = %q, missing x = 5", s)
	}
	if !strings.Contains(s, "i <= np - 1") {
		t.Errorf("String = %q, missing i <= np - 1", s)
	}
	bot := NewDefault()
	bot.MarkInconsistent()
	if bot.String() != "inconsistent" {
		t.Errorf("bottom String = %q", bot.String())
	}
	if NewDefault().String() != "true" {
		t.Errorf("empty String = %q", NewDefault().String())
	}
}

// bruteClose computes shortest paths by repeated relaxation for the oracle.
func bruteClose(n int, edges map[[2]int]int64) map[[2]int]int64 {
	d := map[[2]int]int64{}
	get := func(i, j int) int64 {
		if i == j {
			if v, ok := d[[2]int{i, j}]; ok {
				return v
			}
			return 0
		}
		if v, ok := d[[2]int{i, j}]; ok {
			return v
		}
		return Inf
	}
	for k, v := range edges {
		d[k] = v
	}
	for changed := true; changed; {
		changed = false
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				for k := 0; k < n; k++ {
					if get(i, k) < Inf && get(k, j) < Inf && get(i, k)+get(k, j) < get(i, j) {
						d[[2]int{i, j}] = get(i, k) + get(k, j)
						changed = true
					}
				}
			}
		}
		// Stop early on negative cycle; caller checks diagonal.
		for i := 0; i < n; i++ {
			if get(i, i) < 0 {
				return d
			}
		}
	}
	return d
}

func TestQuickIncrementalMatchesBrute(t *testing.T) {
	// Property: incrementally maintained closure equals the brute-force
	// shortest-path closure on random constraint sets, on both backends.
	names := []string{"v0", "v1", "v2", "v3", "v4"}
	cfg := &quick.Config{MaxCount: 120}
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		for _, opts := range backends() {
			g := New(opts)
			for _, nm := range names {
				g.AddVar(nm)
			}
			edges := map[[2]int]int64{}
			nEdges := r.Intn(10) + 1
			consistent := true
			for e := 0; e < nEdges && consistent; e++ {
				i, j := r.Intn(5), r.Intn(5)
				if i == j {
					continue
				}
				c := int64(r.Intn(11) - 3)
				if old, ok := edges[[2]int{i, j}]; !ok || c < old {
					edges[[2]int{i, j}] = c
				}
				consistent = g.AddLE(names[i], names[j], c)
			}
			oracle := bruteClose(5, edges)
			negCycle := false
			for i := 0; i < 5; i++ {
				if v, ok := oracle[[2]int{i, i}]; ok && v < 0 {
					negCycle = true
				}
			}
			if negCycle {
				if g.Consistent() {
					return false
				}
				continue
			}
			if !g.Consistent() {
				return false
			}
			for i := 0; i < 5; i++ {
				for j := 0; j < 5; j++ {
					if i == j {
						continue
					}
					want, okWant := oracle[[2]int{i, j}]
					got, okGot := g.DiffBound(names[i], names[j])
					if okWant != okGot || (okWant && want != got && want < Inf) {
						return false
					}
				}
			}
		}
		return true
	}
	if err := quick.Check(f, cfg); err != nil {
		t.Error(err)
	}
}

func TestQuickJoinIsUpperBound(t *testing.T) {
	// Property: Join(a,b) is entailed by both a and b.
	names := []string{"v0", "v1", "v2"}
	cfg := &quick.Config{MaxCount: 150}
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		mk := func() *Graph {
			g := NewDefault()
			for e := 0; e < r.Intn(5)+1; e++ {
				i, j := r.Intn(3), r.Intn(3)
				if i == j {
					continue
				}
				g.AddLE(names[i], names[j], int64(r.Intn(7)-1))
			}
			return g
		}
		a, b := mk(), mk()
		j := Join(a, b)
		return Leq(a, j) && Leq(b, j)
	}
	if err := quick.Check(f, cfg); err != nil {
		t.Error(err)
	}
}

func TestBackendsAgree(t *testing.T) {
	// The two storage backends must compute identical results.
	r := rand.New(rand.NewSource(7))
	names := []string{"a", "b", "c", "d", "e", "f"}
	ga := New(Options{Backend: ArrayBackend})
	gm := New(Options{Backend: MapBackend})
	for e := 0; e < 25; e++ {
		i, j := r.Intn(6), r.Intn(6)
		if i == j {
			continue
		}
		c := int64(r.Intn(9))
		ra := ga.AddLE(names[i], names[j], c)
		rm := gm.AddLE(names[i], names[j], c)
		if ra != rm {
			t.Fatalf("backends disagree on AddLE result at step %d", e)
		}
	}
	for _, x := range names {
		for _, y := range names {
			ba, oka := ga.DiffBound(x, y)
			bm, okm := gm.DiffBound(x, y)
			if oka != okm || (oka && ba != bm) {
				t.Errorf("DiffBound(%s,%s): array=%d,%v map=%d,%v", x, y, ba, oka, bm, okm)
			}
		}
	}
}

func TestRenameConflictPanics(t *testing.T) {
	g := NewDefault()
	g.AddVar("a")
	g.AddVar("b")
	defer func() {
		if recover() == nil {
			t.Error("Rename onto existing name did not panic")
		}
	}()
	g.Rename("a", "b")
}
