package hsm

import (
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"testing"
	"testing/quick"

	"repro/internal/sym"
)

func env(pairs ...any) map[string]int64 {
	m := map[string]int64{}
	for i := 0; i < len(pairs); i += 2 {
		m[pairs[i].(string)] = int64(pairs[i+1].(int))
	}
	return m
}

func TestEnumerateSimple(t *testing.T) {
	// [11 : 4, 5] = <11,16,21,26> (paper Section VIII-A).
	h := Run(sym.Const(11), sym.Const(4), sym.Const(5))
	got := h.Enumerate(nil, 100)
	want := []int64{11, 16, 21, 26}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("enumerate = %v, want %v", got, want)
	}
}

func TestEnumerateNested(t *testing.T) {
	// [[0 : 2, 10] : 3, 100] = <0,10,100,110,200,210>.
	h := Node(Run(sym.Const(0), sym.Const(2), sym.Const(10)), sym.Const(3), sym.Const(100))
	got := h.Enumerate(nil, 100)
	want := []int64{0, 10, 100, 110, 200, 210}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("enumerate = %v, want %v", got, want)
	}
}

func TestLenAndBounds(t *testing.T) {
	h := Node(Run(sym.Const(2), sym.Const(3), sym.Const(2)), sym.Var("n"), sym.Const(6))
	if h.Len().String() != "3*n" {
		t.Errorf("Len = %v", h.Len())
	}
	min, max := h.Bounds()
	if min.String() != "2" {
		t.Errorf("min = %v", min)
	}
	// max = 2 + 2*2 + 6*(n-1) = 6*n
	if max.String() != "6*n" {
		t.Errorf("max = %v", max)
	}
}

func TestNormalizeAdjacency(t *testing.T) {
	ctx := NewCtx()
	// [[2:3,2]:2,6] == [2:6,2] (paper's adjacency sequence-equality).
	h := Node(Run(sym.Const(2), sym.Const(3), sym.Const(2)), sym.Const(2), sym.Const(6))
	n := ctx.Normalize(h)
	want := Run(sym.Const(2), sym.Const(6), sym.Const(2))
	if !Equal(n, want) {
		t.Errorf("normalize = %v, want %v", n, want)
	}
	// Trivial level collapse: [x : 1, 7] == x.
	h2 := Node(Leaf(sym.Var("x")), sym.Const(1), sym.Const(7))
	if got := ctx.Normalize(h2); !Equal(got, Leaf(sym.Var("x"))) {
		t.Errorf("collapse = %v", got)
	}
}

func TestAddSameShape(t *testing.T) {
	ctx := NewCtx().WithLowerBound("n", 1)
	a := Run(sym.Const(0), sym.Var("n"), sym.Const(1))
	b := Run(sym.Const(5), sym.Var("n"), sym.Const(2))
	s, err := ctx.Add(a, b)
	if err != nil {
		t.Fatal(err)
	}
	want := Run(sym.Const(5), sym.Var("n"), sym.Const(3))
	if !Equal(s, want) {
		t.Errorf("sum = %v, want %v", s, want)
	}
}

func TestAddReshape(t *testing.T) {
	ctx := NewCtx().WithLowerBound("n", 1)
	n := sym.Var("n")
	// [0 : n*n, 0] + [[0:n,0]:n,1]: the flat side reshapes to match.
	a := Run(sym.Const(0), sym.Mul(n, n), sym.Zero)
	b := Node(Run(sym.Const(0), n, sym.Zero), n, sym.One)
	s, err := ctx.Add(a, b)
	if err != nil {
		t.Fatal(err)
	}
	e := env("n", 3)
	got := s.Enumerate(e, 100)
	want := b.Enumerate(e, 100)
	if !reflect.DeepEqual(got, want) {
		t.Errorf("sum = %v, want %v", got, want)
	}
}

func TestScalarOps(t *testing.T) {
	ctx := NewCtx()
	h := Run(sym.Const(1), sym.Const(3), sym.Const(2)) // <1,3,5>
	m := ctx.MulScalar(h, sym.Const(10))               // <10,30,50>
	if got := m.Enumerate(nil, 10); !reflect.DeepEqual(got, []int64{10, 30, 50}) {
		t.Errorf("mul = %v", got)
	}
	a := ctx.AddScalar(h, sym.Const(100)) // <101,103,105>
	if got := a.Enumerate(nil, 10); !reflect.DeepEqual(got, []int64{101, 103, 105}) {
		t.Errorf("add = %v", got)
	}
}

func TestPaperModExample(t *testing.T) {
	// [12 : 15, 2] % 6 = [[0:3,2]:5,0] = <0,2,4> x5 (Table I example).
	ctx := NewCtx()
	h := Run(sym.Const(12), sym.Const(15), sym.Const(2))
	m, err := ctx.Mod(h, sym.Const(6))
	if err != nil {
		t.Fatal(err)
	}
	got := m.Enumerate(nil, 100)
	var want []int64
	for _, v := range h.Enumerate(nil, 100) {
		want = append(want, v%6)
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("mod = %v, want %v", got, want)
	}
}

func TestPaperDivExample(t *testing.T) {
	// [20 : 6, 5] / 10 = <2,2,3,3,4,4> (Table I example).
	ctx := NewCtx()
	h := Run(sym.Const(20), sym.Const(6), sym.Const(5))
	d, err := ctx.Div(h, sym.Const(10))
	if err != nil {
		t.Fatal(err)
	}
	got := d.Enumerate(nil, 100)
	want := []int64{2, 2, 3, 3, 4, 4}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("div = %v, want %v", got, want)
	}
}

func TestDivExact(t *testing.T) {
	ctx := NewCtx().WithLowerBound("n", 1)
	n := sym.Var("n")
	// [0 : r, 2n] / n = [0 : r, 2].
	h := Run(sym.Const(0), sym.Var("r"), sym.Scale(n, 2))
	d, err := ctx.Div(h, n)
	if err != nil {
		t.Fatal(err)
	}
	want := Run(sym.Const(0), sym.Var("r"), sym.Const(2))
	if !Equal(d, want) {
		t.Errorf("div = %v, want %v", d, want)
	}
}

// transposeHSM is the paper's square-transpose map [[0:n,n]:n,1].
func transposeHSM(n sym.Expr) *HSM {
	return Node(Run(sym.Const(0), n, n), n, sym.One)
}

func TestSquareGridModDiv(t *testing.T) {
	// Section VIII-A derivation: with np = nrows^2,
	//   id % nrows = [[0:nrows,1]:nrows,0]
	//   id / nrows = [[0:nrows,0]:nrows,1]
	nr := sym.Var("nrows")
	np := sym.Mul(nr, nr)
	ctx := NewCtx().WithLowerBound("nrows", 1)
	id := IDRange(sym.Zero, np)

	m, err := ctx.Mod(id, nr)
	if err != nil {
		t.Fatalf("mod: %v", err)
	}
	wantMod := Node(Run(sym.Const(0), nr, sym.One), nr, sym.Zero)
	if !Equal(m, wantMod) {
		t.Errorf("id %% nrows = %v, want %v", m, wantMod)
	}

	d, err := ctx.Div(id, nr)
	if err != nil {
		t.Fatalf("div: %v", err)
	}
	wantDiv := Node(Run(sym.Const(0), nr, sym.Zero), nr, sym.One)
	if !Equal(d, wantDiv) {
		t.Errorf("id / nrows = %v, want %v", d, wantDiv)
	}

	// (id % nrows)*nrows + id/nrows = [[0:nrows,nrows]:nrows,1].
	prod := ctx.MulScalar(m, nr)
	sum, err := ctx.Add(prod, d)
	if err != nil {
		t.Fatalf("add: %v", err)
	}
	if !Equal(sum, transposeHSM(nr)) {
		t.Errorf("transpose = %v, want %v", sum, transposeHSM(nr))
	}

	// Concrete check at nrows = 4.
	e := env("nrows", 4)
	got := sum.Enumerate(e, 100)
	var want []int64
	for id := int64(0); id < 16; id++ {
		want = append(want, (id%4)*4+id/4)
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("transpose enumerate = %v, want %v", got, want)
	}
}

func TestSurjectionSquareTranspose(t *testing.T) {
	// Section VIII-B2: [[0:nrows,nrows]:nrows,1] maps onto [0:np-1].
	nr := sym.Var("nrows")
	ctx := NewCtx().WithLowerBound("nrows", 1)
	p := NewProver(ctx)
	h := transposeHSM(nr)
	idSeq := IDRange(sym.Zero, sym.Mul(nr, nr))
	if !p.SetEqual(h, idSeq) {
		t.Error("transpose surjection not proved")
	}
	if p.SeqEqual(h, idSeq) {
		t.Error("transpose should NOT be sequence-equal to the identity")
	}
}

func TestIdentityCompositionSquareTranspose(t *testing.T) {
	// Section VIII-B1: applying the transpose expression to the transpose
	// HSM yields the identity sequence [0 : np, 1].
	nr := sym.Var("nrows")
	np := sym.Mul(nr, nr)
	ctx := NewCtx().WithLowerBound("nrows", 1)
	h := transposeHSM(nr)

	m, err := ctx.Mod(h, nr)
	if err != nil {
		t.Fatalf("h %% nrows: %v", err)
	}
	d, err := ctx.Div(h, nr)
	if err != nil {
		t.Fatalf("h / nrows: %v", err)
	}
	sum, err := ctx.Add(ctx.MulScalar(m, nr), d)
	if err != nil {
		t.Fatalf("add: %v", err)
	}
	p := NewProver(ctx)
	if !p.SeqEqual(sum, IDRange(sym.Zero, np)) {
		t.Errorf("composition = %v, want identity [0:np,1]", sum)
	}
}

func TestInterleaveSetEquality(t *testing.T) {
	// [[2:3,4]:2,2] ~ [2:6,2] (paper's interleave example:
	// <2,6,10,4,8,12> as a set equals <2,4,6,8,10,12>).
	ctx := NewCtx()
	p := NewProver(ctx)
	a := Node(Run(sym.Const(2), sym.Const(3), sym.Const(4)), sym.Const(2), sym.Const(2))
	b := Run(sym.Const(2), sym.Const(6), sym.Const(2))
	if !p.SetEqual(a, b) {
		t.Error("interleave set-equality not proved")
	}
	if p.SeqEqual(a, b) {
		t.Error("interleaved sequences are not sequence-equal")
	}
}

func TestSwapSetEquality(t *testing.T) {
	// [[1:2,1]:3,10] ~ [[1:3,10]:2,1] (paper's swap example).
	ctx := NewCtx()
	p := NewProver(ctx)
	a := Node(Run(sym.Const(1), sym.Const(2), sym.Const(1)), sym.Const(3), sym.Const(10))
	b := Node(Run(sym.Const(1), sym.Const(3), sym.Const(10)), sym.Const(2), sym.Const(1))
	if !p.SetEqual(a, b) {
		t.Error("swap set-equality not proved")
	}
}

func TestSetEqualRejectsDifferentSets(t *testing.T) {
	ctx := NewCtx()
	p := NewProver(ctx)
	a := Run(sym.Const(0), sym.Const(4), sym.Const(1)) // {0,1,2,3}
	b := Run(sym.Const(0), sym.Const(4), sym.Const(2)) // {0,2,4,6}
	if p.SetEqual(a, b) {
		t.Error("distinct sets proved equal")
	}
	if p.Failures == 0 {
		t.Error("failure not recorded")
	}
}

func TestProverStats(t *testing.T) {
	ctx := NewCtx()
	p := NewProver(ctx)
	a := Run(sym.Const(0), sym.Const(4), sym.Const(1))
	if !p.SetEqual(a, a) {
		t.Fatal("reflexivity failed")
	}
	if p.Proofs != 1 {
		t.Errorf("Proofs = %d", p.Proofs)
	}
}

func TestQuickOpsSemantics(t *testing.T) {
	// Property: when Add/Div/Mod succeed on random constant HSMs, the
	// result enumerates to the exact elementwise operation.
	cfg := &quick.Config{MaxCount: 400}
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		ctx := NewCtx()
		h := randomHSM(r, 2)
		vals := h.Enumerate(nil, 4096)
		if vals == nil {
			return true
		}
		q := int64(r.Intn(6) + 1)

		if d, err := ctx.Div(h, sym.Const(q)); err == nil {
			got := d.Enumerate(nil, 4096)
			if len(got) != len(vals) {
				return false
			}
			for i, v := range vals {
				if got[i] != v/q {
					return false
				}
			}
		}
		if m, err := ctx.Mod(h, sym.Const(q)); err == nil {
			got := m.Enumerate(nil, 4096)
			if len(got) != len(vals) {
				return false
			}
			for i, v := range vals {
				if got[i] != v%q {
					return false
				}
			}
		}
		k := int64(r.Intn(9) - 4)
		if s := ctx.MulScalar(h, sym.Const(k)); true {
			got := s.Enumerate(nil, 4096)
			for i, v := range vals {
				if got[i] != v*k {
					return false
				}
			}
		}
		h2 := randomHSM(r, 2)
		if a, err := ctx.Add(h, h2); err == nil {
			vals2 := h2.Enumerate(nil, 4096)
			got := a.Enumerate(nil, 4096)
			if len(vals) == len(vals2) {
				for i := range vals {
					if got[i] != vals[i]+vals2[i] {
						return false
					}
				}
			}
		}
		// Normalize preserves the sequence exactly.
		n := ctx.Normalize(h)
		if !reflect.DeepEqual(n.Enumerate(nil, 4096), vals) {
			return false
		}
		return true
	}
	if err := quick.Check(f, cfg); err != nil {
		t.Error(err)
	}
}

func TestQuickSetEqualSound(t *testing.T) {
	// Property: if the prover claims set-equality, the concrete multisets
	// match; and rewrite neighbors always preserve the multiset.
	cfg := &quick.Config{MaxCount: 200}
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		ctx := NewCtx()
		p := NewProver(ctx)
		a := randomHSM(r, 2)
		for _, nb := range p.neighbors(a) {
			if !sameMultiset(a.Enumerate(nil, 4096), nb.Enumerate(nil, 4096)) {
				return false
			}
		}
		b := randomHSM(r, 2)
		if p.SetEqual(a, b) {
			if !sameMultiset(a.Enumerate(nil, 4096), b.Enumerate(nil, 4096)) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, cfg); err != nil {
		t.Error(err)
	}
}

func sameMultiset(a, b []int64) bool {
	if len(a) != len(b) {
		return false
	}
	ac := append([]int64(nil), a...)
	bc := append([]int64(nil), b...)
	sort.Slice(ac, func(i, j int) bool { return ac[i] < ac[j] })
	sort.Slice(bc, func(i, j int) bool { return bc[i] < bc[j] })
	return reflect.DeepEqual(ac, bc)
}

// randomHSM builds a small random constant HSM (nonnegative strides,
// positive repetitions).
func randomHSM(r *rand.Rand, depth int) *HSM {
	if depth == 0 || r.Intn(3) == 0 {
		return Leaf(sym.Const(int64(r.Intn(20))))
	}
	child := randomHSM(r, depth-1)
	rep := sym.Const(int64(r.Intn(4) + 1))
	stride := sym.Const(int64(r.Intn(8)))
	return Node(child, rep, stride)
}

func TestStringRendering(t *testing.T) {
	h := Node(Run(sym.Const(0), sym.Var("nrows"), sym.Var("nrows")), sym.Var("nrows"), sym.One)
	if h.String() != "[[0:nrows,nrows]:nrows,1]" {
		t.Errorf("String = %q", h.String())
	}
	if Leaf(sym.VarPlus("x", 1)).String() != "x + 1" {
		t.Errorf("leaf String = %q", Leaf(sym.VarPlus("x", 1)).String())
	}
}

func TestCtxInvariants(t *testing.T) {
	nr := sym.Var("nrows")
	ctx := NewCtx().
		WithInvariant("np", sym.Mul(nr, nr)).
		WithLowerBound("nrows", 2)
	// np - nrows*nrows normalizes to 0.
	if !ctx.norm(sym.Sub(sym.Var("np"), sym.Mul(nr, nr))).IsZero() {
		t.Error("invariant not applied")
	}
	if !ctx.ProvePos(sym.Var("nrows")) {
		t.Error("nrows > 0 not proved with lower bound 2")
	}
	if ctx.ProvePos(sym.Sub(sym.Var("nrows"), sym.Var("other"))) {
		t.Error("unsound positivity proof")
	}
	if !ctx.ProveNonNeg(sym.Zero) {
		t.Error("0 >= 0 not proved")
	}
}

// TestAppendKeyMatchesReference checks String and AppendKey against the
// fmt rendering "[child:r,s]" on random nested HSMs.
func TestAppendKeyMatchesReference(t *testing.T) {
	var ref func(h *HSM) string
	ref = func(h *HSM) string {
		if h.IsLeaf() {
			return h.Base.String()
		}
		return fmt.Sprintf("[%s:%s,%s]", ref(h.Child), h.R, h.S)
	}
	rng := rand.New(rand.NewSource(30))
	exprs := []sym.Expr{sym.Zero, sym.One, sym.Var("nrows"), sym.VarPlus("np", -1),
		sym.Mul(sym.Var("nrows"), sym.Var("ncols")), sym.Add(sym.Scale(sym.Var("x"), -2), sym.Const(3))}
	pick := func() sym.Expr { return exprs[rng.Intn(len(exprs))] }
	for iter := 0; iter < 2000; iter++ {
		h := Leaf(pick())
		for d := rng.Intn(4); d > 0; d-- {
			h = Node(h, pick(), pick())
		}
		want := ref(h)
		if got := h.String(); got != want || h.Key() != want {
			t.Fatalf("String = %q, reference %q", got, want)
		}
		if got := string(h.AppendKey([]byte("k="))); got != "k="+want {
			t.Fatalf("AppendKey = %q, reference %q", got, "k="+want)
		}
	}
}
