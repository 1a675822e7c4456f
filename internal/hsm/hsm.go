// Package hsm implements Hierarchical Sequence Maps (Section VIII of the
// paper): descriptors for hierarchies of strided integer sequences, used to
// represent communication expressions over cartesian process grids.
//
// An HSM is either a leaf expression e (the one-element sequence ⟨e⟩) or a
// node [c : r, s] denoting r copies of the sequence c, the j-th copy shifted
// by j*s. All parameters (leaf values, repetition counts, strides) are
// symbolic polynomials (sym.Expr), so a single HSM describes the sequence
// for every value of np, nrows, etc.
//
// The package provides the Table I operations (+, scalar *, /, %), the
// sequence- and set-equality rewrite rules (adjacency, interleaving, level
// swap), and a bounded-search prover for identity and surjectivity of
// send/receive expressions.
package hsm

import "repro/internal/sym"

// HSM is an immutable hierarchical sequence map.
type HSM struct {
	// Leaf case: Base holds the expression; Child is nil.
	Base sym.Expr
	// Node case: Child non-nil, R repetitions (>0), S stride (>=0).
	Child *HSM
	R, S  sym.Expr
}

// Leaf returns the single-element sequence ⟨e⟩.
func Leaf(e sym.Expr) *HSM { return &HSM{Base: e} }

// Node returns [child : r, s].
func Node(child *HSM, r, s sym.Expr) *HSM { return &HSM{Child: child, R: r, S: s} }

// Run returns the flat strided run [e : r, s].
func Run(e, r, s sym.Expr) *HSM { return Node(Leaf(e), r, s) }

// IsLeaf reports whether h is a leaf.
func (h *HSM) IsLeaf() bool { return h.Child == nil }

// Len returns the symbolic sequence length (product of repetition counts).
func (h *HSM) Len() sym.Expr {
	if h.IsLeaf() {
		return sym.One
	}
	return sym.Mul(h.R, h.Child.Len())
}

// String renders the HSM in the paper's syntax, e.g. "[[0:nrows,nrows]:nrows,1]".
func (h *HSM) String() string {
	var buf [64]byte
	return string(h.AppendKey(buf[:0]))
}

// AppendKey appends h's rendering, the text String and Key return, to dst.
func (h *HSM) AppendKey(dst []byte) []byte {
	if h.IsLeaf() {
		return h.Base.AppendString(dst)
	}
	dst = h.Child.AppendKey(append(dst, '['))
	dst = h.R.AppendString(append(dst, ':'))
	dst = h.S.AppendString(append(dst, ','))
	return append(dst, ']')
}

// Key returns a canonical map key (same as String; sym rendering is
// deterministic).
func (h *HSM) Key() string { return h.String() }

// Equal reports structural equality of normal-form parameters.
func Equal(a, b *HSM) bool {
	if a.IsLeaf() != b.IsLeaf() {
		return false
	}
	if a.IsLeaf() {
		return sym.Equal(a.Base, b.Base)
	}
	return sym.Equal(a.R, b.R) && sym.Equal(a.S, b.S) && Equal(a.Child, b.Child)
}

// Enumerate lists the concrete sequence under env. It returns nil if the
// total length exceeds limit (guard for property tests).
func (h *HSM) Enumerate(env map[string]int64, limit int) []int64 {
	n := h.Len().Eval(env)
	if n < 0 || n > int64(limit) {
		return nil
	}
	return h.enumerate(env)
}

func (h *HSM) enumerate(env map[string]int64) []int64 {
	if h.IsLeaf() {
		return []int64{h.Base.Eval(env)}
	}
	child := h.Child.enumerate(env)
	r := h.R.Eval(env)
	s := h.S.Eval(env)
	out := make([]int64, 0, int(r)*len(child))
	for j := int64(0); j < r; j++ {
		for _, v := range child {
			out = append(out, v+j*s)
		}
	}
	return out
}

// Map applies fn to every symbolic parameter (leaf bases, repetitions,
// strides), returning a new HSM.
func (h *HSM) Map(fn func(sym.Expr) sym.Expr) *HSM {
	if h.IsLeaf() {
		return Leaf(fn(h.Base))
	}
	return Node(h.Child.Map(fn), fn(h.R), fn(h.S))
}

// zeroLike returns an HSM of the same shape with all leaf values and strides
// zeroed — the elementwise h % m result when m divides every element.
func zeroLike(h *HSM) *HSM {
	if h.IsLeaf() {
		return Leaf(sym.Zero)
	}
	return Node(zeroLike(h.Child), h.R, sym.Zero)
}

// ---------------------------------------------------------------------------
// Context: invariants and assumptions

// Ctx supplies the facts HSM reasoning needs: equality invariants used to
// normalize symbolic parameters (e.g. np = nrows*ncols) and lower bounds on
// size symbols (e.g. nrows >= 1) used to discharge positivity side
// conditions.
type Ctx struct {
	// Subst maps a variable to its replacement, applied to every symbolic
	// parameter before reasoning.
	Subst map[string]sym.Expr
	// LowerBounds gives a known lower bound per symbol; symbols absent
	// default to 0.
	LowerBounds map[string]int64
}

// NewCtx returns an empty context.
func NewCtx() *Ctx {
	return &Ctx{Subst: map[string]sym.Expr{}, LowerBounds: map[string]int64{}}
}

// WithInvariant records var = repl (applied during normalization).
func (c *Ctx) WithInvariant(name string, repl sym.Expr) *Ctx {
	c.Subst[name] = repl
	return c
}

// WithLowerBound records name >= lb.
func (c *Ctx) WithLowerBound(name string, lb int64) *Ctx {
	c.LowerBounds[name] = lb
	return c
}

// norm applies the invariant substitution to an expression.
func (c *Ctx) norm(e sym.Expr) sym.Expr {
	if c == nil || len(c.Subst) == 0 {
		return e
	}
	return sym.SubstAll(e, c.Subst)
}

// Norm applies the invariant substitution throughout an HSM.
func (c *Ctx) Norm(h *HSM) *HSM { return h.Map(c.norm) }

// lowerBound computes a sound lower bound of e under the context's symbol
// bounds: each monomial with a nonnegative coefficient is bounded below by
// evaluating its variables at their (nonnegative) lower bounds; a monomial
// with a negative coefficient and degree >= 1 cannot be bounded without
// upper bounds, so ok=false.
func (c *Ctx) lowerBound(e sym.Expr) (int64, bool) {
	e = c.norm(e)
	var total int64
	for _, t := range e.Terms() {
		if len(t.Vars) == 0 {
			total += t.Coef
			continue
		}
		if t.Coef < 0 {
			return 0, false
		}
		prod := t.Coef
		for _, v := range t.Vars {
			lb := c.LowerBounds[v]
			if lb < 0 {
				return 0, false
			}
			prod *= lb
		}
		total += prod
	}
	return total, true
}

// ProvePos reports whether e > 0 is provable under the context.
func (c *Ctx) ProvePos(e sym.Expr) bool {
	lb, ok := c.lowerBound(e)
	return ok && lb > 0
}

// ProveNonNeg reports whether e >= 0 is provable under the context.
func (c *Ctx) ProveNonNeg(e sym.Expr) bool {
	lb, ok := c.lowerBound(e)
	return ok && lb >= 0
}

// divExact attempts exact division a / b after normalization.
func (c *Ctx) divExact(a, b sym.Expr) (sym.Expr, bool) {
	return sym.Div(c.norm(a), c.norm(b))
}

// equal tests symbolic equality after normalization.
func (c *Ctx) equal(a, b sym.Expr) bool {
	return sym.Equal(c.norm(a), c.norm(b))
}

// ---------------------------------------------------------------------------
// Bounds

// Bounds returns symbolic (min, max) element bounds of h, assuming all
// repetition counts are >= 1 and strides are >= 0 (the HSM well-formedness
// conditions from the paper).
func (h *HSM) Bounds() (min, max sym.Expr) {
	if h.IsLeaf() {
		return h.Base, h.Base
	}
	cmin, cmax := h.Child.Bounds()
	// max shift is S*(R-1).
	shift := sym.Mul(h.S, sym.AddConst(h.R, -1))
	return cmin, sym.Add(cmax, shift)
}
