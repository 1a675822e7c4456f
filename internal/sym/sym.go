// Package sym implements exact symbolic integer arithmetic: multivariate
// polynomials with int64 coefficients over named symbols (np, nrows, loop
// variables, widening parameters). Process-set bounds, message expressions
// and HSM parameters are all sym.Expr values, so equality of symbolic
// quantities reduces to syntactic equality of normal forms, optionally after
// substituting known invariants such as np = nrows*ncols.
package sym

import (
	"bytes"
	"sort"
	"strconv"
	"strings"
	"sync"
)

// term is a single monomial: coefficient times a product of variables.
// vars is sorted and may contain repeats (x*x has vars ["x","x"]).
type term struct {
	coef int64
	vars []string
}

func (t term) key() string { return strings.Join(t.vars, "*") }

// Expr is a polynomial in normal form: terms sorted by monomial key, no zero
// coefficients. The zero value is the polynomial 0. Exprs are immutable;
// all operations return new values.
type Expr struct {
	terms []term
}

// Zero is the polynomial 0.
var Zero = Expr{}

// One is the polynomial 1.
var One = Const(1)

// Const returns the constant polynomial c. Small constants, which every
// integer literal of a program becomes, are shared: Exprs are immutable.
func Const(c int64) Expr {
	if c == 0 {
		return Expr{}
	}
	if c >= minSmallConst && c <= maxSmallConst {
		return smallConsts[c-minSmallConst]
	}
	return Expr{terms: []term{{coef: c}}}
}

// The shared constants of Const: minSmallConst..maxSmallConst, each with a
// one-term slice that no append can grow into its neighbour's. The entry
// for 0 is never returned.
const minSmallConst, maxSmallConst = -64, 255

var smallConsts = func() []Expr {
	ts := make([]term, maxSmallConst-minSmallConst+1)
	out := make([]Expr, len(ts))
	for i := range ts {
		ts[i].coef = int64(i) + minSmallConst
		out[i] = Expr{terms: ts[i : i+1 : i+1]}
	}
	return out
}()

// varCache interns the Expr for each variable name. Var is the hottest
// constructor (bound enrichment and substitution mint the same handful of
// names over and over), and since Exprs are immutable — every operation
// that changes a coefficient copies the terms first, and vars slices are
// shared freely already (Neg, scaleTerms) — handing out one shared Expr
// per name is safe.
var varCache sync.Map // string -> Expr

// Var returns the polynomial consisting of the single variable name.
func Var(name string) Expr {
	if e, ok := varCache.Load(name); ok {
		return e.(Expr)
	}
	e := Expr{terms: []term{{coef: 1, vars: []string{name}}}}
	varCache.Store(name, e)
	return e
}

// VarPlus returns name + c, the paper's "var + c" message-expression form.
// AddConst builds it in one allocation on the cached Var (none for c == 0).
func VarPlus(name string, c int64) Expr { return AddConst(Var(name), c) }

// normalize sorts terms and merges equal monomials, dropping zeros.
func normalize(ts []term) Expr {
	byKey := map[string]*term{}
	var keys []string
	for _, t := range ts {
		k := t.key()
		if ex, ok := byKey[k]; ok {
			ex.coef += t.coef
		} else {
			cp := term{coef: t.coef, vars: append([]string(nil), t.vars...)}
			byKey[k] = &cp
			keys = append(keys, k)
		}
	}
	sort.Strings(keys)
	var out []term
	for _, k := range keys {
		if byKey[k].coef != 0 {
			out = append(out, *byKey[k])
		}
	}
	return Expr{terms: out}
}

// compareMonomials orders two sorted variable lists exactly as their
// '*'-joined key strings would compare, without materializing the strings.
// This must agree with normalize's sort.Strings order so that merged and
// map-normalized expressions share one normal form.
func compareMonomials(a, b []string) int {
	ia, ja := 0, 0
	ib, jb := 0, 0
	for {
		ca, oka := monomialByte(a, &ia, &ja)
		cb, okb := monomialByte(b, &ib, &jb)
		switch {
		case !oka && !okb:
			return 0
		case !oka:
			return -1
		case !okb:
			return 1
		case ca != cb:
			if ca < cb {
				return -1
			}
			return 1
		}
	}
}

// monomialByte yields successive bytes of strings.Join(x, "*").
func monomialByte(x []string, i, j *int) (byte, bool) {
	for *i < len(x) {
		if s := x[*i]; *j < len(s) {
			c := s[*j]
			*j++
			return c, true
		}
		*i++
		*j = 0
		if *i < len(x) {
			return '*', true
		}
	}
	return 0, false
}

// Add returns a + b as a linear merge of the two normal forms (the hottest
// operation in bound enrichment; the merge avoids normalize's map and sort).
func Add(a, b Expr) Expr {
	if len(a.terms) == 0 {
		return b
	}
	if len(b.terms) == 0 {
		return a
	}
	out := make([]term, 0, len(a.terms)+len(b.terms))
	i, j := 0, 0
	for i < len(a.terms) && j < len(b.terms) {
		switch cmp := compareMonomials(a.terms[i].vars, b.terms[j].vars); {
		case cmp < 0:
			out = append(out, a.terms[i])
			i++
		case cmp > 0:
			out = append(out, b.terms[j])
			j++
		default:
			if c := a.terms[i].coef + b.terms[j].coef; c != 0 {
				out = append(out, term{coef: c, vars: a.terms[i].vars})
			}
			i++
			j++
		}
	}
	out = append(out, a.terms[i:]...)
	out = append(out, b.terms[j:]...)
	return Expr{terms: out}
}

// Sub returns a - b.
func Sub(a, b Expr) Expr { return Add(a, Neg(b)) }

// Neg returns -a.
func Neg(a Expr) Expr {
	ts := make([]term, len(a.terms))
	for i, t := range a.terms {
		ts[i] = term{coef: -t.coef, vars: t.vars}
	}
	return Expr{terms: ts}
}

// Mul returns a * b.
func Mul(a, b Expr) Expr {
	if len(a.terms) == 0 || len(b.terms) == 0 {
		return Expr{}
	}
	// Constant factors scale coefficients in place and preserve the normal
	// form, skipping the general product + normalize.
	if c, ok := b.IsConst(); ok {
		return scaleTerms(a, c)
	}
	if c, ok := a.IsConst(); ok {
		return scaleTerms(b, c)
	}
	var ts []term
	for _, ta := range a.terms {
		for _, tb := range b.terms {
			vars := make([]string, 0, len(ta.vars)+len(tb.vars))
			vars = append(vars, ta.vars...)
			vars = append(vars, tb.vars...)
			sort.Strings(vars)
			ts = append(ts, term{coef: ta.coef * tb.coef, vars: vars})
		}
	}
	return normalize(ts)
}

// scaleTerms multiplies every coefficient by the nonzero-checked constant c.
func scaleTerms(a Expr, c int64) Expr {
	if c == 0 {
		return Expr{}
	}
	if c == 1 {
		return a
	}
	ts := make([]term, len(a.terms))
	for i, t := range a.terms {
		ts[i] = term{coef: c * t.coef, vars: t.vars}
	}
	return Expr{terms: ts}
}

// Scale returns c * a.
func Scale(a Expr, c int64) Expr { return scaleTerms(a, c) }

// AddConst returns a + c without building the intermediate constant
// polynomial: the constant monomial (empty key) always sorts first.
func AddConst(a Expr, c int64) Expr {
	if c == 0 {
		return a
	}
	if len(a.terms) == 0 {
		return Const(c)
	}
	if len(a.terms[0].vars) == 0 {
		nc := a.terms[0].coef + c
		if nc == 0 {
			return Expr{terms: a.terms[1:]}
		}
		ts := append([]term(nil), a.terms...)
		ts[0].coef = nc
		return Expr{terms: ts}
	}
	ts := make([]term, 0, len(a.terms)+1)
	ts = append(ts, term{coef: c})
	ts = append(ts, a.terms...)
	return Expr{terms: ts}
}

// IsZero reports whether e is the polynomial 0.
func (e Expr) IsZero() bool { return len(e.terms) == 0 }

// IsConst reports whether e is a constant, returning its value.
func (e Expr) IsConst() (int64, bool) {
	switch len(e.terms) {
	case 0:
		return 0, true
	case 1:
		if len(e.terms[0].vars) == 0 {
			return e.terms[0].coef, true
		}
	}
	return 0, false
}

// Equal reports whether a and b are syntactically equal normal forms. It
// walks the terms directly; since variable names never contain '*' or '|',
// this agrees exactly with a.CompareKey(b) == 0.
func Equal(a, b Expr) bool {
	if len(a.terms) != len(b.terms) {
		return false
	}
	for i := range a.terms {
		ta, tb := a.terms[i], b.terms[i]
		if ta.coef != tb.coef || len(ta.vars) != len(tb.vars) {
			return false
		}
		for j := range ta.vars {
			if ta.vars[j] != tb.vars[j] {
				return false
			}
		}
	}
	return true
}

// Key returns a canonical string usable as a map key. Unlike String it
// serializes the normal form directly — no re-ordering, one builder pass —
// because Key sits on the hot dedup/memoization paths (bound atom sets, the
// HSM matcher's invariant fingerprint and the prover's search).
func (e Expr) Key() string {
	if len(e.terms) == 0 {
		return "0"
	}
	n := 0
	for _, t := range e.terms {
		n += 4 + len(t.vars)
		for _, v := range t.vars {
			n += len(v)
		}
	}
	var b strings.Builder
	b.Grow(n)
	for i, t := range e.terms {
		if i > 0 {
			b.WriteByte('|')
		}
		b.WriteString(strconv.FormatInt(t.coef, 10))
		for _, v := range t.vars {
			b.WriteByte('*')
			b.WriteString(v)
		}
	}
	return b.String()
}

// AppendKey renders e.Key() into dst byte-for-byte (the canonical
// "coef*var*var|..." form) without the string conversion.
func (e Expr) AppendKey(dst []byte) []byte {
	if len(e.terms) == 0 {
		return append(dst, '0')
	}
	for i, t := range e.terms {
		if i > 0 {
			dst = append(dst, '|')
		}
		dst = strconv.AppendInt(dst, t.coef, 10)
		for _, v := range t.vars {
			dst = append(dst, '*')
			dst = append(dst, v...)
		}
	}
	return dst
}

// CompareKey orders e and o exactly as strings.Compare(e.Key(), o.Key())
// would, without materializing the key strings — the comparison the bound
// atom-set operations run in their inner loops. Both keys render into stack
// buffers; only a key longer than 64 bytes spills to the heap.
func (e Expr) CompareKey(o Expr) int {
	var ea, oa [64]byte
	return bytes.Compare(e.AppendKey(ea[:0]), o.AppendKey(oa[:0]))
}

// Vars returns the sorted set of distinct variables appearing in e.
func (e Expr) Vars() []string {
	set := map[string]bool{}
	for _, t := range e.terms {
		for _, v := range t.vars {
			set[v] = true
		}
	}
	out := make([]string, 0, len(set))
	for v := range set {
		out = append(out, v)
	}
	sort.Strings(out)
	return out
}

// Uses reports whether variable name appears in e.
func (e Expr) Uses(name string) bool {
	for _, t := range e.terms {
		for _, v := range t.vars {
			if v == name {
				return true
			}
		}
	}
	return false
}

// Degree returns the total degree of the polynomial (0 for constants).
func (e Expr) Degree() int {
	d := 0
	for _, t := range e.terms {
		if len(t.vars) > d {
			d = len(t.vars)
		}
	}
	return d
}

// IsAffine reports whether every monomial has degree at most 1.
func (e Expr) IsAffine() bool { return e.Degree() <= 1 }

// AsVarPlusConst decomposes e as v + c for a single variable v with unit
// coefficient. The variable is "" when e is the bare constant c. Returns
// ok=false for any other shape (this is exactly the representation the
// Section VII client supports for message expressions and bounds).
func (e Expr) AsVarPlusConst() (v string, c int64, ok bool) {
	switch len(e.terms) {
	case 0:
		return "", 0, true
	case 1:
		t := e.terms[0]
		if len(t.vars) == 0 {
			return "", t.coef, true
		}
		if len(t.vars) == 1 && t.coef == 1 {
			return t.vars[0], 0, true
		}
	case 2:
		var con, lin *term
		for i := range e.terms {
			switch len(e.terms[i].vars) {
			case 0:
				con = &e.terms[i]
			case 1:
				lin = &e.terms[i]
			}
		}
		if con != nil && lin != nil && lin.coef == 1 {
			return lin.vars[0], con.coef, true
		}
	}
	return "", 0, false
}

// Coeff returns the coefficient of the degree-1 monomial in name.
func (e Expr) Coeff(name string) int64 {
	for _, t := range e.terms {
		if len(t.vars) == 1 && t.vars[0] == name {
			return t.coef
		}
	}
	return 0
}

// Subst returns e with every occurrence of variable name replaced by repl.
// A var+c expression that uses name is name + c, so it becomes repl + c
// without the general product.
func Subst(e Expr, name string, repl Expr) Expr {
	if !e.Uses(name) {
		return e
	}
	if _, c, ok := e.AsVarPlusConst(); ok {
		return AddConst(repl, c)
	}
	out := Zero
	for _, t := range e.terms {
		mono := Const(t.coef)
		for _, v := range t.vars {
			if v == name {
				mono = Mul(mono, repl)
			} else {
				mono = Mul(mono, Var(v))
			}
		}
		out = Add(out, mono)
	}
	return out
}

// SubstAll applies all substitutions in env simultaneously (each variable is
// replaced once; replacements are not re-substituted).
func SubstAll(e Expr, env map[string]Expr) Expr {
	hit := false
	for _, t := range e.terms {
		for _, v := range t.vars {
			if _, ok := env[v]; ok {
				hit = true
				break
			}
		}
		if hit {
			break
		}
	}
	if !hit {
		return e
	}
	out := Zero
	for _, t := range e.terms {
		mono := Const(t.coef)
		for _, v := range t.vars {
			if r, ok := env[v]; ok {
				mono = Mul(mono, r)
			} else {
				mono = Mul(mono, Var(v))
			}
		}
		out = Add(out, mono)
	}
	return out
}

// Div attempts the exact division a / b where b is a single term (for
// example 2*nrows or a constant). It succeeds when every monomial of a is
// divisible by b: coefficients divide exactly and b's variables (with
// multiplicity) appear in each monomial.
func Div(a, b Expr) (Expr, bool) {
	if len(b.terms) != 1 || b.terms[0].coef == 0 {
		return Zero, false
	}
	bt := b.terms[0]
	var out []term
	for _, t := range a.terms {
		if t.coef%bt.coef != 0 {
			return Zero, false
		}
		vars := append([]string(nil), t.vars...)
		for _, bv := range bt.vars {
			idx := -1
			for i, v := range vars {
				if v == bv {
					idx = i
					break
				}
			}
			if idx < 0 {
				return Zero, false
			}
			vars = append(vars[:idx], vars[idx+1:]...)
		}
		out = append(out, term{coef: t.coef / bt.coef, vars: vars})
	}
	return normalize(out), true
}

// Term is the exported view of a monomial: Coef * product(Vars).
// Vars is sorted and may repeat for higher powers.
type Term struct {
	Coef int64
	Vars []string
}

// Terms returns the monomials of e in canonical order. The returned slices
// must not be mutated.
func (e Expr) Terms() []Term {
	out := make([]Term, len(e.terms))
	for i, t := range e.terms {
		out[i] = Term{Coef: t.coef, Vars: t.vars}
	}
	return out
}

// Eval evaluates e under a concrete assignment. Missing variables default
// to 0.
func (e Expr) Eval(env map[string]int64) int64 {
	var total int64
	for _, t := range e.terms {
		v := t.coef
		for _, name := range t.vars {
			v *= env[name]
		}
		total += v
	}
	return total
}

// String renders the polynomial deterministically, e.g. "2*nrows + x - 3".
func (e Expr) String() string {
	var buf [64]byte
	return string(e.AppendString(buf[:0]))
}

// AppendString appends e's rendering, the text String returns, to dst.
func (e Expr) AppendString(dst []byte) []byte {
	if len(e.terms) == 0 {
		return append(dst, '0')
	}
	// Render variables before the constant term for readability. The normal
	// form is sorted by monomial key, which places the (single) constant
	// term first, so it is rendered after the others.
	ts, last := e.terms, []term(nil)
	if len(ts[0].vars) == 0 && len(ts) > 1 {
		ts, last = ts[1:], ts[:1]
	}
	for i, t := range ts {
		dst = appendTerm(dst, t, i == 0)
	}
	for _, t := range last {
		dst = appendTerm(dst, t, false)
	}
	return dst
}

// appendTerm appends one term of a rendering: its sign (an operator unless
// it is the first term), its coefficient unless that is 1, and its
// variables joined by '*'.
func appendTerm(dst []byte, t term, first bool) []byte {
	c := t.coef
	switch {
	case c < 0 && first:
		dst = append(dst, '-')
		c = -c
	case c < 0:
		dst = append(dst, " - "...)
		c = -c
	case !first:
		dst = append(dst, " + "...)
	}
	if len(t.vars) == 0 {
		return strconv.AppendInt(dst, c, 10)
	}
	if c != 1 {
		dst = append(strconv.AppendInt(dst, c, 10), '*')
	}
	for i, v := range t.vars {
		if i > 0 {
			dst = append(dst, '*')
		}
		dst = append(dst, v...)
	}
	return dst
}

// Cmp compares two constant differences: it returns the constant value of
// a-b if that difference is constant. Normal forms are unique and the
// constant term sorts first, so a-b is constant exactly when the remaining
// terms of a and b are equal; no difference is built.
func Cmp(a, b Expr) (int64, bool) {
	ca, ta := splitConst(a)
	cb, tb := splitConst(b)
	if !Equal(ta, tb) {
		return 0, false
	}
	return ca - cb, true
}

// splitConst splits e into its constant term and the rest.
func splitConst(e Expr) (int64, Expr) {
	if len(e.terms) > 0 && len(e.terms[0].vars) == 0 {
		return e.terms[0].coef, Expr{terms: e.terms[1:]}
	}
	return 0, e
}
