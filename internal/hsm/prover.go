package hsm

import (
	"context"
	"fmt"
	"runtime/pprof"
	"sort"
	"sync/atomic"
	"time"

	"repro/internal/obs"
	"repro/internal/sym"
)

// Prover decides HSM equalities by bounded heuristic search over the
// Table I rewrite rules, as the paper prescribes ("mechanized by using
// heuristically guided search, a standard technique in automated theorem
// provers").
//
// Two relations are supported:
//
//   - SeqEqual: the HSMs denote the same sequence. Decided by the
//     normalizing rewrites alone (collapse + adjacency merges), which give
//     a canonical form for the sequences arising from Table I operations.
//   - SetEqual: the HSMs denote the same multiset of values in a possibly
//     different order. Decided by breadth-first search over the
//     order-changing rules (level swap, interleaving) combined with the
//     sequence-preserving ones (adjacency, reshape).
type Prover struct {
	Ctx *Ctx
	// MaxStates bounds the BFS frontier; defaults to 4096.
	MaxStates int
	// MaxDepth bounds rewrite distance; defaults to 8.
	MaxDepth int
	// Stats
	StatesExplored int
	Proofs         int
	Failures       int
	// Tracer, when non-nil, receives one obs.PhaseProver span per search.
	// The spans land on the dedicated prover lane (obs.ProverTid) under
	// TracePID's process. Only a retaining tracer gets the searched terms
	// as the key and the explored-state count in the detail, so a tracer
	// that keeps totals only costs no allocation.
	Tracer   *obs.Tracer
	TracePID int
	// ProfileLabels attaches the psdf_phase=prover pprof goroutine label
	// to searches, so CPU profiles attribute normalization and BFS samples
	// to the prover alongside the engine's phase labels.
	ProfileLabels bool
	// Searches / SearchNs count searches (SeqEqual and SetEqual calls) and
	// their cumulative wall time. Unlike the plain-int Stats above they
	// are atomics: progress samplers and the engine profiler read them
	// live from other goroutines while the matcher-serialized searches
	// run.
	Searches atomic.Int64
	SearchNs atomic.Int64
}

// timed wraps a search body with the search counters.
func (p *Prover) timed(fn func() bool) func() bool {
	return func() bool {
		start := time.Now()
		defer func() {
			p.Searches.Add(1)
			p.SearchNs.Add(time.Since(start).Nanoseconds())
		}()
		return fn()
	}
}

// labeled runs fn under the prover pprof label when ProfileLabels is set.
func (p *Prover) labeled(fn func() bool) bool {
	if !p.ProfileLabels {
		return fn()
	}
	var res bool
	pprof.Do(context.Background(), pprof.Labels("psdf_phase", "prover"),
		func(context.Context) { res = fn() })
	return res
}

// NewProver returns a prover over the context.
func NewProver(ctx *Ctx) *Prover {
	return &Prover{Ctx: ctx, MaxStates: 4096, MaxDepth: 8}
}

// SeqEqual reports whether a and b provably denote the same sequence.
func (p *Prover) SeqEqual(a, b *HSM) bool {
	return p.labeled(p.timed(func() bool {
		sp := p.Tracer.Begin(p.TracePID, obs.ProverTid, obs.PhaseProver, p.spanKey(a, relSeq, b))
		defer sp.EndDetail("rel=seq")
		na := p.Ctx.Normalize(a)
		nb := p.Ctx.Normalize(b)
		if Equal(na, nb) {
			p.Proofs++
			return true
		}
		p.Failures++
		return false
	}))
}

// SetEqual reports whether a and b provably denote the same set of values.
func (p *Prover) SetEqual(a, b *HSM) bool {
	return p.labeled(p.timed(func() bool {
		sp := p.Tracer.Begin(p.TracePID, obs.ProverTid, obs.PhaseProver, p.spanKey(a, relSet, b))
		before := p.StatesExplored
		res := p.setEqualSearch(a, b)
		detail := "rel=set"
		if p.Tracer.Retaining() {
			detail = fmt.Sprintf("rel=set states=%d", p.StatesExplored-before)
		}
		sp.EndDetail(detail)
		return res
	}))
}

// spanKey renders a search's span key, for a retaining tracer only.
// Set-equality is symmetric, so its key orders the operands canonically.
func (p *Prover) spanKey(a *HSM, rel string, b *HSM) string {
	if !p.Tracer.Retaining() {
		return ""
	}
	ka, kb := a.Key(), b.Key()
	if rel == relSet && kb < ka {
		ka, kb = kb, ka
	}
	return ka + rel + kb
}

// The relations' span-key separators.
const (
	relSeq = " =seq "
	relSet = " ~set "
)

func (p *Prover) setEqualSearch(a, b *HSM) bool {
	na := p.Ctx.Normalize(a)
	nb := p.Ctx.Normalize(b)
	if Equal(na, nb) {
		p.Proofs++
		return true
	}
	target := nb.Key()
	seen := map[string]bool{na.Key(): true}
	frontier := []*HSM{na}
	for depth := 0; depth < p.maxDepth(); depth++ {
		var next []*HSM
		for _, h := range frontier {
			for _, nh := range p.neighbors(h) {
				k := nh.Key()
				if seen[k] {
					continue
				}
				if k == target {
					p.Proofs++
					return true
				}
				seen[k] = true
				p.StatesExplored++
				if len(seen) > p.maxStates() {
					p.Failures++
					return false
				}
				next = append(next, nh)
			}
		}
		if len(next) == 0 {
			break
		}
		frontier = next
	}
	p.Failures++
	return false
}

func (p *Prover) maxStates() int {
	if p.MaxStates <= 0 {
		return 4096
	}
	return p.MaxStates
}

func (p *Prover) maxDepth() int {
	if p.MaxDepth <= 0 {
		return 8
	}
	return p.MaxDepth
}

// neighbors generates all HSMs one set-preserving rewrite away from h,
// applying rules at every node of the term.
func (p *Prover) neighbors(h *HSM) []*HSM {
	var out []*HSM
	p.rewriteAt(h, func(sub *HSM) []*HSM {
		return p.localRewrites(sub)
	}, func(nh *HSM) {
		out = append(out, p.Ctx.Normalize(nh))
	})
	return out
}

// rewriteAt applies gen to every subterm of h, emitting h with that subterm
// replaced by each generated alternative.
func (p *Prover) rewriteAt(h *HSM, gen func(*HSM) []*HSM, emit func(*HSM)) {
	for _, alt := range gen(h) {
		emit(alt)
	}
	if !h.IsLeaf() {
		p.rewriteAt(h.Child, gen, func(nc *HSM) {
			emit(Node(nc, h.R, h.S))
		})
	}
}

// localRewrites generates single-step rewrites rooted at h.
func (p *Prover) localRewrites(h *HSM) []*HSM {
	if h.IsLeaf() {
		return nil
	}
	c := p.Ctx
	var out []*HSM

	// Level swap (set-equality): [[e:r,s]:r',s'] ~ [[e:r',s']:r,s].
	if !h.Child.IsLeaf() {
		inner := h.Child
		out = append(out, Node(Node(inner.Child, h.R, h.S), inner.R, inner.S))
	}

	// Interleave forward (set-equality): [[e:r,r'*s]:r',s] ~ [e:r*r',s].
	if !h.Child.IsLeaf() {
		inner := h.Child
		if c.equal(inner.S, sym.Mul(h.R, h.S)) {
			out = append(out, Node(inner.Child, sym.Mul(inner.R, h.R), h.S))
		}
	}

	// Interleave backward: [e:R,s] ~ [[e:R/p, p*s]:p, s] for factor p.
	for _, f := range p.factorCandidates(h.R) {
		if r, ok := c.divExact(h.R, f); ok && c.ProvePos(r) && c.ProvePos(f) && !isConstOne(f) {
			inner := Node(h.Child, r, sym.Mul(f, h.S))
			out = append(out, Node(inner, f, h.S))
		}
	}

	// Adjacency backward (reshape; sequence-preserving): [e:R,s] ->
	// [[e:p,s]:R/p, p*s].
	for _, f := range p.factorCandidates(h.R) {
		if re, err := c.reshape(h, f); err == nil {
			out = append(out, re)
		}
	}

	// Adjacency forward is performed by Normalize already; still expose it
	// for subterms whose strides only match after other rewrites.
	if !h.Child.IsLeaf() {
		inner := h.Child
		if c.equal(h.S, sym.Mul(inner.R, inner.S)) {
			out = append(out, Node(inner.Child, sym.Mul(inner.R, h.R), inner.S))
		}
	}
	return out
}

// factorCandidates proposes divisors to try when splitting a repetition
// count: the symbols appearing in it, products with small constants, and
// small constant factors.
func (p *Prover) factorCandidates(r sym.Expr) []sym.Expr {
	r = p.Ctx.norm(r)
	seen := map[string]bool{}
	var out []sym.Expr
	add := func(e sym.Expr) {
		k := e.Key()
		if !seen[k] {
			seen[k] = true
			out = append(out, e)
		}
	}
	vars := r.Vars()
	sort.Strings(vars)
	for _, v := range vars {
		add(sym.Var(v))
		add(sym.Scale(sym.Var(v), 2))
	}
	for _, k := range []int64{2, 3, 4} {
		add(sym.Const(k))
	}
	if v, ok := r.IsConst(); ok {
		for d := int64(2); d*d <= v; d++ {
			if v%d == 0 {
				add(sym.Const(d))
				add(sym.Const(v / d))
			}
		}
	}
	return out
}
