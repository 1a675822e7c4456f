// Package prof is the source-attribution analysis profiler: it aggregates
// engine events (step time, configurations spawned, joins, widenings and
// their failures, give-ups, ⊤ demotions, match-memo misses, HSM prover
// time) onto pCFG nodes and, through their spans, onto MPL source
// constructs.
//
// The profiler records nothing of its own. It is a fold over the events
// its job's obs.Tracer records (Attach): the engine charges each step,
// matcher call, join, widening, widening failure, give-up and ⊤ demotion
// to a CFG node on the event itself, and a matcher call's prover searches
// and their time are the prover spans recorded inside it. The fold keeps
// one counter row per CFG node, so profiling needs no retaining tracer,
// and the profile agrees with the trace by construction: its steps are
// the trace's step spans, its joins the join spans.
//
// Reports render three ways: a heat-annotated source listing (text), a
// machine-readable JSON report (schema "psdf-profile/1", embedding the
// program source so it is self-contained), and folded stacks for
// flamegraph/pprof tooling.
package prof

import (
	"fmt"
	"sort"
	"sync"

	"repro/internal/cfg"
	"repro/internal/obs"
	"repro/internal/source"
)

// Counters is the per-node event aggregate. Ns fields are cumulative wall
// nanoseconds.
//
// MatchNs includes the memo lookup; ProverNs is the subset of MatchNs
// spent inside memo-missing HSM searches.
type Counters struct {
	Steps          int64 `json:"steps,omitempty"`
	StepNs         int64 `json:"step_ns,omitempty"`
	Spawned        int64 `json:"spawned,omitempty"`
	Matches        int64 `json:"matches,omitempty"`
	Matched        int64 `json:"matched,omitempty"`
	MatchNs        int64 `json:"match_ns,omitempty"`
	MemoMisses     int64 `json:"memo_misses,omitempty"`
	ProverSearches int64 `json:"prover_searches,omitempty"`
	ProverNs       int64 `json:"prover_ns,omitempty"`
	Joins          int64 `json:"joins,omitempty"`
	Widenings      int64 `json:"widenings,omitempty"`
	WidenFailures  int64 `json:"widen_failures,omitempty"`
	GiveUps        int64 `json:"give_ups,omitempty"`
	TopDemotions   int64 `json:"top_demotions,omitempty"`
}

func (c *Counters) add(o *Counters) {
	c.Steps += o.Steps
	c.StepNs += o.StepNs
	c.Spawned += o.Spawned
	c.Matches += o.Matches
	c.Matched += o.Matched
	c.MatchNs += o.MatchNs
	c.MemoMisses += o.MemoMisses
	c.ProverSearches += o.ProverSearches
	c.ProverNs += o.ProverNs
	c.Joins += o.Joins
	c.Widenings += o.Widenings
	c.WidenFailures += o.WidenFailures
	c.GiveUps += o.GiveUps
	c.TopDemotions += o.TopDemotions
}

// zero reports whether no event was recorded against the node.
func (c *Counters) zero() bool {
	return c.Steps == 0 && c.Spawned == 0 && c.Matches == 0 &&
		c.Joins == 0 && c.Widenings == 0 && c.WidenFailures == 0 &&
		c.GiveUps == 0 && c.TopDemotions == 0
}

// WidenFailure is one distinct widening failure: the blamed node and the
// first bound-expression pair that admitted no common upper bound.
type WidenFailure struct {
	Node     int    `json:"node"`
	Line     int    `json:"line,omitempty"`
	OldBound string `json:"old_bound,omitempty"`
	NewBound string `json:"new_bound,omitempty"`
	Count    int64  `json:"count"`
}

type failKey struct {
	node     int
	old, new string
}

// nodeInfo is the per-node source resolution captured at Attach.
type nodeInfo struct {
	kind      string
	label     string
	synthetic bool
	span      source.Span
}

// Profiler folds one analysis's events into per-node counters. The zero
// value is not ready; use New, then Attach it before the analysis runs.
type Profiler struct {
	pid  int
	info []nodeInfo

	mu    sync.Mutex
	nodes []Counters
	fails map[failKey]int64
	// searches and proverNs are the prover spans recorded since the last
	// matcher call: the searches of the call in flight.
	searches, proverNs int64
}

// New returns an empty profiler.
func New() *Profiler {
	return &Profiler{fails: make(map[failKey]int64)}
}

// Attach makes p fold the events that tr records for job pid (the
// analysis's Options.Tracer and TracePID), attributed over g's nodes.
// Attach once, before the analysis starts; read the Report after it
// finishes.
func (p *Profiler) Attach(tr *obs.Tracer, pid int, g *cfg.Graph) {
	p.pid = pid
	p.nodes = make([]Counters, len(g.Nodes))
	p.info = make([]nodeInfo, len(g.Nodes))
	for _, n := range g.Nodes {
		if n.ID >= 0 && n.ID < len(p.info) {
			p.info[n.ID] = nodeInfo{
				kind:      n.Kind.String(),
				label:     n.Label(),
				synthetic: n.Synthetic,
				span:      n.Span,
			}
		}
	}
	tr.Fold(p.fold)
}

// fold adds one event of the job to its node's counters.
func (p *Profiler) fold(ev obs.Event) {
	if ev.Pid != p.pid {
		return
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	if ev.Phase == obs.PhaseProver {
		p.searches++
		p.proverNs += int64(ev.Dur)
		return
	}
	if !ev.Phase.Attributed() || ev.Node < 0 || ev.Node >= len(p.nodes) {
		return
	}
	c := &p.nodes[ev.Node]
	switch ev.Phase {
	case obs.PhaseStep:
		c.Steps++
		c.StepNs += int64(ev.Dur)
		c.Spawned += ev.N
	case obs.PhaseMatch:
		c.Matches++
		if ev.Detail == "matched" {
			c.Matched++
		}
		c.MatchNs += int64(ev.Dur)
		c.MemoMisses += ev.N
		c.ProverSearches += p.searches
		c.ProverNs += p.proverNs
		p.searches, p.proverNs = 0, 0
	case obs.PhaseJoin:
		c.Joins++
	case obs.PhaseWiden:
		c.Widenings++
	case obs.PhaseWidenFail:
		c.WidenFailures++
		p.fails[failKey{ev.Node, ev.Key, ev.Detail}]++
	case obs.PhaseGiveup:
		c.GiveUps++
	case obs.PhaseDemote:
		c.TopDemotions++
	}
}

// Report snapshots the profiler into a renderable, serializable report.
// name labels the job (usually the source path); src is the program text
// embedded for self-contained listings (may be empty).
func (p *Profiler) Report(name, src string) *Report {
	r := &Report{Name: name, Source: src}
	if p == nil {
		return r
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	for id := range p.nodes {
		c := &p.nodes[id]
		if c.zero() {
			continue
		}
		in := p.info[id]
		np := NodeProfile{
			Node:      id,
			Kind:      in.kind,
			Label:     in.label,
			Synthetic: in.synthetic,
			Counters:  *c,
		}
		if in.span.IsValid() {
			np.Line = in.span.Start.Line
			np.Col = in.span.Start.Col
			np.EndLine = in.span.End.Line
		}
		r.Nodes = append(r.Nodes, np)
		r.Totals.add(c)
	}
	for k, n := range p.fails {
		wf := WidenFailure{Node: k.node, OldBound: k.old, NewBound: k.new, Count: n}
		if sp := p.info[k.node].span; sp.IsValid() {
			wf.Line = sp.Start.Line
		}
		r.WidenFailures = append(r.WidenFailures, wf)
	}
	sort.Slice(r.WidenFailures, func(i, j int) bool {
		a, b := r.WidenFailures[i], r.WidenFailures[j]
		if a.Count != b.Count {
			return a.Count > b.Count
		}
		if a.Node != b.Node {
			return a.Node < b.Node
		}
		if a.OldBound != b.OldBound {
			return a.OldBound < b.OldBound
		}
		return a.NewBound < b.NewBound
	})
	return r
}

// String is a one-line summary for logs.
func (r *Report) String() string {
	return fmt.Sprintf("%s: %d nodes, %d steps (%.2fms), %d widenings (%d failed), %d give-ups, %d ⊤ demotions",
		r.Name, len(r.Nodes), r.Totals.Steps, float64(r.Totals.StepNs)/1e6,
		r.Totals.Widenings, r.Totals.WidenFailures, r.Totals.GiveUps, r.Totals.TopDemotions)
}
