package core

import (
	"bytes"
	"fmt"
	"io"
	"log/slog"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/ast"
	"repro/internal/cfg"
	"repro/internal/cg"
	"repro/internal/obs"
	"repro/internal/procset"
	"repro/internal/prof"
	"repro/internal/sym"
	"repro/internal/tri"
)

// Options configures the pCFG analysis engine.
type Options struct {
	// Matcher is the client analysis's send-receive matcher (required).
	Matcher Matcher
	// CGOpts selects the constraint-graph backend and instrumentation.
	CGOpts cg.Options
	// MaxVisits bounds revisits of one shape before giving up (default 64).
	MaxVisits int
	// MaxSteps bounds total propagate steps (default 100000).
	MaxSteps int
	// MaxSets bounds the process sets per configuration before the
	// analysis gives up (default 24); fragmentation beyond this indicates
	// a pattern outside the client's abstraction.
	MaxSets int
	// NonBlockingSends enables the Section X extension: sends do not block;
	// they aggregate into pending-send records that receivers later match.
	// Patterns that send before receiving (all-to-one-then-back, send-first
	// stencils) then need no pipeline analysis.
	NonBlockingSends bool
	// Workers is ignored: every analysis runs its fixpoint on the calling
	// goroutine. Run independent analyses concurrently with AnalyzeAll.
	//
	// Deprecated: kept only so that existing callers still compile.
	Workers int
	// RecordCommBounds enables rank-bounds observations: every process set
	// reaching a communication operation has its partner expression checked
	// against [0, np-1] with the constraint-graph client, and the verdicts
	// accumulate in Result.CommBounds (for the lint rank-bounds pass). Off
	// by default — the checks cost extra entailment queries per comm site.
	RecordCommBounds bool
	// Tracer receives a span per engine phase (step, transfer, match,
	// split, insert, commit, join, widen, dequeue, give-up commit, finish)
	// and a zero-length event per give-up and dump when non-nil. Its
	// retained events are what StallDump receives. Tracing only observes —
	// results are byte-identical with it on or off — and the nil default
	// costs nothing.
	Tracer *obs.Tracer
	// TracePID labels this analysis's spans and progress snapshots when
	// several jobs share one tracer or tracker (AnalyzeAll assigns input
	// position + 1 when zero).
	TracePID int
	// Name labels this analysis in structured logs, progress snapshots and
	// pprof labels (AnalyzeAll copies the Job name when empty).
	Name string
	// Log, when non-nil, receives the engine's structured lifecycle events
	// (start, convergence, stall, budget exhaustion) with per-analysis
	// attributes and, at debug level, every new or widened configuration
	// with its rendered state. Nil disables logging at the cost of one
	// pointer check.
	Log *slog.Logger
	// Progress, when non-nil, receives this analysis's live progress
	// sampler (and, after convergence, its final snapshot) keyed by
	// TracePID — the backing store of /statusz and /metrics. Sampling
	// reads only atomics and mutex-protected counters, so it never stalls
	// the fixpoint.
	Progress *obs.ProgressTracker
	// StallTimeout, when positive, arms a no-progress watchdog over the
	// fixpoint: if steps, widenings and configuration discovery all stand
	// still for this long, the watchdog logs the stall and dumps the
	// Tracer's retained events to StallDump. Observation only — the run
	// continues.
	StallTimeout time.Duration
	// StallDump receives the dump of the Tracer's retained events (trace
	// JSON lines, single write) when the watchdog fires or the step budget
	// aborts the run; a Tracer that retains nothing dumps nothing.
	StallDump io.Writer
	// ForceStall pins the watchdog's progress reading to zero and holds
	// the (converged) run open until the watchdog fires: the deterministic
	// smoke path for the stall machinery. Requires StallTimeout > 0.
	ForceStall bool
	// ProfileLabels attaches runtime/pprof goroutine labels (psdf_job,
	// psdf_phase) to the fixpoint loop and the finish post-pass, so CPU
	// profiles attribute samples per analysis and phase.
	ProfileLabels bool
	// Profiler, when non-nil, collects the source-attribution profile:
	// per-CFG-node step time, spawned configurations, matcher/memo/prover
	// cost, joins, widenings and their failing bound pairs, give-ups and ⊤
	// demotions. The engine records into a private lane and commits it
	// into the profiler once, after convergence. Nil costs one pointer
	// check.
	Profiler *prof.Profiler
	// onRevision, when non-nil, observes every canonicalized successor
	// state delivered to the configuration table, keyed by shape, in the
	// order the table receives them. Recording hook for the identity and
	// arrival-order suites (installed via WithRevisionHook in tests).
	onRevision func(key string, st *State)
}

// joinRung is how many state-changing revisions of a table entry use plain
// join before the combine switches to widening. Deliveries are coalesced:
// one step covers every revision its entry received since it was last
// stepped, so one delivery downstream carries what a worklist that steps
// every revision spreads over roughly frontier-width many, and three joins
// let stable relations (e.g. between widening parameters and np) separate
// from genuinely growing bounds. Two is too few: on the stencil workloads
// the parametric range widening (atom-intersection failure minting a
// fresh bound parameter) can then fire before enough lineages have
// joined. The rung counts state changes, not arrivals, so arrival order
// cannot move it; the chain *content* at rung time is order-dependent
// (DESIGN.md §12).
const joinRung = 3

func (o *Options) maxVisits() int {
	if o.MaxVisits <= 0 {
		return 64
	}
	return o.MaxVisits
}

func (o *Options) maxSets() int {
	if o.MaxSets <= 0 {
		return 24
	}
	return o.MaxSets
}

func (o *Options) maxSteps() int {
	if o.MaxSteps <= 0 {
		return 100000
	}
	return o.MaxSteps
}

// PCFGEdge is one explored pCFG edge: a transition between configurations.
type PCFGEdge struct {
	From, To string // shape keys
	Action   string
}

// Result is the outcome of the analysis.
type Result struct {
	// Matches is the communication topology: the union of send-receive
	// matches over all terminal configurations.
	Matches []*Match
	// Finals are the configurations where every process set reached Exit.
	Finals []*State
	// Tops are the give-up configurations with their reasons.
	Tops []*State
	// Configs counts distinct pCFG nodes (configuration shapes) explored.
	Configs int
	// Edges are the explored pCFG edges, sorted by (From, To, Action).
	Edges []PCFGEdge
	// Steps counts propagate invocations; Widenings counts widen events.
	Steps     int
	Widenings int
	// Prints records what the analysis knows at each print site: the
	// constant-propagation observations of the Fig 2 client.
	Prints []PrintObs
	// Visited, indexed by CFG node ID, marks nodes some non-empty process
	// set reached during exploration. Unvisited non-synthetic nodes are
	// dead code (when the analysis completed cleanly).
	Visited []bool
	// CommBounds holds the rank-bounds observations collected when
	// Options.RecordCommBounds is set.
	CommBounds []CommBoundsObs
}

// PrintObs is a dataflow fact observed at a print statement: the printing
// process range and the printed value when the analysis pins it.
type PrintObs struct {
	Node  int    // CFG node of the print
	Range string // printing process set
	Val   int64  // known constant value
	Known bool   // false when the value is not a compile-time constant
}

// PCFGDot renders the explored pCFG (configurations and transitions) as a
// Graphviz digraph; matching transitions are highlighted.
func (r *Result) PCFGDot(name string) string {
	var b strings.Builder
	fmt.Fprintf(&b, "digraph %q {\n", name)
	b.WriteString("  node [shape=box, fontname=\"monospace\"];\n")
	ids := map[string]int{}
	nodeID := func(key string) int {
		if id, ok := ids[key]; ok {
			return id
		}
		id := len(ids)
		ids[key] = id
		label := key
		if label == "" {
			label = "start"
		}
		fmt.Fprintf(&b, "  c%d [label=%q];\n", id, label)
		return id
	}
	seen := map[string]bool{}
	for _, e := range r.Edges {
		k := e.From + ">" + e.To + ">" + e.Action
		if seen[k] {
			continue
		}
		seen[k] = true
		from := nodeID(e.From)
		to := nodeID(e.To)
		style := ""
		if strings.HasPrefix(e.Action, "match") || strings.HasPrefix(e.Action, "pending-match") ||
			strings.HasPrefix(e.Action, "self-match") || strings.HasPrefix(e.Action, "exchange") {
			style = ", style=bold, color=blue"
		}
		fmt.Fprintf(&b, "  c%d -> c%d [label=%q%s];\n", from, to, e.Action, style)
	}
	b.WriteString("}\n")
	return b.String()
}

// Clean reports whether the analysis completed without giving up anywhere.
func (r *Result) Clean() bool { return len(r.Tops) == 0 && len(r.Finals) > 0 }

// TopReasons lists the distinct give-up reasons.
func (r *Result) TopReasons() []string {
	seen := map[string]bool{}
	var out []string
	for _, t := range r.Tops {
		if !seen[t.TopWhy] {
			seen[t.TopWhy] = true
			out = append(out, t.TopWhy)
		}
	}
	sort.Strings(out)
	return out
}

type tableEntry struct {
	st *State
	// rev is the entry's revision-chain length: how many state-changing
	// revisions (combines whose result differed from the previous entry
	// state) have been committed. It is a property of the joined abstract
	// state itself, not of message traffic — re-deliveries and stale
	// re-steps whose information the entry already holds do not advance
	// it — so the join→widen ladder and the give-up threshold keyed off it
	// fire identically for any revision arrival order.
	rev        int
	widenParam string
	// seen records the identities of every state delivered to (or committed
	// on) this entry. The entry only ascends, so each of those states stays
	// below it forever: a re-delivery with a key in this set is dropped
	// before the combine runs. Re-deliveries are routine: a configuration
	// re-stepped after a revision sends again every successor the revision
	// did not change. Beyond saving the combine, the filter keeps the widen
	// rung reductive on duplicates (cg.Widen against an already-absorbed
	// state is not a representation no-op, so without the filter duplicate
	// traffic could advance the revision chain).
	seen map[string]struct{}
	// paramMints counts fresh widening parameters anchored at this key; a
	// key that keeps needing new parameters is not converging.
	paramMints int
	// stuckTops are the give-up (⊤) successors produced by this entry's most
	// recent step, replaced wholesale on every re-step. They are not merged
	// into the table during the run: a ⊤ once in the table never goes away,
	// but a later revision of this entry may step past the dead end or give
	// up for another reason (on the 508 benchmark programs a re-step
	// replaced a recorded give-up 45 times). So give-ups become real only
	// at convergence, when finish() commits the verdicts of the final entry
	// versions (commitStuckTops).
	stuckTops []succ
}

type engine struct {
	g    *cfg.Graph
	opts Options
	in   *interner
	// table is the configuration table, indexed by interned shape-key id.
	table  []*tableEntry
	work   *worklist
	inv    *Invariants
	res    *Result
	nParam int
	// steps, widenings, joins and giveUps are atomics because the progress
	// sampler and the stall watchdog read them from another goroutine.
	// joins counts join-rung combines.
	steps     atomic.Int64
	widenings atomic.Int64
	joins     atomic.Int64
	giveUps   atomic.Int64
	budgetHit bool
	started   time.Time
	dumpOnce  sync.Once
	// visited marks CFG nodes some non-empty process set was positioned at
	// in a reachable configuration (indexed by node ID; used by the
	// dead-code lint pass).
	visited []bool
	// descs holds each CFG node's action-label description, n<id>[<label>],
	// indexed by node ID and rendered on first use (nodeDesc).
	descs []string
	// obsSeen dedupes rank-bounds observations across revisits by the
	// binary key addBoundsObs builds in obsKey.
	obsSeen map[string]struct{}
	obsKey  []byte
	// idBuf is reviseEntry's scratch buffer for incoming identities, and
	// idCopy the one it encodes cold identities in before copying them.
	idBuf, idCopy []byte

	// Source-attribution profiler (nil when Options.Profiler is nil): a
	// private counter lane merged into Options.Profiler once, after the
	// run. profMemo/profProver expose
	// the matcher's cumulative memo-miss and prover-search counters so
	// per-callsite deltas can be attributed; both are optional client
	// capabilities discovered by interface assertion (keeping core free of
	// a client/hsm dependency, same pattern as sampleProgress).
	prof       *prof.Lane
	profMemo   *MatchMemo
	profProver func() (searches, ns int64)
}

func (e *engine) stats() *cg.Stats { return e.opts.CGOpts.Stats }

// nodeDesc renders node n for pCFG action labels, once per analysis. The
// rendering is kept on the engine, not on n: the CFG is only read here, so
// one graph may be analyzed from several goroutines at once.
func (e *engine) nodeDesc(n *cfg.Node) string {
	if e.descs[n.ID] == "" {
		e.descs[n.ID] = n.String()
	}
	return e.descs[n.ID]
}

// span opens a phase span on this engine's trace lane (tid 0). Free when
// Options.Tracer is nil.
func (e *engine) span(ph obs.Phase, key string) obs.Span {
	return e.opts.Tracer.Begin(e.opts.TracePID, 0, ph, key)
}

// mark records a zero-length event on this engine's trace lane. Free when
// Options.Tracer is nil.
func (e *engine) mark(ph obs.Phase, key, detail string) {
	e.opts.Tracer.Mark(e.opts.TracePID, 0, ph, key, detail)
}

// profNow reads the clock only when profiling is on; the zero time is the
// disabled sentinel consumed by profStep.
func (e *engine) profNow() time.Time {
	if e.prof == nil {
		return time.Time{}
	}
	return time.Now()
}

// profStep records one step event against node.
func (e *engine) profStep(node int, t0 time.Time, spawned int) {
	if e.prof == nil {
		return
	}
	e.prof.Step(node, time.Since(t0).Nanoseconds(), spawned)
}

// matchProbe captures the matcher-shared counters around one Matcher call
// so the deltas can be attributed to the calling site. A stack value: the
// disabled path allocates nothing and costs one pointer check per end.
type matchProbe struct {
	t0       time.Time
	misses   int
	searches int64
	proverNs int64
}

func (e *engine) profMatchStart() matchProbe {
	if e.prof == nil {
		return matchProbe{}
	}
	var pr matchProbe
	if e.profMemo != nil {
		pr.misses = e.profMemo.MissCount()
	}
	if e.profProver != nil {
		pr.searches, pr.proverNs = e.profProver()
	}
	pr.t0 = time.Now()
	return pr
}

func (e *engine) profMatchEnd(node int, pr matchProbe, matched bool) {
	if e.prof == nil {
		return
	}
	ns := time.Since(pr.t0).Nanoseconds()
	var misses, searches, proverNs int64
	if e.profMemo != nil {
		misses = int64(e.profMemo.MissCount() - pr.misses)
	}
	if e.profProver != nil {
		s, n := e.profProver()
		searches, proverNs = s-pr.searches, n-pr.proverNs
	}
	e.prof.Match(node, ns, misses, searches, proverNs, matched)
}

// blameNode picks a deterministic attribution node for combine events:
// the smallest non-exit node some process set is positioned at. Unlike
// firstActiveNode it must not reorder st.Sets — it runs between AlignTo
// and combine, where the positional alignment of entry.st and the
// incoming state is load-bearing.
func blameNode(st *State) int {
	best := -1
	for _, p := range st.Sets {
		if p.Node.Kind == cfg.Exit {
			continue
		}
		if best < 0 || p.Node.ID < best {
			best = p.Node.ID
		}
	}
	if best >= 0 {
		return best
	}
	if len(st.Sets) > 0 {
		return st.Sets[0].Node.ID
	}
	return 0
}

// Analyze runs the parallel dataflow analysis over the program's CFG: one
// worklist fixpoint on the calling goroutine.
func Analyze(g *cfg.Graph, opts Options) (*Result, error) {
	if opts.Matcher == nil {
		return nil, fmt.Errorf("core: Options.Matcher is required")
	}
	e := &engine{
		g:       g,
		opts:    opts,
		in:      newInterner(),
		inv:     NewInvariants(),
		res:     &Result{},
		visited: make([]bool, len(g.Nodes)),
		descs:   make([]string, len(g.Nodes)),
		started: time.Now(),
	}
	if opts.Profiler != nil {
		e.prof = opts.Profiler.NewLane(len(g.Nodes))
		if mp, ok := opts.Matcher.(interface{ Memo() *MatchMemo }); ok {
			e.profMemo = mp.Memo()
		}
		if pp, ok := opts.Matcher.(interface {
			ProverSearches() int64
			ProverSearchNs() int64
		}); ok {
			e.profProver = func() (int64, int64) { return pp.ProverSearches(), pp.ProverSearchNs() }
		}
	}
	// Pre-scan assume statements for global invariants (np = nrows*ncols
	// etc.) so the HSM matcher has them from the start.
	for _, n := range g.Nodes {
		if n.Kind == cfg.Assume {
			e.inv.Collect(n.Cond)
		}
	}
	init := NewState(g.Entry, opts.CGOpts)
	init.SetAssignedVars(assignedVars(g))
	init.memo = procset.NewMemo()
	InjectAffineConsequences(init.G, e.inv)
	e.normalize(init)
	e.logStart()
	wd := e.armWatchdog()
	e.run(init)
	e.settleWatchdog(wd)
	if e.budgetHit {
		if lg := e.opts.Log; lg != nil {
			lg.Error("analysis aborted: step budget exhausted",
				"job", e.opts.TracePID, "name", e.jobLabel(), "max_steps", opts.maxSteps())
		}
		e.dumpFlight("step-budget")
	}
	e.withProfileLabels("finish", e.finish)
	e.finishProgress()
	opts.Profiler.Commit(g, e.prof)
	e.logDone()
	return e.res, nil
}

// finish derives the result from the converged table in a deterministic
// post-pass. Terminal configurations are classified by inspection (an
// entry widened after first being visited keeps its shape, so all-at-exit
// and Top are stable properties of the final entry), helper parameters are
// resolved, and every output slice is sorted by content.
func (e *engine) finish() {
	sp := e.span(obs.PhaseFinish, "")
	defer sp.End()
	gsp := e.span(obs.PhaseGiveupCommit, "")
	e.commitStuckTops()
	gsp.End()
	configs := 0
	for _, entry := range e.table {
		if entry == nil {
			continue
		}
		configs++
		if entry.st.Top {
			e.res.Tops = append(e.res.Tops, entry.st)
		} else if e.allAtExit(entry.st) {
			e.res.Finals = append(e.res.Finals, entry.st)
		}
	}
	if e.budgetHit {
		e.res.Tops = append(e.res.Tops, &State{Top: true, TopWhy: "step budget exhausted"})
	}
	// Certify each final before publishing it: every match witness class
	// must be coherent (all atoms provably equal under the final G). A
	// stale witness — enriched under a constraint that a later join/widen
	// weakened — can survive to the terminal state without being provably
	// contradictory, e.g. {np - 2, 2} under np >= 4, which is wrong for
	// np >= 5. Downstream consumers pick atoms from the class arbitrarily,
	// so an incoherent final silently misreports the topology; demote it
	// to ⊤ instead (a sound over-approximation, reported as imprecision).
	finals := e.res.Finals[:0]
	for _, fin := range e.res.Finals {
		fin.ResolveHelpers()
		if why, node := incoherentMatch(fin); why != "" {
			fin.Top = true
			fin.TopWhy = "stale match witness survived widening: " + why
			e.res.Tops = append(e.res.Tops, fin)
			e.prof.TopDemotion(node)
			continue
		}
		finals = append(finals, fin)
	}
	e.res.Finals = finals
	sort.Slice(e.res.Finals, func(i, j int) bool { return e.res.Finals[i].FullKey() < e.res.Finals[j].FullKey() })
	sortTops(e.res.Tops)
	e.res.Configs = configs
	e.res.Steps = int(e.steps.Load())
	e.res.Widenings = int(e.widenings.Load())
	e.res.Visited = e.visited
	sort.Slice(e.res.CommBounds, func(i, j int) bool {
		a, b := e.res.CommBounds[i], e.res.CommBounds[j]
		if a.Node != b.Node {
			return a.Node < b.Node
		}
		if a.Dir != b.Dir {
			return a.Dir < b.Dir
		}
		if a.Status != b.Status {
			return a.Status < b.Status
		}
		if a.Range != b.Range {
			return a.Range < b.Range
		}
		return a.Detail < b.Detail
	})
	// Edges and prints come out in discovery order; sort them by content.
	sort.Slice(e.res.Edges, func(i, j int) bool {
		a, b := e.res.Edges[i], e.res.Edges[j]
		if a.From != b.From {
			return a.From < b.From
		}
		if a.To != b.To {
			return a.To < b.To
		}
		return a.Action < b.Action
	})
	sort.Slice(e.res.Prints, func(i, j int) bool {
		a, b := e.res.Prints[i], e.res.Prints[j]
		if a.Node != b.Node {
			return a.Node < b.Node
		}
		if a.Range != b.Range {
			return a.Range < b.Range
		}
		return a.Val < b.Val
	})
	e.collectMatches()
	// The memo belongs to this analysis; a Result may be read by several
	// goroutines, so its states go out without it.
	for _, st := range e.res.Finals {
		st.memo = nil
	}
	for _, st := range e.res.Tops {
		st.memo = nil
	}
}

// sortTops orders ⊤ states by reason, then source key, then blamed node.
// Lint's top-blame pass keeps the first ⊤ state per reason, so the
// tie-breaks make that choice depend on content, not on table order.
func sortTops(tops []*State) {
	sort.Slice(tops, func(i, j int) bool {
		a, b := tops[i], tops[j]
		if a.TopWhy != b.TopWhy {
			return a.TopWhy < b.TopWhy
		}
		if a.TopKey != b.TopKey {
			return a.TopKey < b.TopKey
		}
		return a.TopNode < b.TopNode
	})
}

// commitStuckTops merges the deferred give-up successors of still-stuck
// entries into the table. During the run a ⊤ successor is only recorded on
// its source entry (tableEntry.stuckTops), so it becomes real only if the
// source's final converged version still produces it. Sources are ordered
// by shape key, which decides the surviving ⊤ state (all ⊤ states share
// the one "TOP" table key).
func (e *engine) commitStuckTops() {
	type stuckSrc struct {
		fromKey string
		succs   []succ
	}
	var srcs []stuckSrc
	for id, entry := range e.table {
		if entry != nil && len(entry.stuckTops) > 0 {
			srcs = append(srcs, stuckSrc{e.in.keyOf(uint64(id)), entry.stuckTops})
		}
	}
	sort.Slice(srcs, func(i, j int) bool { return srcs[i].fromKey < srcs[j].fromKey })
	for _, s := range srcs {
		for _, sa := range s.succs {
			if sa.st.TopKey == "" {
				sa.st.TopKey = s.fromKey
			}
			key := sa.st.ShapeKey()
			e.res.Edges = append(e.res.Edges, PCFGEdge{From: s.fromKey, To: key, Action: sa.action})
			id := e.in.intern(key)
			if e.entry(id) == nil {
				e.setEntry(id, &tableEntry{st: sa.st})
				e.giveUps.Add(1)
				e.prof.GiveUp(sa.st.TopNode)
				e.mark(obs.PhaseGiveup, sa.st.TopKey, sa.st.TopWhy)
			}
		}
	}
}

// incoherentMatch returns a description of the first match record of st
// whose witness classes are not certified coherent under st's final
// constraint graph (plus the send node to blame for profiling), or "" if
// every record checks out. Emptiness is not an excuse: proving a range
// empty through an incoherent class uses the same unreliable atom-picking
// the check exists to reject.
func incoherentMatch(st *State) (string, int) {
	ctx := st.Ctx()
	for _, m := range st.Matches {
		if !ctx.CoherentSet(m.Sender) || !ctx.CoherentSet(m.Receiver) {
			return fmt.Sprintf("match n%d->n%d %s -> %s", m.SendNode, m.RecvNode,
				m.Sender.StringAll(), m.Receiver.StringAll()), m.SendNode
		}
	}
	return "", 0
}

// collectMatches unions match records over terminal configurations (finals
// first; top configurations contribute when no final exists).
func (e *engine) collectMatches() {
	sources := e.res.Finals
	if len(sources) == 0 {
		for _, t := range e.res.Tops {
			sources = append(sources, t)
		}
	}
	seen := map[string]bool{}
	for _, st := range sources {
		ctx := st.Ctx()
		for _, m := range st.Matches {
			// Skip artifacts whose ranges are provably empty in this
			// terminal state (e.g. the last pipeline stage under the final
			// value of a widening parameter).
			if m.Sender.Empty(ctx) == tri.True || m.Receiver.Empty(ctx) == tri.True {
				continue
			}
			// Finals have already been enriched and helper-resolved.
			cm := *m
			k := cm.String()
			if !seen[k] {
				seen[k] = true
				e.res.Matches = append(e.res.Matches, &cm)
			}
		}
	}
	sort.Slice(e.res.Matches, func(i, j int) bool {
		a, b := e.res.Matches[i], e.res.Matches[j]
		if a.SendNode != b.SendNode {
			return a.SendNode < b.SendNode
		}
		if a.RecvNode != b.RecvNode {
			return a.RecvNode < b.RecvNode
		}
		return a.String() < b.String()
	})
}

// assignedVars collects program variables written anywhere in the CFG.
func assignedVars(g *cfg.Graph) map[string]bool {
	out := map[string]bool{}
	for _, n := range g.Nodes {
		switch n.Kind {
		case cfg.Assign:
			out[n.AssignName] = true
		case cfg.Recv, cfg.SendRecv:
			out[n.RecvName] = true
		}
	}
	return out
}

// firstActiveNode picks a representative non-exit node of a configuration
// for ⊤ blame (canonical order keeps the choice deterministic).
func firstActiveNode(st *State) int {
	st.sortCanonical()
	for _, p := range st.Sets {
		if p.Node.Kind != cfg.Exit {
			return p.Node.ID
		}
	}
	if len(st.Sets) > 0 {
		return st.Sets[0].Node.ID
	}
	return 0
}

func (e *engine) allAtExit(st *State) bool {
	for _, p := range st.Sets {
		if p.Node.Kind != cfg.Exit {
			return false
		}
	}
	return len(st.Sets) > 0
}

type succ struct {
	st     *State
	action string
}

// reviseEntry merges incoming state st into an existing table entry,
// advancing the join→widen ladder, and reports whether the entry changed
// and must be rescheduled. The ladder is driven by entry.rev, which counts
// state-changing revisions only: a revision whose combine result equals
// the current entry state (a re-delivery, or a re-step of a stale
// entry version whose successors the entry already absorbed) leaves the
// ladder untouched. That makes join→widen escalation and the give-up
// threshold a pure function of the sequence of distinct entry states,
// identical for any revision arrival order. Clones of the previous entry
// state, such as the successors of its step, are protected by
// copy-on-write (the revision never writes storage shared with a clone in
// place).
func (e *engine) reviseEntry(entry *tableEntry, st *State, key string) bool {
	if entry.st.Top {
		// ⊤ absorbs every revision; nothing to count, nothing to reschedule.
		st.Release()
		return false
	}
	if st.Top {
		old := entry.st
		entry.st = st
		old.Release()
		return true
	}
	// st is consumed here, so its identity goes into the engine's scratch
	// buffer instead of a buffer of its own. before aliases entry.st's
	// buffer and stays intact through AlignTo and combine: nothing
	// recomputes entry.st's identity until the next revision, and widened
	// is a fresh state.
	ksp := e.span(obs.PhaseCanon, key)
	fk, fresh := st.identityTo(e.idBuf)
	if fresh {
		e.idBuf = fk
	}
	var before []byte
	before, e.idCopy = entry.st.identityVia(e.idCopy)
	if _, dup := entry.seen[string(fk)]; dup || bytes.Equal(fk, before) {
		// fk == before matters when the entry was just created and seen is
		// still empty: combining a state with itself is not a representation
		// no-op (multi-atom bounds normalize under G), so without the check
		// a self-delivery would advance the revision chain.
		ksp.End()
		st.Release()
		return false
	}
	if entry.seen == nil {
		entry.seen = make(map[string]struct{}, 8)
	}
	entry.seen[string(fk)] = struct{}{}
	if _, ok := entry.seen[string(before)]; !ok {
		entry.seen[string(before)] = struct{}{}
	}
	st.AlignTo(entry.st)
	ksp.End()
	combinePhase := obs.PhaseJoin
	if entry.rev >= joinRung {
		combinePhase = obs.PhaseWiden
	} else {
		e.joins.Add(1)
	}
	// blameNode (not firstActiveNode) on purpose: the attribution must not
	// reorder entry.st.Sets between AlignTo and combine.
	e.prof.Combine(blameNode(entry.st), combinePhase == obs.PhaseWiden)
	csp := e.span(combinePhase, key)
	widened := e.combine(entry, st)
	csp.End()
	if widened.Top {
		if widened.TopKey == "" {
			widened.TopKey = key
		}
		old := entry.st
		entry.st = widened
		old.Release()
		st.Release()
		return true
	}
	ksp = e.span(obs.PhaseCanon, key)
	remap := widened.CanonicalizeParams()
	var after []byte
	after, e.idCopy = widened.identityVia(e.idCopy)
	ksp.End()
	if bytes.Equal(after, before) {
		// Absorbed without change: the ladder does not advance, and the
		// canonicalization remap is dropped along with the discarded trial
		// state. Applying the remap here would orphan the widening
		// parameter — the remap describes renames inside widened, while
		// entry.st keeps its current names.
		widened.Release()
		st.Release()
		return false
	}
	// A state-changing revision: the remap must follow the committed state,
	// and the revision chain grows. A chain that outruns MaxVisits is not
	// converging — give up deterministically, on the chain length alone.
	if to, ok := remap[entry.widenParam]; ok {
		entry.widenParam = to
	}
	entry.rev++
	if entry.rev > e.opts.maxVisits() {
		e.giveUps.Add(1)
		e.mark(obs.PhaseGiveup, key, "widening did not converge")
		old := entry.st
		entry.st = &State{Top: true, TopWhy: "widening did not converge at " + key,
			TopNode: firstActiveNode(old), TopKey: key}
		e.prof.GiveUp(entry.st.TopNode)
		old.Release()
		widened.Release()
		st.Release()
		return true
	}
	e.widenings.Add(1)
	entry.seen[string(after)] = struct{}{}
	old := entry.st
	entry.st = widened
	old.Release()
	st.Release()
	if e.opts.Log != nil {
		e.logState("widened configuration", key, widened)
	}
	return true
}

// ---------------------------------------------------------------------------
// Combining states at a shared pCFG node (join / widen, Section VII-D)

type nodePair struct{ s, r int }

// combine merges incoming state nw into the table entry's state.
func (e *engine) combine(entry *tableEntry, nw *State) *State {
	return e.combineRetry(entry, nw, 4)
}

func (e *engine) combineRetry(entry *tableEntry, nw *State, retries int) *State {
	old := entry.st
	old.EnrichEverywhere()
	nw.EnrichEverywhere()

	// First attempt plain bound-atom intersection on all ranges.
	widenedSets := make([]procset.Set, len(old.Sets))
	approx := make([]bool, len(old.Sets))
	var failing []int
	for i := range old.Sets {
		if old.Sets[i].Approx || nw.Sets[i].Approx {
			// Approximate (terminated) sets widen to the full range.
			widenedSets[i] = AllProcs()
			approx[i] = true
			continue
		}
		w, ok := old.Sets[i].Range.Widen(nw.Sets[i].Range)
		if ok {
			widenedSets[i] = w
		} else if old.Sets[i].Node.Kind == cfg.Exit {
			widenedSets[i] = AllProcs()
			approx[i] = true
		} else {
			failing = append(failing, i)
		}
	}
	// Match widening: align by node pair. A state can carry SEVERAL records
	// for one node pair — AddMatch appends a fresh record whenever the new
	// ranges don't union cleanly with the existing ones — so the alignment
	// groups records into per-pair lists. (A map keyed by the bare pair
	// silently dropped all but one record here, erasing real communication
	// from the joined state: a soundness hole the differential fuzzer
	// caught on a bounded gather followed by a compute loop.) Each side's
	// list is first re-normalized under the current context — unions that
	// failed at AddMatch time often succeed once the graphs have joined —
	// then joined element-wise; any residual shape mismatch is a widening
	// failure like a non-intersecting bound, never a drop.
	groups := matchGroups(old, nw)
	var matchFail []nodePair
	var mergedMatches []*Match
	if n := len(old.Matches) + len(nw.Matches); n > 0 {
		// Normalizing only folds records, so the merge never outgrows n.
		mergedMatches = make([]*Match, 0, n)
	}
	for _, gr := range groups {
		om, nm := gr.old, gr.nw
		switch {
		case len(om) == 0 || len(nm) == 0:
			// Present on one side only: keep those records verbatim (the
			// join over-approximates both inputs).
			if len(om) == 0 {
				om = nm
			}
			for _, m := range om {
				cm := *m
				mergedMatches = append(mergedMatches, &cm)
			}
		case len(om) == len(nm):
			sortMatches(om)
			sortMatches(nm)
			mark := len(mergedMatches)
			for i := range om {
				ws, ok1 := om[i].Sender.Widen(nm[i].Sender)
				wr, ok2 := om[i].Receiver.Widen(nm[i].Receiver)
				if !ok1 || !ok2 {
					mergedMatches = mergedMatches[:mark]
					matchFail = append(matchFail, gr.k)
					break
				}
				mergedMatches = append(mergedMatches, &Match{SendNode: gr.k.s, RecvNode: gr.k.r, Sender: ws, Receiver: wr})
			}
		default:
			matchFail = append(matchFail, gr.k)
		}
	}

	// Pending-send widening (same shape key implies aligned records).
	old.sortPending()
	nw.sortPending()
	pendFail := len(old.Pending) != len(nw.Pending)
	widenedPend := make([]*PendingSend, 0, len(old.Pending))
	if !pendFail {
		for i := range old.Pending {
			po, pn := old.Pending[i], nw.Pending[i]
			if po.Node != pn.Node || po.Shape != pn.Shape || !sym.Equal(po.Offset, pn.Offset) {
				pendFail = true
				break
			}
			ws, okS := po.Senders.Widen(pn.Senders)
			wd, okD := procset.Set{}, true
			if po.Shape == PendFan {
				wd, okD = po.Dests.Widen(pn.Dests)
			}
			if !okS || !okD {
				pendFail = true
				break
			}
			cp := *po
			cp.Senders = ws
			if po.Shape == PendFan {
				cp.Dests = wd
			}
			cp.ValOK = po.ValOK && pn.ValOK && sym.Equal(po.Val, pn.Val)
			widenedPend = append(widenedPend, &cp)
		}
	}

	if len(failing) > 0 || len(matchFail) > 0 || pendFail {
		nw2, ok := e.parametricWiden(entry, old, nw)
		if retries <= 0 || !ok {
			var detail []string
			for _, i := range failing {
				detail = append(detail, fmt.Sprintf("set %s vs %s", old.Sets[i], nw.Sets[i]))
			}
			if pendFail {
				detail = append(detail, fmt.Sprintf("pending %v vs %v", old.Pending, nw.Pending))
			}
			for _, k := range matchFail {
				var oldR, newR string
				for _, om := range old.Matches {
					if om.SendNode == k.s && om.RecvNode == k.r {
						oldR = om.String()
					}
				}
				for _, m := range nw.Matches {
					if m.SendNode == k.s && m.RecvNode == k.r {
						newR = m.String()
					}
				}
				detail = append(detail, fmt.Sprintf("match %s vs %s", oldR, newR))
			}
			blame := 0
			if len(failing) > 0 {
				blame = old.Sets[failing[0]].Node.ID
			}
			if e.prof != nil {
				// Profiler-only blame: when only matches failed, fall back
				// to the failing pair's send node (TopNode itself stays on
				// the established failing-set rule).
				pnode := blame
				if len(failing) == 0 && len(matchFail) > 0 {
					pnode = matchFail[0].s
				}
				var fa, fb string
				if pa, pb, okb := firstFailingBound(old, nw); okb {
					fa, fb = pa.String(), pb.String()
				} else if len(detail) > 0 {
					fb = detail[0]
				}
				e.prof.WidenFail(pnode, fa, fb)
			}
			return &State{Top: true, TopWhy: "widening failed: no common bound expressions: " + strings.Join(detail, "; "),
				TopNode: blame}
		}
		// Retry after parametric generalization. nw2 is an intermediate
		// trial state; the recursion only reads it.
		res := e.combineRetry(entry, nw2, retries-1)
		nw2.Release()
		return res
	}

	out := old.Clone()
	for i := range out.Sets {
		out.Sets[i].Range = widenedSets[i]
		out.Sets[i].Blocked = old.Sets[i].Blocked
		out.Sets[i].Approx = approx[i]
	}
	// Fresh slices with fresh elements: no longer shared with old.
	out.Pending = widenedPend
	out.sharedPending = false
	out.Matches = mergedMatches
	out.sharedMatches = false
	sortMatches(out.Matches)
	cloned := out.G
	if entry.rev < joinRung {
		out.G = cg.Join(old.G, nw.G)
	} else {
		// Textbook widening form: old ∇ (old ⊔ nw), never old ∇ nw. Widening
		// directly against the incoming graph drops every bound of old the
		// newcomer happens not to entail — so a stale or narrow delivery
		// (routine under parallel re-step churn) could erase constraints a
		// join would have kept, making the widened state depend on which
		// revision reached the widen rung first. Widening against the join
		// only discards bounds the newcomer genuinely outgrew.
		joined := cg.Join(old.G, nw.G)
		out.G = cg.Widen(old.G, joined)
		joined.Release()
	}
	// The clone's graph was only a placeholder; return its reference to the
	// arena now that the join/widen result replaced it.
	cloned.Release()
	if nw.nextID > out.nextID {
		out.nextID = nw.nextID
	}
	return out
}

// pairMatches holds one node pair's match records on each side of a
// combine.
type pairMatches struct {
	k       nodePair
	old, nw []*Match
}

// matchGroups groups the match records of old and nw by node pair: the
// pairs of nw first, then the pairs only old has, each in order of first
// appearance. Each side's list is re-normalized under its own context as
// it grows; a one-record list aliases the state's slice, which nothing
// writes through (sorting one record is a no-op, and a second record
// appends past its capacity).
func matchGroups(old, nw *State) []pairMatches {
	groups := make([]pairMatches, 0, len(old.Matches)+len(nw.Matches))
	group := func(m *Match) *pairMatches {
		k := nodePair{m.SendNode, m.RecvNode}
		for i := range groups {
			if groups[i].k == k {
				return &groups[i]
			}
		}
		groups = append(groups, pairMatches{k: k})
		return &groups[len(groups)-1]
	}
	for i, m := range nw.Matches {
		g := group(m)
		g.nw = appendRecord(nw.Ctx(), g.nw, nw.Matches, i)
	}
	for i, m := range old.Matches {
		g := group(m)
		g.old = appendRecord(old.Ctx(), g.old, old.Matches, i)
	}
	return groups
}

// appendRecord adds record ms[i] to a group's list and re-normalizes it.
func appendRecord(ctx procset.Ctx, list, ms []*Match, i int) []*Match {
	if len(list) == 0 {
		return ms[i : i+1 : i+1]
	}
	return normalizeMatches(ctx, append(list, ms[i]))
}

// sortMatches orders match records deterministically: by node pair, then by
// rendered ranges (several records can legally share a pair). Records with
// strictly increasing node pairs are already in order and render nothing.
func sortMatches(ms []*Match) {
	inOrder := true
	for i := 1; i < len(ms); i++ {
		a, b := ms[i-1], ms[i]
		if a.SendNode > b.SendNode || a.SendNode == b.SendNode && a.RecvNode >= b.RecvNode {
			inOrder = false
			break
		}
	}
	if inOrder {
		return
	}
	sort.Sort(&matchOrder{ms: ms, keys: make([]matchKey, len(ms))})
}

// matchOrder is sortMatches's sort.Interface. A record's ranges render at
// most once, when a tie on its node pair first needs them, and the keys
// move with their records.
type matchOrder struct {
	ms   []*Match
	keys []matchKey
}

// matchKey is a record's rendered sender and receiver ranges; "" until
// rendered, since a rendered range is never empty.
type matchKey struct{ sender, receiver string }

func (o *matchOrder) Len() int { return len(o.ms) }

func (o *matchOrder) Swap(i, j int) {
	o.ms[i], o.ms[j] = o.ms[j], o.ms[i]
	o.keys[i], o.keys[j] = o.keys[j], o.keys[i]
}

func (o *matchOrder) Less(i, j int) bool {
	a, b := o.ms[i], o.ms[j]
	if a.SendNode != b.SendNode {
		return a.SendNode < b.SendNode
	}
	if a.RecvNode != b.RecvNode {
		return a.RecvNode < b.RecvNode
	}
	ka, kb := o.key(i), o.key(j)
	if ka.sender != kb.sender {
		return ka.sender < kb.sender
	}
	return ka.receiver < kb.receiver
}

func (o *matchOrder) key(i int) matchKey {
	if o.keys[i].sender == "" {
		o.keys[i] = matchKey{o.ms[i].Sender.String(), o.ms[i].Receiver.String()}
	}
	return o.keys[i]
}

// normalizeMatches collapses same-pair records that union cleanly under ctx.
// AddMatch appends a separate record when the union is not provable at record
// time; once the constraint graphs have joined, those unions often become
// provable, and collapsing them first keeps the element-wise widen in
// combineRetry aligned. Records are copied before mutation; survivors keep
// input order.
func normalizeMatches(ctx procset.Ctx, ms []*Match) []*Match {
	if len(ms) < 2 {
		return ms
	}
	out := make([]*Match, len(ms))
	for i, m := range ms {
		cm := *m
		out[i] = &cm
	}
	for changed := true; changed; {
		changed = false
		for i := 0; i < len(out) && !changed; i++ {
			for j := i + 1; j < len(out) && !changed; j++ {
				a, b := out[i], out[j]
				// Same guard as AddMatch: a contradictory witness class
				// proves anything, so folding through one may erase a
				// genuinely distinct record.
				if ctx.ContradictorySet(a.Sender) || ctx.ContradictorySet(a.Receiver) ||
					ctx.ContradictorySet(b.Sender) || ctx.ContradictorySet(b.Receiver) {
					continue
				}
				if a.Sender.SameRange(ctx, b.Sender) == tri.True && a.Receiver.SameRange(ctx, b.Receiver) == tri.True {
					out = append(out[:j], out[j+1:]...)
					changed = true
					continue
				}
				if su, ok1 := a.Sender.UnionAdjacent(ctx, b.Sender); ok1 {
					if ru, ok2 := a.Receiver.UnionAdjacent(ctx, b.Receiver); ok2 {
						a.Sender, a.Receiver = su, ru
						out = append(out[:j], out[j+1:]...)
						changed = true
						continue
					}
				}
				if su, ok1 := b.Sender.UnionAdjacent(ctx, a.Sender); ok1 {
					if ru, ok2 := b.Receiver.UnionAdjacent(ctx, a.Receiver); ok2 {
						a.Sender, a.Receiver = su, ru
						out = append(out[:j], out[j+1:]...)
						changed = true
					}
				}
			}
		}
	}
	return out
}

// parametricWiden introduces (or advances) the widening parameter for this
// pCFG node so that bounds advancing by a uniform stride per iteration gain
// a common symbolic atom (the generalization that yields Fig 8's set-level
// matches without a program loop variable). It may mutate old and returns a
// replacement for nw on success.
func (e *engine) parametricWiden(entry *tableEntry, old, nw *State) (*State, bool) {
	// First try the shift interpretation on the key's established
	// parameter: the new state's k corresponds to old k ± 1 (one pipeline
	// step later/earlier).
	if k := entry.widenParam; k != "" && nw.G.HasVar(k) && old.G.HasVar(k) {
		for _, delta := range []int64{1, -1} {
			trial := nw.Clone()
			trial.G.Shift(k, delta)
			trial.SubstEverywhere(k, sym.VarPlus(k, -delta))
			trial.EnrichEverywhere()
			if !e.sameFailure(old, trial) {
				return trial, true
			}
			trial.Release()
		}
	}
	// An incoming state from a lineage that never saw the parameter (e.g.
	// the original concrete loop entry): anchor the EXISTING parameter in
	// it rather than minting an alias, so the widened key stabilizes.
	if k := entry.widenParam; k != "" && old.G.HasVar(k) && !nw.G.HasVar(k) {
		oldPrim, newPrim, ok := firstFailingBound(old, nw)
		if ok {
			vOld, cOld, ok1 := splitVarPlusConst(oldPrim)
			vNew, cNew, ok2 := splitVarPlusConst(newPrim)
			if ok1 && ok2 {
				trial := nw.Clone()
				if vOld == k {
					// old bound = k + cOld, so seed k = newPrim - cOld.
					trial.G.AddEq(k, vNew, cNew-cOld)
				} else {
					trial.G.AddEq(k, vNew, cNew)
				}
				trial.EnrichEverywhere()
				old.EnrichEverywhere()
				if !e.sameFailure(old, trial) {
					return trial, true
				}
				trial.Release()
			}
		}
	}
	// Anchor fresh parameters to failing bounds: for each failing pair,
	// mint k with k = bound_old in old and k = bound_new in new; enrichment
	// then inserts the common atom (k + c) into every failing bound related
	// to the anchor through the constraint graph — constant bounds via the
	// zero variable, var-relative bounds via their shared base variable.
	// Several independent bound families may each need their own anchor.
	trial := nw.Clone()
	var prevOld, prevNew sym.Expr
	for tries := 0; tries < 6; tries++ {
		oldPrim, newPrim, ok := firstFailingBound(old, trial)
		if !ok {
			trial.Release()
			return nil, false
		}
		if tries > 0 && sym.Equal(oldPrim, prevOld) && sym.Equal(newPrim, prevNew) {
			// The anchor did not help this bound; give up.
			trial.Release()
			return nil, false
		}
		prevOld, prevNew = oldPrim, newPrim
		vOld, cOld, ok1 := splitVarPlusConst(oldPrim)
		vNew, cNew, ok2 := splitVarPlusConst(newPrim)
		if !ok1 || !ok2 {
			trial.Release()
			return nil, false
		}
		if entry.paramMints >= 8 {
			// Parameter anchoring is not converging for this key.
			trial.Release()
			return nil, false
		}
		entry.paramMints++
		k := fmt.Sprintf("wp%d", e.nParam)
		e.nParam++
		entry.widenParam = k
		old.G.AddEq(k, vOld, cOld)
		trial.G.AddEq(k, vNew, cNew)
		old.EnrichEverywhere()
		trial.EnrichEverywhere()
		if !e.sameFailure(old, trial) {
			return trial, true
		}
	}
	trial.Release()
	return nil, false
}

// firstFailingBound locates the primary atoms of the first bound pair whose
// atom intersection is empty.
func firstFailingBound(old, nw *State) (a, b sym.Expr, ok bool) {
	for i := range old.Sets {
		or, nr := old.Sets[i].Range, nw.Sets[i].Range
		for _, pair := range [][2]procset.Bound{{or.LB, nr.LB}, {or.UB, nr.UB}} {
			if !boundsIntersect(pair[0], pair[1]) {
				return pair[0].Primary().Expr(), pair[1].Primary().Expr(), true
			}
		}
	}
	for _, m := range nw.Matches {
		for _, om := range old.Matches {
			if om.SendNode != m.SendNode || om.RecvNode != m.RecvNode {
				continue
			}
			for _, pair := range [][2]procset.Bound{
				{om.Sender.LB, m.Sender.LB}, {om.Sender.UB, m.Sender.UB},
				{om.Receiver.LB, m.Receiver.LB}, {om.Receiver.UB, m.Receiver.UB},
			} {
				if !boundsIntersect(pair[0], pair[1]) {
					return pair[0].Primary().Expr(), pair[1].Primary().Expr(), true
				}
			}
		}
	}
	if len(old.Pending) == len(nw.Pending) {
		for i := range old.Pending {
			po, pn := old.Pending[i], nw.Pending[i]
			pairs := [][2]procset.Bound{
				{po.Senders.LB, pn.Senders.LB}, {po.Senders.UB, pn.Senders.UB},
			}
			if po.Shape == PendFan {
				pairs = append(pairs,
					[2]procset.Bound{po.Dests.LB, pn.Dests.LB},
					[2]procset.Bound{po.Dests.UB, pn.Dests.UB})
			}
			for _, pair := range pairs {
				if !boundsIntersect(pair[0], pair[1]) {
					return pair[0].Primary().Expr(), pair[1].Primary().Expr(), true
				}
			}
		}
	}
	return sym.Zero, sym.Zero, false
}

// sameFailure reports whether range widening would still fail.
func (e *engine) sameFailure(old, nw *State) bool {
	for i := range old.Sets {
		if _, ok := old.Sets[i].Range.Widen(nw.Sets[i].Range); !ok {
			return true
		}
	}
	if len(old.Pending) != len(nw.Pending) {
		return true
	}
	for i := range old.Pending {
		po, pn := old.Pending[i], nw.Pending[i]
		if _, ok := po.Senders.Widen(pn.Senders); !ok {
			return true
		}
		if po.Shape == PendFan {
			if _, ok := po.Dests.Widen(pn.Dests); !ok {
				return true
			}
		}
	}
	for _, m := range nw.Matches {
		for _, om := range old.Matches {
			if om.SendNode == m.SendNode && om.RecvNode == m.RecvNode {
				if _, ok := om.Sender.Widen(m.Sender); !ok {
					return true
				}
				if _, ok := om.Receiver.Widen(m.Receiver); !ok {
					return true
				}
			}
		}
	}
	return false
}

func boundsIntersect(a, b procset.Bound) bool {
	return a.Intersect(b).IsValid()
}

// ---------------------------------------------------------------------------
// Propagate: one analysis step (Fig 4's propagate)

// step computes the successor configurations of st. key identifies the
// configuration for phase tracing only. st is the table entry itself: step
// only reads it, apart from sorting its sets, which leaves an entry that
// is already in canonical order unchanged, and every successor is a
// clone.
func (e *engine) step(st *State, key string) []succ {
	// 1. An unblocked set at a sequential node advances (transfer function).
	st.sortCanonical()
	for _, ps := range st.Sets {
		if ps.Blocked || ps.Node.Kind == cfg.Exit {
			continue
		}
		if ps.Node.IsComm() {
			if e.opts.NonBlockingSends && ps.Node.Kind == cfg.Send {
				sp := e.span(obs.PhaseTransfer, key)
				t0 := e.profNow()
				out := e.issueSendStep(st, ps.ID)
				e.profStep(ps.Node.ID, t0, len(out))
				sp.End()
				return out
			}
			continue
		}
		sp := e.span(obs.PhaseTransfer, key)
		t0 := e.profNow()
		out := e.advanceSet(st, ps.ID)
		e.profStep(ps.Node.ID, t0, len(out))
		sp.End()
		return out
	}
	t0 := e.profNow()
	out := e.stepBlocked(st, len(st.Sets)+1, key)
	if e.prof != nil {
		e.profStep(firstBlockedNode(st), t0, len(out))
	}
	return out
}

// firstBlockedNode returns the first blocked set's node in canonical
// order (st is already sorted when step reaches the blocked path), the
// first set's node otherwise — the attribution anchor for blocked steps.
func firstBlockedNode(st *State) int {
	for _, p := range st.Sets {
		if p.Blocked {
			return p.Node.ID
		}
	}
	if len(st.Sets) > 0 {
		return st.Sets[0].Node.ID
	}
	return 0
}

// stepBlocked handles a configuration whose sets are all blocked or at
// exit: matching, self-matching, emptiness case-splits, then ⊤. depth
// bounds nested emptiness splits.
func (e *engine) stepBlocked(st *State, depth int, key string) []succ {
	msp := e.span(obs.PhaseMatch, key)
	// 2a. Satisfy receives from pending (non-blocking) sends.
	if s, ok := e.tryPendingMatches(st); ok {
		msp.End()
		return s
	}
	// 2b. Match blocked sends to receives.
	if s, ok := e.tryMatches(st); ok {
		msp.End()
		return s
	}
	// 3. Self-matches (permutation exchanges).
	if s, ok := e.trySelfMatches(st); ok {
		msp.End()
		return s
	}
	msp.End()
	// 4. Case-split on possibly-empty blocked sets.
	ssp := e.span(obs.PhaseSplit, key)
	if s, ok := e.tryEmptinessSplit(st, depth, key); ok {
		ssp.End()
		return s
	}
	ssp.End()
	// 5. Stuck: the framework gives up with ⊤.
	ns := st.Clone()
	var blocked []string
	var first *cfg.Node
	for _, p := range ns.Sets {
		if p.Blocked {
			if first == nil {
				first = p.Node
			}
			blocked = append(blocked, e.nodeDesc(p.Node)+p.Range.String())
		}
	}
	ns.MarkTopAt(first, "no send-receive match possible; blocked: "+strings.Join(blocked, ", "))
	return []succ{{ns, "give-up"}}
}

// advanceSet executes the node of set id, returning successor states.
func (e *engine) advanceSet(st *State, id int) []succ {
	ns := st.Clone()
	ps := ns.Set(id)
	node := ps.Node
	switch node.Kind {
	case cfg.Entry, cfg.Skip:
		advance(ps)
	case cfg.Assign:
		ns.ApplyAssign(ps, node.AssignName, node.AssignRhs)
		advance(ps)
	case cfg.Print:
		e.recordPrint(ns, ps, node)
		advance(ps)
	case cfg.Assume:
		ns.GlobalAssume(ps, node.Cond, e.inv)
		advance(ps)
	case cfg.Assert:
		// Assertions are checked by the verifier; the analysis may assume
		// them (they hold in non-aborting executions).
		ns.AssumeCond(ps, node.Cond, false)
		advance(ps)
	case cfg.Branch:
		return e.branchSet(ns, ps)
	default:
		ns.MarkTopAt(node, "unexpected node kind "+node.Kind.String())
	}
	e.normalize(ns)
	return []succ{{ns, e.nodeDesc(node)}}
}

// recordPrint captures the constant-propagation fact at a print site.
func (e *engine) recordPrint(ns *State, ps *ProcSet, node *cfg.Node) {
	obs := PrintObs{Node: node.ID, Range: ps.Range.String()}
	if expr, ok := ns.AffineExpr(ps, node.Arg); ok {
		if c, isConst := expr.IsConst(); isConst {
			obs.Val, obs.Known = c, true
		} else if v, c2, okd := expr.AsVarPlusConst(); okd && v != "" {
			if base, okc := ns.G.ConstVal(v); okc {
				obs.Val, obs.Known = base+c2, true
			}
		}
	}
	for _, p := range e.res.Prints {
		if p == obs {
			return
		}
	}
	e.res.Prints = append(e.res.Prints, obs)
}

// branchSet handles a conditional: id-dependent conditions split the set;
// uniform conditions either resolve or fork the configuration.
func (e *engine) branchSet(ns *State, ps *ProcSet) []succ {
	return e.branchSetDepth(ns, ps, 4)
}

func (e *engine) branchSetDepth(ns *State, ps *ProcSet, depth int) []succ {
	node := ps.Node
	tN, fN := node.SuccBranch()
	usesID := ast.UsesIdent(node.Cond, "id")
	singleton := ns.Ctx()
	isSingle := ps.Range.IsSingleton(singleton) == tri.True

	if usesID && !isSingle {
		if op, pivot, ok := ns.idComparison(ps, node.Cond); ok {
			yes, no, ok2 := SplitByIDCond(ns.Ctx(), op, ps.Range, pivot)
			if ok2 {
				return e.applyIDSplit(ns, ps, yes, no, tN, fN)
			}
			// Exact splitting needs the pivot's order against the range
			// bounds; fork the configuration on the first unresolved
			// comparison and retry each side with the extra fact.
			if depth > 0 {
				if out, ok3 := e.forkOnBoundCmp(ns, ps, pivot, depth); ok3 {
					return out
				}
			}
		}
		ns.MarkTopAt(node, fmt.Sprintf("unsupported id-dependent condition: %s on %s [G: %s]", node.Cond, ps.Range, ns.G))
		return []succ{{ns, "give-up"}}
	}

	switch ns.EvalCond(ps, node.Cond) {
	case tri.True:
		ps.Node = tN
		ps.Blocked = false
		ns.AssumeCond(ps, node.Cond, false)
		e.normalize(ns)
		return []succ{{ns, e.nodeDesc(node) + "=true"}}
	case tri.False:
		ps.Node = fN
		ps.Blocked = false
		ns.AssumeCond(ps, node.Cond, true)
		e.normalize(ns)
		return []succ{{ns, e.nodeDesc(node) + "=false"}}
	default:
		// Fork the configuration: both branches possible.
		alt := ns.Clone()
		ps.Node = tN
		ps.Blocked = false
		ns.AssumeCond(ps, node.Cond, false)
		e.normalize(ns)
		ap := alt.Set(ps.ID)
		ap.Node = fN
		ap.Blocked = false
		alt.AssumeCond(ap, node.Cond, true)
		e.normalize(alt)
		return []succ{{ns, e.nodeDesc(node) + "=true?"}, {alt, e.nodeDesc(node) + "=false?"}}
	}
}

// forkOnBoundCmp case-splits the configuration on an unresolved comparison
// between the branch pivot and one of the set's range bounds, then retries
// the branch on both sides.
func (e *engine) forkOnBoundCmp(ns *State, ps *ProcSet, pivot sym.Expr, depth int) ([]succ, bool) {
	ctx := ns.Ctx()
	pv, pc, okP := splitVarPlusConst(pivot)
	if !okP {
		return nil, false
	}
	rng := ps.Range.Enrich(ctx)
	for _, b := range []procset.Bound{rng.LB, rng.UB} {
		bnd := procset.NewBound(pivot)
		if ctx.LeqBound(bnd, b, 0) != tri.Unknown && ctx.LeqBound(b, bnd, 0) != tri.Unknown {
			continue
		}
		bv, bc, okB := splitVarPlusConst(b.Primary().Expr())
		if !okB {
			continue
		}
		// Side A: pivot <= bound; side B: bound <= pivot - 1.
		nsA := ns.Clone()
		nsA.G.AddLE(pv, bv, bc-pc)
		nsB := ns.Clone()
		nsB.G.AddLE(bv, pv, pc-bc-1)
		var out []succ
		if nsA.G.Consistent() {
			out = append(out, e.branchSetDepth(nsA, nsA.Set(ps.ID), depth-1)...)
		} else {
			nsA.Release()
		}
		if nsB.G.Consistent() {
			out = append(out, e.branchSetDepth(nsB, nsB.Set(ps.ID), depth-1)...)
		} else {
			nsB.Release()
		}
		if len(out) > 0 {
			return out, true
		}
	}
	return nil, false
}

// applyIDSplit distributes the yes/no sub-ranges of an id-dependent branch
// over the true/false successors, dropping provably empty pieces.
func (e *engine) applyIDSplit(ns *State, ps *ProcSet, yes, no []procset.Set, tN, fN *cfg.Node) []succ {
	ctx := ns.Ctx()
	type piece struct {
		rng  procset.Set
		node *cfg.Node
	}
	var pieces []piece
	for _, r := range yes {
		if r.IsValid() && r.Empty(ctx) != tri.True {
			pieces = append(pieces, piece{r, tN})
		}
	}
	for _, r := range no {
		if r.IsValid() && r.Empty(ctx) != tri.True {
			pieces = append(pieces, piece{r, fN})
		}
	}
	if len(pieces) == 0 {
		// Entire set vanished (inconsistent range): drop it.
		ns.RemoveSet(ps.ID)
		e.normalize(ns)
		return []succ{{ns, "empty-split"}}
	}
	// First piece reuses ps; the rest are fresh sets with copied state.
	ps.Range = pieces[0].rng
	ps.Node = pieces[0].node
	ps.Blocked = false
	for _, pc := range pieces[1:] {
		np := ns.SplitSet(ps, ps.Range, pc.rng)
		np.Node = pc.node
		np.Blocked = false
	}
	e.normalize(ns)
	return []succ{{ns, e.nodeDesc(ps.Node) + "-idsplit"}}
}

// ---------------------------------------------------------------------------
// Matching

// commFacets returns the destination (send side) and source (recv side)
// expressions a blocked set offers.
func commFacets(n *cfg.Node) (dest ast.Expr, src ast.Expr) {
	switch n.Kind {
	case cfg.Send:
		return n.Dest, nil
	case cfg.Recv:
		return nil, n.Src
	case cfg.SendRecv:
		return n.Dest, n.Src
	}
	return nil, nil
}

// issueSendStep records a non-blocking send and advances the issuing set;
// unsupported destination expressions fall back to the blocking treatment.
func (e *engine) issueSendStep(st *State, id int) []succ {
	ns := st.Clone()
	ps := ns.Set(id)
	node := ps.Node
	if ns.IssueSend(ps, node) {
		advance(ps)
		e.normalize(ns)
		return []succ{{ns, fmt.Sprintf("issue n%d", node.ID)}}
	}
	ps.Blocked = true
	e.normalize(ns)
	return []succ{{ns, fmt.Sprintf("block n%d", node.ID)}}
}

// tryPendingMatches satisfies a blocked receive from an in-flight pending
// send, respecting per-channel FIFO order conservatively.
func (e *engine) tryPendingMatches(st *State) ([]succ, bool) {
	for _, r := range st.Sets {
		if !r.Blocked || r.Node.Kind != cfg.Recv {
			continue
		}
		src, ok := st.AffineExprID(r, r.Node.Src)
		if !ok {
			continue
		}
		for idx := range st.Pending {
			pm, ok := st.MatchPending(r, src, idx)
			if !ok || e.fifoConflict(st, idx, pm) {
				continue
			}
			ns := st.Clone()
			nr := ns.Set(r.ID)
			recvNode := nr.Node
			// Release the matched receivers; leftover pieces stay blocked.
			ctx := ns.Ctx()
			nr.Range = pm.RecvMatched
			for _, rr := range pm.RecvRests {
				if !rr.IsValid() || rr.Empty(ctx) == tri.True {
					continue
				}
				rest := ns.SplitSet(nr, pm.RecvMatched, rr)
				rest.Blocked = true
			}
			ns.ReplacePending(idx, pm.PendingRests)
			// Value propagation from the frozen payload.
			rv := pvAtom(nr.ID, recvNode.RecvName)
			ns.invalidateVar(rv)
			ns.G.ForgetA(rv)
			if pm.Pending.ValOK {
				if w, c, okd := splitVarPlusConst(pm.Pending.Val); okd {
					ns.G.AddEq(rv.String(), w, c)
				}
			}
			if e.prof != nil {
				// Pending delivery needs no Matcher call; count the match
				// against the pending send's node with zero probe deltas.
				e.prof.Match(pm.Pending.Node, 0, 0, 0, 0, true)
			}
			ns.AddMatch(pm.Pending.Node, recvNode.ID, pm.SendersMatched, pm.RecvMatched)
			advance(nr)
			e.normalize(ns)
			return []succ{{ns, fmt.Sprintf("pending-match n%d->n%d", pm.Pending.Node, recvNode.ID)}}, true
		}
	}
	return nil, false
}

// fifoConflict reports whether delivering pending record idx to the matched
// receivers could violate FIFO order: an earlier pending record must not
// possibly carry a message on any of the same (sender, receiver) channels.
func (e *engine) fifoConflict(st *State, idx int, pm *PendingMatch) bool {
	ctx := st.Ctx()
	for i := 0; i < idx; i++ {
		q := st.Pending[i]
		qd := q.DestRange()
		if !qd.IsValid() {
			return true // cannot reason: be conservative
		}
		destOverlap, ok := procset.Intersect(ctx, qd, pm.RecvMatched)
		if !ok {
			return true
		}
		if destOverlap.Empty(ctx) == tri.True {
			continue
		}
		sendOverlap, ok := procset.Intersect(ctx, q.Senders, pm.SendersMatched)
		if !ok {
			return true
		}
		if sendOverlap.Empty(ctx) != tri.True {
			return true
		}
	}
	return false
}

// tryMatches attempts pairwise send-receive matching in deterministic order;
// the first success forms the successor (the framework propagates real
// state only along the matched edge). Matchers only read the state, so a
// failed attempt costs no clone.
func (e *engine) tryMatches(st *State) ([]succ, bool) {
	for _, sender := range st.Sets {
		if !sender.Blocked || sender.Node.Kind != cfg.Send {
			continue
		}
		for _, receiver := range st.Sets {
			if receiver == sender || !receiver.Blocked || receiver.Node.Kind != cfg.Recv {
				continue
			}
			if out, ok := e.applyPairMatch(st, sender, receiver); ok {
				return out, true
			}
		}
	}
	// sendrecv pair exchange between two distinct sets.
	for _, a := range st.Sets {
		if !a.Blocked || a.Node.Kind != cfg.SendRecv {
			continue
		}
		for _, b := range st.Sets {
			if b == a || !b.Blocked || b.Node.Kind != cfg.SendRecv {
				continue
			}
			if out, ok := e.applySendRecvPair(st, a, b); ok {
				return out, true
			}
		}
	}
	return nil, false
}

// applyPairMatch matches sender's send against receiver's recv, both sets
// of st, and applies the plan to a clone of st.
func (e *engine) applyPairMatch(st *State, sender, receiver *ProcSet) ([]succ, bool) {
	pr := e.profMatchStart()
	plan, ok := e.opts.Matcher.Match(st, sender, sender.Node.Dest, receiver, receiver.Node.Src)
	e.profMatchEnd(sender.Node.ID, pr, ok)
	if !ok {
		return nil, false
	}
	ns := st.Clone()
	sender, receiver = ns.Set(sender.ID), ns.Set(receiver.ID)
	sendNode, recvNode := sender.Node, receiver.Node
	action := fmt.Sprintf("match n%d->n%d", sendNode.ID, recvNode.ID)

	relSender := e.applyPlanSide(ns, sender, plan.SenderMatched, plan.SenderRests)
	relReceiver := e.applyPlanSide(ns, receiver, plan.RecvMatched, plan.RecvRests)

	// Value propagation: send value -> receiver's variable.
	e.propagateValue(ns, relSender, plan.SenderMatched, sendNode.Value, relReceiver, recvNode.RecvName)

	ns.AddMatch(sendNode.ID, recvNode.ID, plan.SenderMatched, plan.RecvMatched)
	advance(relSender)
	advance(relReceiver)
	e.normalize(ns)
	return []succ{{ns, action}}, true
}

// applySendRecvPair matches two sets of st blocked on sendrecv against each
// other in both directions; both directions must agree on whole-set
// matches. The plans apply to a clone of st.
func (e *engine) applySendRecvPair(st *State, a, b *ProcSet) ([]succ, bool) {
	pr := e.profMatchStart()
	planAB, ok := e.opts.Matcher.Match(st, a, a.Node.Dest, b, b.Node.Src)
	e.profMatchEnd(a.Node.ID, pr, ok)
	if !ok || len(planAB.SenderRests) > 0 || len(planAB.RecvRests) > 0 {
		return nil, false
	}
	pr = e.profMatchStart()
	planBA, ok := e.opts.Matcher.Match(st, b, b.Node.Dest, a, a.Node.Src)
	e.profMatchEnd(b.Node.ID, pr, ok)
	if !ok || len(planBA.SenderRests) > 0 || len(planBA.RecvRests) > 0 {
		return nil, false
	}
	ns := st.Clone()
	a, b = ns.Set(a.ID), ns.Set(b.ID)
	aNode, bNode := a.Node, b.Node
	e.propagateValue(ns, a, planAB.SenderMatched, aNode.Value, b, bNode.RecvName)
	e.propagateValue(ns, b, planBA.SenderMatched, bNode.Value, a, aNode.RecvName)
	ns.AddMatch(aNode.ID, bNode.ID, planAB.SenderMatched, planAB.RecvMatched)
	ns.AddMatch(bNode.ID, aNode.ID, planBA.SenderMatched, planBA.RecvMatched)
	advance(a)
	advance(b)
	e.normalize(ns)
	return []succ{{ns, fmt.Sprintf("exchange n%d<->n%d", aNode.ID, bNode.ID)}}, true
}

// applyPlanSide splits a matched set into its released and still-blocked
// pieces, returning the released set.
func (e *engine) applyPlanSide(ns *State, ps *ProcSet, matched procset.Set, rests []procset.Set) *ProcSet {
	ctx := ns.Ctx()
	ps.Range = matched
	for _, r := range rests {
		if !r.IsValid() || r.Empty(ctx) == tri.True {
			continue
		}
		rest := ns.SplitSet(ps, matched, r)
		rest.Blocked = true // stays at the comm node
	}
	return ps
}

// propagateValue transfers the sent value into the receiver's variable: an
// equality when the payload is a set-constant affine expression (or the
// matched sets are singletons), otherwise the receiver variable is
// invalidated.
func (e *engine) propagateValue(ns *State, sender *ProcSet, senderRange procset.Set, value ast.Expr, receiver *ProcSet, recvVar string) {
	rv := pvAtom(receiver.ID, recvVar)
	ns.invalidateVar(rv)
	ns.G.ForgetA(rv)
	expr, ok := ns.affineExprRange(sender, senderRange, value)
	if !ok {
		return
	}
	if w, c, okd := splitVarPlusConst(expr); okd {
		ns.G.AddEq(rv.String(), w, c)
	}
}

// markVisited records that some non-empty process set reached a CFG node.
func (e *engine) markVisited(id int) {
	if id >= 0 && id < len(e.visited) {
		e.visited[id] = true
	}
}

// trySelfMatches looks for a set blocked at a send (or sendrecv) whose own
// subsequent receive completes a whole-set permutation exchange — the
// paper's transpose pattern (Section VIII-B), justified by eager buffering.
func (e *engine) trySelfMatches(st *State) ([]succ, bool) {
	for _, ps := range st.Sets {
		if !ps.Blocked {
			continue
		}
		switch ps.Node.Kind {
		case cfg.SendRecv:
			pr := e.profMatchStart()
			ok := e.opts.Matcher.SelfMatch(st, ps, ps.Node.Dest, ps.Node.Src)
			e.profMatchEnd(ps.Node.ID, pr, ok)
			if ok {
				ns := st.Clone()
				nps := ns.Set(ps.ID)
				e.propagateValue(ns, nps, nps.Range, ps.Node.Value, nps, ps.Node.RecvName)
				ns.AddMatch(ps.Node.ID, ps.Node.ID, nps.Range, nps.Range)
				advance(nps)
				e.normalize(ns)
				return []succ{{ns, fmt.Sprintf("self-exchange n%d", ps.Node.ID)}}, true
			}
		case cfg.Send:
			// Find the next comm node along a straight-line path.
			recvNode, inter := straightLineRecv(ps.Node)
			if recvNode == nil {
				continue
			}
			pr := e.profMatchStart()
			ok := e.opts.Matcher.SelfMatch(st, ps, ps.Node.Dest, recvNode.Src)
			e.profMatchEnd(ps.Node.ID, pr, ok)
			if !ok {
				continue
			}
			ns := st.Clone()
			nps := ns.Set(ps.ID)
			sendNode := nps.Node
			// Advance through intermediate sequential nodes. They are
			// executed inline, so they never surface in a normalized
			// configuration — mark them visited here.
			advance(nps)
			for _, n := range inter {
				if n.Kind == cfg.Assign {
					ns.ApplyAssign(nps, n.AssignName, n.AssignRhs)
				}
				e.markVisited(n.ID)
				nps.Node = n.SuccSeq()
			}
			// Now at recvNode; consume it (visited and bounds-checked like a
			// normalized position, since it never becomes one).
			nps.Node = recvNode
			e.markVisited(recvNode.ID)
			if e.opts.RecordCommBounds {
				e.recordCommBounds(ns, nps)
			}
			e.propagateValue(ns, nps, nps.Range, sendNode.Value, nps, recvNode.RecvName)
			ns.AddMatch(sendNode.ID, recvNode.ID, nps.Range, nps.Range)
			advance(nps)
			e.normalize(ns)
			return []succ{{ns, fmt.Sprintf("self-match n%d->n%d", sendNode.ID, recvNode.ID)}}, true
		}
	}
	return nil, false
}

// straightLineRecv walks sequential successors from a send node until the
// next communication node; it succeeds only when that node is a recv and
// the path is branch-free. Returns the recv node and intermediate nodes.
func straightLineRecv(send *cfg.Node) (*cfg.Node, []*cfg.Node) {
	var inter []*cfg.Node
	n := send.SuccSeq()
	for n != nil {
		switch n.Kind {
		case cfg.Recv:
			return n, inter
		case cfg.Assign, cfg.Print, cfg.Skip, cfg.Assume, cfg.Assert:
			inter = append(inter, n)
			n = n.SuccSeq()
		default:
			return nil, nil
		}
	}
	return nil, nil
}

// tryEmptinessSplit forks the configuration on a blocked set whose range
// may be empty: one branch removes it (adding the emptiness constraint),
// the other assumes it non-empty and immediately continues the blocked-step
// logic under that assumption (so the extra fact is not lost by folding
// back into the same pCFG node).
func (e *engine) tryEmptinessSplit(st *State, depth int, key string) ([]succ, bool) {
	if depth <= 0 {
		return nil, false
	}
	ctx := st.Ctx()
	for _, ps := range st.Sets {
		if !ps.Blocked {
			continue
		}
		if ps.Range.Empty(ctx) != tri.Unknown {
			continue
		}
		lbv, lbc, ok1 := splitVarPlusConst(ps.Range.LB.Primary().Expr())
		ubv, ubc, ok2 := splitVarPlusConst(ps.Range.UB.Primary().Expr())
		if !ok1 || !ok2 {
			continue
		}
		// Branch A: the set is empty (lb > ub) and disappears.
		emptySt := st.Clone()
		emptySt.G.AddLE(ubv, lbv, lbc-ubc-1) // ub <= lb - 1
		emptySt.RemoveSet(ps.ID)
		e.normalize(emptySt)
		// Branch B: non-empty (lb <= ub); continue stepping inline.
		nonEmpty := st.Clone()
		nonEmpty.G.AddLE(lbv, ubv, ubc-lbc)
		e.normalize(nonEmpty)
		out := []succ{{emptySt, fmt.Sprintf("assume %s empty", ps.Range)}}
		out = append(out, e.stepBlocked(nonEmpty, depth-1, key)...)
		// stepBlocked clones for every successor it returns; the inline
		// continuation state itself is dead.
		nonEmpty.Release()
		return out, true
	}
	return nil, false
}

// ---------------------------------------------------------------------------
// Normalization: blocked flags, empty-set removal, merging

// normalize canonicalizes a configuration after a step: comm nodes block,
// provably empty sets disappear, adjacent sets at the same node merge, and
// invalid ranges force ⊤.
func (e *engine) normalize(st *State) {
	if st.Top {
		return
	}
	if !st.G.Consistent() {
		// Unreachable configuration: model as empty final (no sets). Mark
		// top with a reason to aid debugging; callers treat inconsistent
		// graphs as unreachable.
		st.Sets = nil
		return
	}
	for _, ps := range st.Sets {
		if ps.Node.IsComm() {
			if e.opts.NonBlockingSends && ps.Node.Kind == cfg.Send && !ps.Blocked {
				continue // stays runnable; step() will issue the send
			}
			ps.Blocked = true
		}
	}
	st.dropEmptyPendings()
	ctx := st.Ctx()
	// Remove provably empty sets.
	for i := 0; i < len(st.Sets); {
		if st.Sets[i].Range.Empty(ctx) == tri.True {
			st.RemoveSet(st.Sets[i].ID)
			ctx = st.Ctx()
		} else {
			i++
		}
	}
	if !st.RangesValid() {
		var bad *cfg.Node
		for _, p := range st.Sets {
			if !p.Range.IsValid() {
				bad = p.Node
				break
			}
		}
		st.MarkTopAt(bad, "process-set bounds no longer representable")
		return
	}
	if len(st.Sets) > e.opts.maxSets() {
		st.MarkTopAt(st.Sets[0].Node, fmt.Sprintf("configuration fragmented into %d process sets (limit %d)", len(st.Sets), e.opts.maxSets()))
		return
	}
	// Surviving sets have genuinely reached their nodes: mark them visited
	// and, when enabled, check communication targets against [0, np-1].
	for _, ps := range st.Sets {
		e.markVisited(ps.Node.ID)
		if e.opts.RecordCommBounds && ps.Node.IsComm() {
			e.recordCommBounds(st, ps)
		}
	}
	// Merge same-node adjacent sets (both directions), repeating to a fixed
	// point.
	for changed := true; changed; {
		changed = false
		st.sortCanonical()
	outer:
		for i := 0; i < len(st.Sets); i++ {
			for j := i + 1; j < len(st.Sets); j++ {
				a, b := st.Sets[i], st.Sets[j]
				if a.Node != b.Node || a.Blocked != b.Blocked {
					continue
				}
				ctx := st.Ctx()
				ar := a.Range.Enrich(ctx)
				br := b.Range.Enrich(ctx)
				if !a.Approx && !b.Approx {
					if u, ok := ar.UnionAdjacent(ctx, br); ok {
						st.MergeSets(a, b, u)
						changed = true
						break outer
					}
					if u, ok := br.UnionAdjacent(ctx, ar); ok {
						st.MergeSets(b, a, u)
						changed = true
						break outer
					}
				}
				if a.Node.Kind == cfg.Exit {
					// Terminated sets never match again, so an exact range
					// is not required: merge approximately.
					st.MergeSets(a, b, AllProcs())
					a.Approx = true
					changed = true
					break outer
				}
			}
		}
	}
	if len(st.Sets) == 0 {
		return
	}
	st.sortCanonical()
}
