package core

import (
	"bytes"
	"fmt"
	"io"
	"log/slog"
	"slices"
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
	// Tracer receives a span per engine phase (step, transfer, matcher
	// call, split, insert, commit, join, widen, dequeue, give-up commit,
	// finish) and a zero-length event per give-up, widening failure, ⊤
	// demotion and dump when non-nil; steps, matcher calls, joins,
	// widenings and those marks carry the CFG node they are charged to.
	// Analyze hands it to the matcher too, so the cartesian client's
	// prover searches land on this job's prover lane. Its retained events
	// are what StallDump receives, and folds on it (the source profiler,
	// internal/prof) see every event. Tracing only observes — results are
	// byte-identical with it on or off — and the nil default costs
	// nothing.
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
	// ProfileLabels attaches runtime/pprof goroutine labels (psdf_job,
	// psdf_phase) to the fixpoint loop, the finish post-pass and the
	// matcher's prover searches, so CPU profiles attribute samples per
	// analysis and phase.
	ProfileLabels bool
	// forceStall pins the watchdog's progress reading to zero and holds
	// the (converged) run open until the watchdog fires: the deterministic
	// test path for the stall machinery (installed via WithForcedStall in
	// tests). Requires StallTimeout > 0.
	forceStall bool
	// noBoundTable turns the analysis memo's bound table off, so every
	// bound is built as without a memo: the test path that checks the
	// table changes no result (installed via WithoutBoundTable in tests).
	noBoundTable bool
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
	// seen heads the chain of identities of every state delivered to (or
	// committed on) this entry, recorded in the engine's seenLog. The entry
	// only ascends, so each of those states stays below it forever: a
	// re-delivery whose identity is on the chain is dropped before the
	// combine runs. Re-deliveries are routine: a configuration re-stepped
	// after a revision sends again every successor the revision did not
	// change. Beyond saving the combine, the filter keeps the widen rung
	// reductive on duplicates (cg.Widen against an already-absorbed state
	// is not a representation no-op, so without the filter duplicate
	// traffic could advance the revision chain).
	seen seenRef
	// cur is the record on the seen chain of entry.st's identity, or zero
	// when the next revision must encode it (entryIdentity): the entry,
	// not its state, keeps the identity. A state-changing commit points cur
	// at the identity it records, and every ⊤ replacement clears it. A
	// combine that ends without change clears it too: combineRetry enriches
	// entry.st in place and parametricWiden may anchor a widening parameter
	// in it, so the entry's identity can move without a revision.
	cur seenRef
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
	// indexed by node ID and rendered on first use (nodeDesc); branches
	// holds a branch node's four action labels the same way (branchLabel).
	descs, branches []string
	// entries is the unused rest of the chunk new table entries are carved
	// from (newEntry).
	entries []tableEntry
	// seen records the identities the duplicate-delivery filter has seen,
	// for every table entry (tableEntry.seen).
	seen seenLog
	// succs, preps and scratch are the working storage of step, prepare
	// and combineRetry, reused by every step and combine of the analysis.
	succs   []succ
	preps   []prepSucc
	scratch combineScratch
	// obsSeen dedupes rank-bounds observations across revisits by the
	// binary key addBoundsObs builds in obsKey.
	obsSeen map[string]struct{}
	obsKey  []byte
	// inBuf and entryBuf are reviseEntry's buffers for identities: inBuf
	// for the incoming state's, entryBuf for the entry's (entryIdentity)
	// and the combine result's.
	inBuf, entryBuf []byte
	// memo is the matcher's decision memo (nil when the matcher has none):
	// progress snapshots read its counters, and traced matcher calls carry
	// the misses they caused.
	memo *MatchMemo
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

// Branch outcomes, in the order branchLabel renders their labels.
const (
	branchTrue       = iota // the condition holds
	branchFalse             // the condition fails
	branchMaybeTrue         // the true side of a fork on an unknown condition
	branchMaybeFalse        // the false side of that fork
)

// branchLabel is the action label of branch node n's outcome: the node's
// description followed by "=true", "=false", "=true?" or "=false?". The
// four labels are rendered once per analysis into one string,
// desc=true?desc=false?, and each is a substring of it.
func (e *engine) branchLabel(n *cfg.Node, outcome int) string {
	desc := e.nodeDesc(n)
	if e.branches[n.ID] == "" {
		e.branches[n.ID] = desc + "=true?" + desc + "=false?"
	}
	s, t := e.branches[n.ID], len(desc)+len("=true?")
	switch outcome {
	case branchTrue:
		return s[:t-1]
	case branchFalse:
		return s[t : len(s)-1]
	case branchMaybeTrue:
		return s[:t]
	}
	return s[t:]
}

// entryChunk is how many table entries newEntry allocates at once.
const entryChunk = 16

// newEntry returns a new table entry holding st, carved from a chunk of
// entries: the table keeps every entry until the analysis ends.
func (e *engine) newEntry(st *State) *tableEntry {
	if len(e.entries) == 0 {
		e.entries = make([]tableEntry, entryChunk)
	}
	entry := &e.entries[0]
	e.entries = e.entries[1:]
	entry.st = st
	return entry
}

// span opens a phase span on this engine's trace lane (tid 0). Free when
// Options.Tracer is nil.
func (e *engine) span(ph obs.Phase, key string) obs.Span {
	return e.opts.Tracer.Begin(e.opts.TracePID, 0, ph, key)
}

// mark records a zero-length event on this engine's trace lane, charged to
// CFG node. Free when Options.Tracer is nil.
func (e *engine) mark(ph obs.Phase, node int, key, detail string) {
	e.opts.Tracer.Mark(e.opts.TracePID, 0, ph, node, key, detail)
}

// matchCall is one matcher call in flight: its span and the memo's miss
// count before it.
type matchCall struct {
	sp     obs.Span
	misses int
}

// beginMatch opens the span of one matcher call. Free when Options.Tracer
// is nil.
func (e *engine) beginMatch(key string) matchCall {
	if e.opts.Tracer == nil {
		return matchCall{}
	}
	return matchCall{e.span(obs.PhaseMatch, key), e.memoMisses()}
}

// endMatch closes a matcher call's span, charged to the sending set's
// node, with the memo misses the call caused and whether it produced a
// plan.
func (e *engine) endMatch(mc matchCall, node int, matched bool) {
	if e.opts.Tracer == nil {
		return
	}
	detail := "unmatched"
	if matched {
		detail = "matched"
	}
	mc.sp.EndAt(node, int64(e.memoMisses()-mc.misses), detail)
}

// memoMisses is the matcher memo's miss count so far (0 without a memo).
func (e *engine) memoMisses() int {
	if e.memo == nil {
		return 0
	}
	return e.memo.MissCount()
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
		g:        g,
		opts:     opts,
		in:       newInterner(),
		res:      &Result{},
		visited:  make([]bool, len(g.Nodes)),
		descs:    make([]string, len(g.Nodes)),
		branches: make([]string, len(g.Nodes)),
		started:  time.Now(),
	}
	// Optional matcher capabilities, discovered by interface assertion so
	// core needs no client or hsm dependency: a decision memo, and
	// observation of the matcher's own work (the cartesian client's prover
	// searches), which goes to this job's tracer, lane and pprof labels.
	if mp, ok := opts.Matcher.(interface{ Memo() *MatchMemo }); ok {
		e.memo = mp.Memo()
	}
	if om, ok := opts.Matcher.(interface {
		SetObs(tr *obs.Tracer, pid int, labels bool)
	}); ok {
		om.SetObs(opts.Tracer, opts.TracePID, opts.ProfileLabels)
	}
	init := NewState(g.Entry, opts.CGOpts)
	init.SetAssignedVars(assignedVars(g))
	init.memo = procset.NewMemo()
	if opts.noBoundTable {
		init.memo.DisableBounds()
	}
	InjectAffineConsequences(init.G, ScanInvariants(g))
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
			e.mark(obs.PhaseDemote, node, "", fin.TopWhy)
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
				e.setEntry(id, e.newEntry(sa.st))
				e.giveUps.Add(1)
				e.mark(obs.PhaseGiveup, sa.st.TopNode, sa.st.TopKey, sa.st.TopWhy)
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
		entry.replace(st, seenRef{})
		return true
	}
	// st is consumed here, so its identity goes into an engine buffer.
	// before is a record of the seen log, which stays intact through
	// AlignTo and combine, so the combine result's identity can reuse
	// entryBuf.
	ksp := e.span(obs.PhaseCanon, key)
	e.inBuf = st.appendIdentity(e.inBuf)
	e.stats().AddKeyCacheMisses(1)
	before := e.entryIdentity(entry)
	if !e.admit(entry, e.inBuf) {
		ksp.End()
		st.Release()
		return false
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
	node := blameNode(entry.st)
	csp := e.span(combinePhase, key)
	widened := e.combine(entry, st, key)
	csp.EndAt(node, 0, "")
	if widened.Top {
		if widened.TopKey == "" {
			widened.TopKey = key
		}
		entry.replace(widened, seenRef{})
		st.Release()
		return true
	}
	ksp = e.span(obs.PhaseCanon, key)
	remap := widened.CanonicalizeParams()
	e.entryBuf = widened.appendIdentity(e.entryBuf)
	e.stats().AddKeyCacheMisses(1)
	after := e.entryBuf
	ksp.End()
	if bytes.Equal(after, before) {
		// Absorbed without change: the ladder does not advance, and the
		// canonicalization remap is dropped along with the discarded trial
		// state. Applying the remap here would orphan the widening
		// parameter — the remap describes renames inside widened, while
		// entry.st keeps its current names. The combine may have changed
		// entry.st in place all the same, so its identity is encoded
		// afresh at the next revision.
		entry.cur = seenRef{}
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
		top := &State{Top: true, TopWhy: "widening did not converge at " + key,
			TopNode: firstActiveNode(entry.st), TopKey: key}
		e.mark(obs.PhaseGiveup, top.TopNode, key, "widening did not converge")
		entry.replace(top, seenRef{})
		widened.Release()
		st.Release()
		return true
	}
	e.widenings.Add(1)
	entry.seen = e.seen.add(entry.seen, after)
	entry.replace(widened, entry.seen)
	st.Release()
	if e.opts.Log != nil {
		e.logState("widened configuration", key, widened)
	}
	return true
}

// replace installs st as the entry's state, with cur the seen-log record
// of its identity (zero when none is known), and releases the state it
// replaces.
func (entry *tableEntry) replace(st *State, cur seenRef) {
	old := entry.st
	entry.st, entry.cur = st, cur
	old.Release()
}

// entryIdentity returns the identity of entry.st: the record entry.cur
// points at, a key-cache hit. When cur is zero it encodes entry.st, finds
// the identity on the entry's seen chain or records it there, and points
// cur at it: a miss. Either way the result is a record of the seen log,
// which nothing overwrites.
func (e *engine) entryIdentity(entry *tableEntry) []byte {
	if entry.cur.chunk != 0 {
		e.stats().AddKeyCacheHits(1)
		return e.seen.at(entry.cur)
	}
	e.stats().AddKeyCacheMisses(1)
	e.entryBuf = entry.st.appendIdentity(e.entryBuf)
	if entry.cur = e.seen.find(entry.seen, e.entryBuf); entry.cur.chunk == 0 {
		entry.seen = e.seen.add(entry.seen, e.entryBuf)
		entry.cur = entry.seen
	}
	return e.seen.at(entry.cur)
}

// admit is the duplicate-delivery filter: it reports whether a delivery
// with identity fk is new to entry, and then records fk on the entry's
// chain. The entry's own identity is on the chain already
// (entryIdentity), which matters when the entry was just created: combining
// a state with itself is not a representation no-op (multi-atom bounds
// normalize under G), so without it a self-delivery would advance the
// revision chain.
func (e *engine) admit(entry *tableEntry, fk []byte) bool {
	if e.seen.has(entry.seen, fk) {
		return false
	}
	entry.seen = e.seen.add(entry.seen, fk)
	return true
}

// ---------------------------------------------------------------------------
// Combining states at a shared pCFG node (join / widen, Section VII-D)

type nodePair struct{ s, r int }

// combineScratch is combineRetry's working storage: the widened ranges,
// approximation flags and failing set indices of a combine, its match
// groups and failing node pairs, and the merged match records before the
// result copies them into a block of its own. The engine owns one and
// every combine refills it, so nothing in it outlives the combine that
// filled it: a combine reads none of it after its retry recursion, which
// refills it.
type combineScratch struct {
	widened   []procset.Set
	approx    []bool
	failing   []int
	groups    []pairMatches
	matchFail []nodePair
	merged    []Match
}

// combine merges incoming state nw into the table entry's state. key
// names the entry in trace spans.
func (e *engine) combine(entry *tableEntry, nw *State, key string) *State {
	return e.combineRetry(entry, nw, key, 4)
}

// enrich runs st.EnrichEverywhere in an enrich span.
func (e *engine) enrich(st *State, key string) {
	sp := e.span(obs.PhaseEnrich, key)
	st.EnrichEverywhere()
	sp.End()
}

func (e *engine) combineRetry(entry *tableEntry, nw *State, key string, retries int) *State {
	old := entry.st
	e.enrich(old, key)
	e.enrich(nw, key)

	// First attempt plain bound-atom intersection on all ranges.
	sc := &e.scratch
	n := len(old.Sets)
	widenedSets := slices.Grow(sc.widened[:0], n)[:n]
	approx := slices.Grow(sc.approx[:0], n)[:n]
	failing := sc.failing[:0]
	for i := range old.Sets {
		widenedSets[i], approx[i] = procset.Set{}, false
		if old.Sets[i].Approx || nw.Sets[i].Approx {
			// Approximate (terminated) sets widen to the full range.
			widenedSets[i] = AllProcs()
			approx[i] = true
			continue
		}
		w, ok := old.Sets[i].Range.Widen(old.memo, nw.Sets[i].Range)
		if ok {
			widenedSets[i] = w
		} else if old.Sets[i].Node.Kind == cfg.Exit {
			widenedSets[i] = AllProcs()
			approx[i] = true
		} else {
			failing = append(failing, i)
		}
	}
	sc.widened, sc.approx, sc.failing = widenedSets, approx, failing
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
	matchFail := sc.matchFail[:0]
	merged := sc.merged[:0]
	for _, gr := range e.matchGroups(old, nw) {
		om, nm := gr.old, gr.nw
		switch {
		case len(om) == 0 || len(nm) == 0:
			// Present on one side only: keep those records verbatim (the
			// join over-approximates both inputs).
			if len(om) == 0 {
				om = nm
			}
			for _, m := range om {
				merged = append(merged, *m)
			}
		case len(om) == len(nm):
			sortMatches(om)
			sortMatches(nm)
			mark := len(merged)
			for i := range om {
				ws, ok1 := om[i].Sender.Widen(old.memo, nm[i].Sender)
				wr, ok2 := om[i].Receiver.Widen(old.memo, nm[i].Receiver)
				if !ok1 || !ok2 {
					merged = merged[:mark]
					matchFail = append(matchFail, gr.k)
					break
				}
				merged = append(merged, Match{SendNode: gr.k.s, RecvNode: gr.k.r, Sender: ws, Receiver: wr})
			}
		default:
			matchFail = append(matchFail, gr.k)
		}
	}
	sc.matchFail, sc.merged = matchFail, merged

	// Pending-send widening: the records line up (alignPending), so only
	// their offsets and ranges can fail.
	alignPending(old, nw)
	pendFail := false
	widenedPend := make([]*PendingSend, 0, len(old.Pending))
	for i, po := range old.Pending {
		pn := nw.Pending[i]
		if !sym.Equal(po.Offset, pn.Offset) {
			pendFail = true
			break
		}
		ws, okS := po.Senders.Widen(old.memo, pn.Senders)
		wd, okD := procset.Set{}, true
		if po.Shape == PendFan {
			wd, okD = po.Dests.Widen(old.memo, pn.Dests)
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

	if len(failing) > 0 || len(matchFail) > 0 || pendFail {
		nw2, ok := e.parametricWiden(entry, old, nw, key)
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
			if e.opts.Tracer != nil {
				// Trace-only blame: when only matches failed, fall back to
				// the failing pair's send node (TopNode itself stays on the
				// established failing-set rule). The bound pair is rendered
				// only for a reader of the events.
				fnode := blame
				if len(failing) == 0 && len(matchFail) > 0 {
					fnode = matchFail[0].s
				}
				var fa, fb string
				if e.opts.Tracer.Observed() {
					if pa, pb, okb := firstFailingBound(old, nw); okb {
						fa, fb = pa.String(), pb.String()
					} else if len(detail) > 0 {
						fb = detail[0]
					}
				}
				e.mark(obs.PhaseWidenFail, fnode, fa, fb)
			}
			return &State{Top: true, TopWhy: "widening failed: no common bound expressions: " + strings.Join(detail, "; "),
				TopNode: blame}
		}
		// Retry after parametric generalization. nw2 is an intermediate
		// trial state; the recursion only reads it, and refills the scratch.
		res := e.combineRetry(entry, nw2, key, retries-1)
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
	out.Matches = matchBlock(len(merged))
	for i := range merged {
		*out.Matches[i] = merged[i]
	}
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

// alignPending puts the pending records of old and nw, two states with one
// shape key, in canonical order. The shape key names every pending
// record's node and shape in that order, so the two lists have one length
// and line up position by position; only a bug can break that, and it
// panics.
func alignPending(old, nw *State) {
	old.sortPending()
	nw.sortPending()
	ok := len(old.Pending) == len(nw.Pending)
	for i := 0; ok && i < len(old.Pending); i++ {
		ok = old.Pending[i].Node == nw.Pending[i].Node && old.Pending[i].Shape == nw.Pending[i].Shape
	}
	if !ok {
		panic(fmt.Sprintf("core: combine of misaligned pending records %v and %v", old.Pending, nw.Pending))
	}
}

// pairMatches holds one node pair's match records on each side of a
// combine.
type pairMatches struct {
	k       nodePair
	old, nw []*Match
}

// matchGroups groups the match records of old and nw by node pair, in the
// engine's scratch: the pairs of nw first, then the pairs only old has,
// each in order of first appearance. Each side's list is re-normalized
// under its own context as it grows; a one-record list aliases the state's
// slice, which nothing writes through (sorting one record is a no-op, and
// a second record appends past its capacity).
func (e *engine) matchGroups(old, nw *State) []pairMatches {
	groups := e.scratch.groups[:0]
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
	e.scratch.groups = groups
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
// combineRetry aligned. Records are copied, into one block, before
// mutation; survivors keep input order.
func normalizeMatches(ctx procset.Ctx, ms []*Match) []*Match {
	if len(ms) < 2 {
		return ms
	}
	out := matchBlock(len(ms))
	for i, m := range ms {
		*out[i] = *m
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
func (e *engine) parametricWiden(entry *tableEntry, old, nw *State, key string) (*State, bool) {
	// First try the shift interpretation on the key's established
	// parameter: the new state's k corresponds to old k ± 1 (one pipeline
	// step later/earlier).
	if k := entry.widenParam; k != "" && nw.G.HasVar(k) && old.G.HasVar(k) {
		for _, delta := range []int64{1, -1} {
			trial := nw.Clone()
			trial.G.Shift(k, delta)
			trial.SubstEverywhere(k, sym.VarPlus(k, -delta))
			e.enrich(trial, key)
			if _, _, failing := firstFailingBound(old, trial); !failing {
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
		if ok && oldPrim.IsVarPlus() && newPrim.IsVarPlus() {
			ka := cg.Intern(k)
			trial := nw.Clone()
			if oldPrim.V == ka {
				// old bound = k + cOld, so seed k = newPrim - cOld.
				trial.G.AddEqA(ka, newPrim.V, newPrim.C-oldPrim.C)
			} else {
				trial.G.AddEqA(ka, newPrim.V, newPrim.C)
			}
			e.enrich(trial, key)
			e.enrich(old, key)
			if _, _, failing := firstFailingBound(old, trial); !failing {
				return trial, true
			}
			trial.Release()
		}
	}
	// Anchor fresh parameters to failing bounds: for each failing pair,
	// mint k with k = bound_old in old and k = bound_new in new; enrichment
	// then inserts the common atom (k + c) into every failing bound related
	// to the anchor through the constraint graph — constant bounds via the
	// zero variable, var-relative bounds via their shared base variable.
	// Several independent bound families may each need their own anchor.
	trial := nw.Clone()
	var prevOld, prevNew procset.Atom
	for tries := 0; tries < 6; tries++ {
		oldPrim, newPrim, ok := firstFailingBound(old, trial)
		if !ok {
			trial.Release()
			return nil, false
		}
		if tries > 0 && oldPrim.Equal(prevOld) && newPrim.Equal(prevNew) {
			// The anchor did not help this bound; give up.
			trial.Release()
			return nil, false
		}
		prevOld, prevNew = oldPrim, newPrim
		if !oldPrim.IsVarPlus() || !newPrim.IsVarPlus() {
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
		ka := cg.Intern(k)
		old.G.AddEqA(ka, oldPrim.V, oldPrim.C)
		trial.G.AddEqA(ka, newPrim.V, newPrim.C)
		e.enrich(old, key)
		e.enrich(trial, key)
		if _, _, failing := firstFailingBound(old, trial); !failing {
			return trial, true
		}
	}
	trial.Release()
	return nil, false
}

// firstFailingBound locates the primary atoms of the first bound pair whose
// atom intersection is empty; ok reports whether range widening would still
// fail. It builds nothing. The pending records of old and nw must line up
// (alignPending).
func firstFailingBound(old, nw *State) (a, b procset.Atom, ok bool) {
	for i := range old.Sets {
		or, nr := old.Sets[i].Range, nw.Sets[i].Range
		for _, pair := range [][2]procset.Bound{{or.LB, nr.LB}, {or.UB, nr.UB}} {
			if !pair[0].SharesAtom(pair[1]) {
				return pair[0].Primary(), pair[1].Primary(), true
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
				if !pair[0].SharesAtom(pair[1]) {
					return pair[0].Primary(), pair[1].Primary(), true
				}
			}
		}
	}
	for i, po := range old.Pending {
		pn := nw.Pending[i]
		pairs := [4][2]procset.Bound{
			{po.Senders.LB, pn.Senders.LB}, {po.Senders.UB, pn.Senders.UB},
			{po.Dests.LB, pn.Dests.LB}, {po.Dests.UB, pn.Dests.UB},
		}
		n := 2
		if po.Shape == PendFan {
			n = 4
		}
		for _, pair := range pairs[:n] {
			if !pair[0].SharesAtom(pair[1]) {
				return pair[0].Primary(), pair[1].Primary(), true
			}
		}
	}
	return procset.Atom{}, procset.Atom{}, false
}

// ---------------------------------------------------------------------------
// Propagate: one analysis step (Fig 4's propagate)

// step computes the successor configurations of st and the CFG node the
// step is charged to. key identifies the configuration for phase tracing
// only. st is the table entry itself: step only reads it, apart from
// sorting its sets, which leaves an entry that is already in canonical
// order unchanged, and every successor is a clone. The transfer, matching
// and split functions below emit the successors, in order, into the
// engine's successor list, which step returns: it is valid until the next
// step, and prepare consumes it first.
func (e *engine) step(st *State, key string) ([]succ, int) {
	e.succs = e.succs[:0]
	// 1. An unblocked set at a sequential node advances (transfer function).
	st.sortCanonical()
	for _, ps := range st.Sets {
		if ps.Blocked || ps.Node.Kind == cfg.Exit {
			continue
		}
		if ps.Node.IsComm() {
			if e.opts.NonBlockingSends && ps.Node.Kind == cfg.Send {
				sp := e.span(obs.PhaseTransfer, key)
				e.issueSendStep(st, ps.ID)
				sp.End()
				return e.succs, ps.Node.ID
			}
			continue
		}
		sp := e.span(obs.PhaseTransfer, key)
		e.advanceSet(st, ps.ID)
		sp.End()
		return e.succs, ps.Node.ID
	}
	e.stepBlocked(st, len(st.Sets)+1, key)
	return e.succs, firstBlockedNode(st)
}

// emit adds a successor of the current step to the engine's successor
// list.
func (e *engine) emit(st *State, action string) {
	e.succs = append(e.succs, succ{st, action})
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
func (e *engine) stepBlocked(st *State, depth int, key string) {
	// 2a. Satisfy receives from pending (non-blocking) sends.
	if e.tryPendingMatches(st, key) {
		return
	}
	// 2b. Match blocked sends to receives.
	if e.tryMatches(st, key) {
		return
	}
	// 3. Self-matches (permutation exchanges).
	if e.trySelfMatches(st, key) {
		return
	}
	// 4. Case-split on possibly-empty blocked sets.
	ssp := e.span(obs.PhaseSplit, key)
	if e.tryEmptinessSplit(st, depth, key) {
		ssp.End()
		return
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
	e.emit(ns, "give-up")
}

// advanceSet executes the node of set id, emitting its successors.
func (e *engine) advanceSet(st *State, id int) {
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
	case cfg.Assume, cfg.Assert:
		// Affine facts of an assume go to the constraint graph; its
		// multiplicative equalities reach the matcher and the initial graph
		// through ScanInvariants before the run. Assertions are checked by
		// the verifier; the analysis may assume them (they hold in
		// non-aborting executions).
		ns.AssumeCond(ps, node.Cond, false)
		advance(ps)
	case cfg.Branch:
		e.branchSetDepth(ns, ps, 4)
		return
	default:
		ns.MarkTopAt(node, "unexpected node kind "+node.Kind.String())
	}
	e.normalize(ns)
	e.emit(ns, e.nodeDesc(node))
}

// recordPrint captures the constant-propagation fact at a print site.
func (e *engine) recordPrint(ns *State, ps *ProcSet, node *cfg.Node) {
	obs := PrintObs{Node: node.ID, Range: ps.Range.String()}
	if f, ok := ns.affineAt(ps, ps.Range, node.Arg); ok {
		if c, isConst := f.IsConst(); isConst {
			obs.Val, obs.Known = c, true
		} else if v, c2, okd := f.VarPlus(); okd && v != cg.AtomZero {
			if base, okc := ns.G.ConstValA(v); okc {
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

// branchSetDepth handles a conditional: id-dependent conditions split the
// set; uniform conditions either resolve or fork the configuration. depth
// bounds nested forks on the pivot's order against the range bounds.
func (e *engine) branchSetDepth(ns *State, ps *ProcSet, depth int) {
	node := ps.Node
	tN, fN := node.SuccBranch()
	usesID := ast.UsesIdent(node.Cond, "id")
	singleton := ns.Ctx()
	isSingle := ps.Range.IsSingleton(singleton) == tri.True

	if usesID && !isSingle {
		if op, pivot, ok := ns.idComparison(ps, node.Cond); ok {
			yes, no, ok2 := SplitByIDCond(ns.Ctx(), op, ps.Range, pivot.Expr())
			if ok2 {
				e.applyIDSplit(ns, ps, yes, no, tN, fN)
				return
			}
			// Exact splitting needs the pivot's order against the range
			// bounds; fork the configuration on the first unresolved
			// comparison and retry each side with the extra fact.
			if depth > 0 && e.forkOnBoundCmp(ns, ps, pivot, depth) {
				return
			}
		}
		ns.MarkTopAt(node, fmt.Sprintf("unsupported id-dependent condition: %s on %s [G: %s]", node.Cond, ps.Range, ns.G))
		e.emit(ns, "give-up")
		return
	}

	switch ns.EvalCond(ps, node.Cond) {
	case tri.True:
		ps.Node = tN
		ps.Blocked = false
		ns.AssumeCond(ps, node.Cond, false)
		e.normalize(ns)
		e.emit(ns, e.branchLabel(node, branchTrue))
	case tri.False:
		ps.Node = fN
		ps.Blocked = false
		ns.AssumeCond(ps, node.Cond, true)
		e.normalize(ns)
		e.emit(ns, e.branchLabel(node, branchFalse))
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
		e.emit(ns, e.branchLabel(node, branchMaybeTrue))
		e.emit(alt, e.branchLabel(node, branchMaybeFalse))
	}
}

// forkOnBoundCmp case-splits the configuration on an unresolved comparison
// between the branch pivot and one of the set's range bounds, then retries
// the branch on both sides. It reports whether it emitted successors.
func (e *engine) forkOnBoundCmp(ns *State, ps *ProcSet, pivot Affine, depth int) bool {
	ctx := ns.Ctx()
	pv, pc, okP := pivot.VarPlus()
	if !okP {
		return false
	}
	rng := ps.Range.Enrich(ctx)
	bnd := procset.NewBound(ctx.Memo, pivot.Expr())
	for _, b := range []procset.Bound{rng.LB, rng.UB} {
		if ctx.LeqBound(bnd, b, 0) != tri.Unknown && ctx.LeqBound(b, bnd, 0) != tri.Unknown {
			continue
		}
		bp := b.Primary()
		if !bp.IsVarPlus() {
			continue
		}
		// Side A: pivot <= bound; side B: bound <= pivot - 1.
		nsA := ns.Clone()
		nsA.G.AddLEA(pv, bp.V, bp.C-pc)
		nsB := ns.Clone()
		nsB.G.AddLEA(bp.V, pv, pc-bp.C-1)
		emitted := len(e.succs)
		if nsA.G.Consistent() {
			e.branchSetDepth(nsA, nsA.Set(ps.ID), depth-1)
		} else {
			nsA.Release()
		}
		if nsB.G.Consistent() {
			e.branchSetDepth(nsB, nsB.Set(ps.ID), depth-1)
		} else {
			nsB.Release()
		}
		if len(e.succs) > emitted {
			return true
		}
	}
	return false
}

// applyIDSplit distributes the yes/no sub-ranges of an id-dependent branch
// over the true/false successors, dropping provably empty pieces.
func (e *engine) applyIDSplit(ns *State, ps *ProcSet, yes, no []procset.Set, tN, fN *cfg.Node) {
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
		e.emit(ns, "empty-split")
		return
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
	e.emit(ns, e.nodeDesc(ps.Node)+"-idsplit")
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
func (e *engine) issueSendStep(st *State, id int) {
	ns := st.Clone()
	ps := ns.Set(id)
	node := ps.Node
	if ns.IssueSend(ps, node) {
		advance(ps)
		e.normalize(ns)
		e.emit(ns, fmt.Sprintf("issue n%d", node.ID))
		return
	}
	ps.Blocked = true
	e.normalize(ns)
	e.emit(ns, fmt.Sprintf("block n%d", node.ID))
}

// tryPendingMatches satisfies a blocked receive from an in-flight pending
// send, respecting per-channel FIFO order conservatively.
func (e *engine) tryPendingMatches(st *State, key string) bool {
	if len(st.Pending) == 0 {
		return false
	}
	for _, r := range st.Sets {
		if !r.Blocked || r.Node.Kind != cfg.Recv {
			continue
		}
		src, ok := st.AffineID(r, r.Node.Src)
		if !ok {
			continue
		}
		for idx := range st.Pending {
			pm, ok := st.MatchPending(r, src, idx)
			if !ok || e.fifoConflict(st, idx, pm) {
				continue
			}
			ns := st.Clone()
			// Release the matched receivers; leftover pieces stay blocked.
			nr := e.applyPlanSide(ns, ns.Set(r.ID), pm.RecvMatched, pm.RecvRests)
			recvNode := nr.Node
			ns.ReplacePending(idx, pm.PendingRests)
			// Value propagation from the frozen payload.
			rv := pvAtom(nr.ID, recvNode.RecvName)
			ns.invalidateVar(rv)
			ns.G.ForgetA(rv)
			if pm.Pending.ValOK {
				if v := procset.AtomOf(pm.Pending.Val); v.IsVarPlus() {
					ns.G.AddEqA(rv, v.V, v.C)
				}
			}
			// Pending delivery needs no Matcher call: a zero-length match
			// event charged to the pending send's node.
			e.mark(obs.PhaseMatch, pm.Pending.Node, key, "matched")
			ns.AddMatch(pm.Pending.Node, recvNode.ID, pm.SendersMatched, pm.RecvMatched)
			advance(nr)
			e.normalize(ns)
			e.emit(ns, fmt.Sprintf("pending-match n%d->n%d", pm.Pending.Node, recvNode.ID))
			return true
		}
	}
	return false
}

// fifoConflict reports whether delivering pending record idx to the matched
// receivers could violate FIFO order: an earlier pending record must not
// possibly carry a message on any of the same (sender, receiver) channels.
func (e *engine) fifoConflict(st *State, idx int, pm *PendingMatch) bool {
	ctx := st.Ctx()
	for i := 0; i < idx; i++ {
		q := st.Pending[i]
		qd := q.DestRange(ctx.Memo)
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
func (e *engine) tryMatches(st *State, key string) bool {
	for _, sender := range st.Sets {
		if !sender.Blocked || sender.Node.Kind != cfg.Send {
			continue
		}
		for _, receiver := range st.Sets {
			if receiver == sender || !receiver.Blocked || receiver.Node.Kind != cfg.Recv {
				continue
			}
			if e.applyPairMatch(st, sender, receiver, key) {
				return true
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
			if e.applySendRecvPair(st, a, b, key) {
				return true
			}
		}
	}
	return false
}

// applyPairMatch matches sender's send against receiver's recv, both sets
// of st, and applies the plan to a clone of st.
func (e *engine) applyPairMatch(st *State, sender, receiver *ProcSet, key string) bool {
	mc := e.beginMatch(key)
	plan, ok := e.opts.Matcher.Match(st, sender, sender.Node.Dest, receiver, receiver.Node.Src)
	e.endMatch(mc, sender.Node.ID, ok)
	if !ok {
		return false
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
	e.emit(ns, action)
	return true
}

// applySendRecvPair matches two sets of st blocked on sendrecv against each
// other in both directions; both directions must agree on whole-set
// matches. The plans apply to a clone of st.
func (e *engine) applySendRecvPair(st *State, a, b *ProcSet, key string) bool {
	mc := e.beginMatch(key)
	planAB, ok := e.opts.Matcher.Match(st, a, a.Node.Dest, b, b.Node.Src)
	e.endMatch(mc, a.Node.ID, ok)
	if !ok || len(planAB.SenderRests) > 0 || len(planAB.RecvRests) > 0 {
		return false
	}
	mc = e.beginMatch(key)
	planBA, ok := e.opts.Matcher.Match(st, b, b.Node.Dest, a, a.Node.Src)
	e.endMatch(mc, b.Node.ID, ok)
	if !ok || len(planBA.SenderRests) > 0 || len(planBA.RecvRests) > 0 {
		return false
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
	e.emit(ns, fmt.Sprintf("exchange n%d<->n%d", aNode.ID, bNode.ID))
	return true
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
	f, ok := ns.affineAt(sender, senderRange, value)
	if !ok {
		return
	}
	if w, c, okd := f.VarPlus(); okd {
		ns.G.AddEqA(rv, w, c)
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
func (e *engine) trySelfMatches(st *State, key string) bool {
	for _, ps := range st.Sets {
		if !ps.Blocked {
			continue
		}
		switch ps.Node.Kind {
		case cfg.SendRecv:
			mc := e.beginMatch(key)
			ok := e.opts.Matcher.SelfMatch(st, ps, ps.Node.Dest, ps.Node.Src)
			e.endMatch(mc, ps.Node.ID, ok)
			if ok {
				ns := st.Clone()
				nps := ns.Set(ps.ID)
				e.propagateValue(ns, nps, nps.Range, ps.Node.Value, nps, ps.Node.RecvName)
				ns.AddMatch(ps.Node.ID, ps.Node.ID, nps.Range, nps.Range)
				advance(nps)
				e.normalize(ns)
				e.emit(ns, fmt.Sprintf("self-exchange n%d", ps.Node.ID))
				return true
			}
		case cfg.Send:
			// Find the next comm node along a straight-line path.
			recvNode, inter := straightLineRecv(ps.Node)
			if recvNode == nil {
				continue
			}
			mc := e.beginMatch(key)
			ok := e.opts.Matcher.SelfMatch(st, ps, ps.Node.Dest, recvNode.Src)
			e.endMatch(mc, ps.Node.ID, ok)
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
			e.emit(ns, fmt.Sprintf("self-match n%d->n%d", sendNode.ID, recvNode.ID))
			return true
		}
	}
	return false
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
func (e *engine) tryEmptinessSplit(st *State, depth int, key string) bool {
	if depth <= 0 {
		return false
	}
	ctx := st.Ctx()
	for _, ps := range st.Sets {
		if !ps.Blocked {
			continue
		}
		if ps.Range.Empty(ctx) != tri.Unknown {
			continue
		}
		lb, ub := ps.Range.LB.Primary(), ps.Range.UB.Primary()
		if !lb.IsVarPlus() || !ub.IsVarPlus() {
			continue
		}
		// Branch A: the set is empty (lb > ub) and disappears.
		emptySt := st.Clone()
		emptySt.G.AddLEA(ub.V, lb.V, lb.C-ub.C-1) // ub <= lb - 1
		emptySt.RemoveSet(ps.ID)
		e.normalize(emptySt)
		// Branch B: non-empty (lb <= ub); continue stepping inline.
		nonEmpty := st.Clone()
		nonEmpty.G.AddLEA(lb.V, ub.V, ub.C-lb.C)
		e.normalize(nonEmpty)
		e.emit(emptySt, fmt.Sprintf("assume %s empty", ps.Range))
		e.stepBlocked(nonEmpty, depth-1, key)
		// stepBlocked clones for every successor it emits; the inline
		// continuation state itself is dead.
		nonEmpty.Release()
		return true
	}
	return false
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
	// Pending-send records fragment a configuration as process sets do, so
	// both count against the limit: without them a non-blocking run can
	// mint a new configuration on nearly every step until the step budget.
	if len(st.Sets) > 0 && len(st.Sets)+len(st.Pending) > e.opts.maxSets() {
		why := fmt.Sprintf("configuration fragmented into %d process sets (limit %d)", len(st.Sets), e.opts.maxSets())
		if len(st.Pending) > 0 {
			why = fmt.Sprintf("configuration fragmented into %d process sets and %d pending sends (limit %d)", len(st.Sets), len(st.Pending), e.opts.maxSets())
		}
		st.MarkTopAt(st.Sets[0].Node, why)
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
