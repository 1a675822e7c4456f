// Package obs is the engine observability layer: a span tracer for the
// fixpoint engine's phases, whose bounded ring mode is the engine's flight
// recorder; a progress tracker whose snapshot backs both /statusz and the
// Prometheus text renderer; exporters for JSONL and the Chrome trace-event
// format (loadable in Perfetto); and a trace summarizer that turns a
// recorded run into per-phase and per-configuration cost tables.
//
// The tracer is nil-safe and compiles to near-zero cost when disabled: a
// nil *Tracer's Begin returns the zero Span, End on the zero Span is a
// no-op, and neither allocates (BenchmarkTracerDisabled asserts 0
// allocs/op). Tracing only observes — it never influences engine
// decisions — so analyses produce byte-identical results with tracing on
// and off.
package obs

import (
	"bytes"
	"io"
	"sync"
	"sync/atomic"
	"time"
)

// Phase identifies one instrumented engine phase. The taxonomy follows the
// paper's Fig 4 framework loop: configurations are dequeued, stepped
// (transfer, send-receive matching, emptiness splits), and their successors
// merged back into the table (join/widen); deferred give-ups commit at
// convergence, and the HSM prover's heuristic search is attributed
// separately, on its own lane. The attributed phases (Attributed) carry the
// CFG node an event is charged to.
type Phase uint8

// Instrumented phases.
const (
	// PhaseDequeue is time the fixpoint loop spends popping the worklist.
	PhaseDequeue Phase = iota
	// PhaseStep covers one whole propagate step of a configuration:
	// transfer, matching or split, then the commit of its successors; the
	// sub-phases nest inside it. Its node is the stepped set's (the first
	// blocked set's for a matching step), its count the successors the
	// step spawned.
	PhaseStep
	// PhaseTransfer is the client transfer function: advancing an unblocked
	// process set through a sequential node (including normalization).
	PhaseTransfer
	// PhaseMatch is one client matcher call (Match or SelfMatch), or a
	// zero-length delivery of a pending send, which needs no call. Its
	// node is the sending set's, its count the call's match-memo misses,
	// and its detail "matched" when the call produced a plan.
	PhaseMatch
	// PhaseSplit is the emptiness case-split on possibly-empty blocked sets
	// (splitPSet).
	PhaseSplit
	// PhaseInsert is interning a step successor's shape key, ahead of its
	// commit.
	PhaseInsert
	// PhaseJoin is combining an incoming state with a table entry on the
	// join side of the join→widen ladder. Its node is the entry's smallest
	// non-exit set node.
	PhaseJoin
	// PhaseWiden is the same combine after the ladder switched to widening.
	PhaseWiden
	// PhaseCommit is merging one step successor into the configuration
	// table: creating or revising its entry. Join and widen spans nest
	// inside it.
	PhaseCommit
	// PhaseGiveupCommit is the deferred give-up commit at convergence
	// (commitStuckTops).
	PhaseGiveupCommit
	// PhaseFinish is the deterministic finish post-pass (classification,
	// sorting, match collection), with the give-up commit nested inside.
	PhaseFinish
	// PhaseProver is one HSM prover search (SeqEqual/SetEqual on a memo
	// miss), nested in the matcher call that asked for it. A retaining
	// tracer gets the searched terms as the key and the relation and the
	// rewrite states explored as the detail.
	PhaseProver
	// PhaseAnalyze is one whole analysis job (AnalyzeAll wraps each job in
	// an analyze span; everything else nests inside it).
	PhaseAnalyze
	// PhaseGiveup marks a configuration forced to ⊤, or the step budget
	// stopping the run: a zero-length event whose key is the configuration
	// and whose detail is the reason. Its node is the blamed one (-1 for
	// the step budget).
	PhaseGiveup
	// PhaseDump marks a dump of the retained events (stall watchdog or
	// step budget): a zero-length event whose detail is the reason.
	PhaseDump
	// PhaseCanon is key canonicalization: helper-parameter renaming and
	// shape keying of a step successor (nested in step), and set alignment,
	// identities and helper renaming of a revision (nested in commit).
	PhaseCanon
	// PhaseWidenFail marks a widening whose states had no common bound: a
	// zero-length event whose key and detail are the first old and new
	// bound expressions that failed, at the failing set's node (or the
	// failing match's send node).
	PhaseWidenFail
	// PhaseDemote marks a final configuration demoted to ⊤ because a match
	// witness went stale: a zero-length event at the match's send node,
	// whose detail is the reason.
	PhaseDemote
	// PhaseEnrich is expanding a state's bounds with their equality
	// witnesses ahead of a combine's range widening, and in parametric
	// widening's trials (nested in join or widen).
	PhaseEnrich

	numPhases = int(PhaseEnrich) + 1
)

var phaseNames = [numPhases]string{
	"dequeue", "step", "transfer", "match", "split", "insert",
	"join", "widen", "commit", "giveup-commit", "finish", "prover", "analyze",
	"giveup", "dump", "canon", "widen-fail", "demote", "enrich",
}

func (p Phase) String() string {
	if int(p) < numPhases {
		return phaseNames[p]
	}
	return "unknown"
}

// Attributed reports whether events of the phase carry a CFG node.
func (p Phase) Attributed() bool {
	switch p {
	case PhaseStep, PhaseMatch, PhaseJoin, PhaseWiden, PhaseGiveup, PhaseWidenFail, PhaseDemote:
		return true
	}
	return false
}

// PhaseFromName maps a phase name back to its enum (used by trace parsers);
// ok is false for names outside the taxonomy.
func PhaseFromName(name string) (Phase, bool) {
	for i, n := range phaseNames {
		if n == name {
			return Phase(i), true
		}
	}
	return 0, false
}

// ProverTid is the trace lane (Chrome trace tid) HSM prover spans are
// attributed to. A dedicated lane keeps the searches visible in Perfetto;
// engine-lane match spans already enclose the prover time, so summaries
// that tile engine lanes exclude lanes at or above ProverTid.
const ProverTid = 1000

// Event is one recorded span: a phase execution attributed to a trace lane
// (Pid = analysis job, Tid = engine lane or ProverTid).
type Event struct {
	Phase  Phase
	Pid    int
	Tid    int
	Start  time.Duration // offset from the tracer's epoch
	Dur    time.Duration
	Key    string // configuration shape key (or job name for analyze spans)
	Detail string // phase-specific annotation (e.g. prover rewrite counts)
	// Node is the CFG node an attributed phase's event is charged to (see
	// Phase.Attributed); -1 when there is none. Other phases leave it 0.
	Node int
	// N is the event's count: the successors a step spawned, the memo
	// misses of a matcher call.
	N int64
}

// End returns the event's end offset.
func (e *Event) End() time.Duration { return e.Start + e.Dur }

type phaseTotal struct {
	ns    atomic.Int64
	count atomic.Int64
}

// Tracer records phase spans. Safe for concurrent use: per-phase totals are
// atomic and retained events sit behind one mutex. The zero *Tracer (nil)
// is the disabled tracer: every method is a cheap no-op.
//
// A tracer keeps every event (NewTracer), none (NewAggregate), or only the
// most recent ones (NewRing): the flight recorder, cheap enough to stay
// armed for a whole run and dumped when something goes wrong. Phase totals
// count every event in every mode, and folds (Fold) see every event.
type Tracer struct {
	epoch  time.Time
	clock  func() time.Duration // test hook; defaults to time.Since(epoch)
	retain bool
	ring   int // with retain: the most events kept, 0 for all
	totals [numPhases]phaseTotal
	// folds is replaced, never appended to in place, so recording reads
	// it without the lock.
	folds atomic.Pointer[[]func(Event)]

	mu     sync.Mutex
	events []Event
	next   int // with ring: the slot the next event overwrites once full
}

// NewTracer returns a tracer that retains every span for export (full
// tracing mode, used by psdf -trace).
func NewTracer() *Tracer {
	t := &Tracer{epoch: time.Now(), retain: true}
	t.clock = func() time.Duration { return time.Since(t.epoch) }
	return t
}

// NewAggregate returns a tracer that accumulates per-phase totals only,
// without retaining events: constant memory, suitable for always-on phase
// timing (AnalyzeAll attaches one per job by default).
func NewAggregate() *Tracer {
	t := NewTracer()
	t.retain = false
	return t
}

// NewRing returns a tracer that retains only the most recent n events,
// evicting the oldest first (n <= 0 selects 4096; the floor is 16).
func NewRing(n int) *Tracer {
	if n <= 0 {
		n = 4096
	}
	t := NewTracer()
	t.ring = max(n, 16)
	return t
}

// Fold registers f to receive every event the tracer records from now on:
// how an observer (the source profiler) consumes the event stream in
// constant memory. f runs on the recording goroutine, so it must be cheap
// and, since several goroutines may record on one tracer (AnalyzeAll's
// jobs, the stall watchdog), guard its own state. Register folds before
// the analyses that record on the tracer start. No-op on a nil tracer.
func (t *Tracer) Fold(f func(Event)) {
	if t == nil {
		return
	}
	t.mu.Lock()
	var fs []func(Event)
	if old := t.folds.Load(); old != nil {
		fs = append(fs, *old...)
	}
	fs = append(fs, f)
	t.folds.Store(&fs)
	t.mu.Unlock()
}

// Retaining reports whether events are retained for export.
func (t *Tracer) Retaining() bool { return t != nil && t.retain }

// Observed reports whether anything reads recorded events beyond the phase
// totals: the tracer retains them or a fold consumes them. Guard keys and
// details that only such readers use behind it.
func (t *Tracer) Observed() bool { return t != nil && (t.retain || t.folds.Load() != nil) }

// Span is an in-flight phase measurement. It is a value type: the disabled
// path (nil tracer) passes a zero Span through Begin/End without touching
// the heap.
type Span struct {
	t     *Tracer
	start time.Duration
	phase Phase
	pid   int32
	tid   int32
	key   string
}

// Begin opens a span for phase on lane (pid, tid). On a nil tracer it
// returns the zero Span and performs no work.
func (t *Tracer) Begin(pid, tid int, phase Phase, key string) Span {
	if t == nil {
		return Span{}
	}
	return Span{t: t, start: t.clock(), phase: phase, pid: int32(pid), tid: int32(tid), key: key}
}

// WithKey returns s with its key replaced, for a span whose key is known
// only once the work inside it is done (interning a configuration's key).
func (s Span) WithKey(key string) Span {
	s.key = key
	return s
}

// End closes the span, recording its duration, and returns it. A zero Span
// returns 0 and does nothing.
func (s Span) End() time.Duration { return s.EndDetail("") }

// EndDetail closes the span with a phase-specific annotation. Build a
// detail string only for a tracer that reads it (Observed) — argument
// construction on the disabled path would allocate for nothing.
func (s Span) EndDetail(detail string) time.Duration { return s.EndAt(0, 0, detail) }

// EndAt closes the span of an attributed phase, charged to CFG node with
// count n (see Event).
func (s Span) EndAt(node int, n int64, detail string) time.Duration {
	if s.t == nil {
		return 0
	}
	dur := s.t.clock() - s.start
	if dur < 0 {
		dur = 0
	}
	s.t.record(Event{
		Phase: s.phase, Pid: int(s.pid), Tid: int(s.tid),
		Start: s.start, Dur: dur, Key: s.key, Detail: detail,
		Node: node, N: n,
	})
	return dur
}

// Mark records a zero-length event of phase on lane (pid, tid) now: a
// point in the run, such as a give-up or a dump, charged to CFG node when
// the phase is attributed. No-op on a nil tracer.
func (t *Tracer) Mark(pid, tid int, phase Phase, node int, key, detail string) {
	if t == nil {
		return
	}
	t.record(Event{Phase: phase, Pid: pid, Tid: tid, Start: t.clock(), Key: key, Detail: detail, Node: node})
}

// record adds ev to the phase totals and hands it to the folds and, when
// retaining, to the events.
func (t *Tracer) record(ev Event) {
	tot := &t.totals[ev.Phase]
	tot.ns.Add(int64(ev.Dur))
	tot.count.Add(1)
	if fs := t.folds.Load(); fs != nil {
		for _, f := range *fs {
			f(ev)
		}
	}
	if !t.retain {
		return
	}
	t.mu.Lock()
	if t.ring == 0 || len(t.events) < t.ring {
		t.events = append(t.events, ev)
	} else {
		t.events[t.next] = ev
		t.next = (t.next + 1) % t.ring
	}
	t.mu.Unlock()
}

// PhaseStat is the accumulated cost of one phase.
type PhaseStat struct {
	Count int64         `json:"count"`
	Total time.Duration `json:"total_ns"`
}

// PhaseTotals maps phase names to accumulated costs.
type PhaseTotals map[string]PhaseStat

// Totals snapshots the per-phase totals. Nil-safe (returns nil when
// disabled). Phases never begun are omitted.
func (t *Tracer) Totals() PhaseTotals {
	if t == nil {
		return nil
	}
	out := PhaseTotals{}
	for i := range t.totals {
		n, c := t.totals[i].ns.Load(), t.totals[i].count.Load()
		if c > 0 {
			out[Phase(i).String()] = PhaseStat{Count: c, Total: time.Duration(n)}
		}
	}
	return out
}

// Events snapshots every retained span, sorted by (Pid, Tid, Start) with
// longer spans first on ties so parents precede their children. Nil-safe.
func (t *Tracer) Events() []Event {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	out := append([]Event(nil), t.events...)
	t.mu.Unlock()
	SortEvents(out)
	return out
}

// Dump writes the retained events of every tracer as JSON lines
// (WriteJSONL's format, which ReadJSONL and `psdf trace` read) in a single
// w.Write call, so dumps from concurrent analyses that share one file stay
// line-atomic. Dumping does not drain the tracers; nil tracers add
// nothing.
func Dump(w io.Writer, tracers ...*Tracer) error {
	var evs []Event
	for _, t := range tracers {
		evs = append(evs, t.Events()...)
	}
	var b bytes.Buffer
	if err := WriteJSONL(&b, evs); err != nil {
		return err
	}
	_, err := w.Write(b.Bytes())
	return err
}
