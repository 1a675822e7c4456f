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
// separately, on its own lane.
type Phase uint8

// Instrumented phases.
const (
	// PhaseDequeue is time the fixpoint loop spends popping the worklist.
	PhaseDequeue Phase = iota
	// PhaseStep covers one whole propagate step of a configuration
	// (snapshot + transfer/match/split); the sub-phases nest inside it.
	PhaseStep
	// PhaseTransfer is the client transfer function: advancing an unblocked
	// process set through a sequential node (including normalization).
	PhaseTransfer
	// PhaseMatch is send-receive matching: pending-send matches, pairwise
	// matches and whole-set self-matches (matchSendsRecvs).
	PhaseMatch
	// PhaseSplit is the emptiness case-split on possibly-empty blocked sets
	// (splitPSet).
	PhaseSplit
	// PhaseInsert is interning a step successor's shape key, ahead of its
	// commit.
	PhaseInsert
	// PhaseJoin is combining an incoming state with a table entry on the
	// join side of the join→widen ladder.
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
	// miss); the span detail records the rewrite steps explored.
	PhaseProver
	// PhaseAnalyze is one whole analysis job (AnalyzeAll wraps each job in
	// an analyze span; everything else nests inside it).
	PhaseAnalyze
	// PhaseGiveup marks a configuration forced to ⊤, or the step budget
	// stopping the run: a zero-length event whose key is the configuration
	// and whose detail is the reason.
	PhaseGiveup
	// PhaseDump marks a dump of the retained events (stall watchdog or
	// step budget): a zero-length event whose detail is the reason.
	PhaseDump
	// PhaseCanon is key canonicalization: helper-parameter renaming and
	// shape keying of a step successor (nested in step), and set alignment,
	// identities and helper renaming of a revision (nested in commit).
	PhaseCanon

	numPhases = int(PhaseCanon) + 1
)

var phaseNames = [numPhases]string{
	"dequeue", "step", "transfer", "match", "split", "insert",
	"join", "widen", "commit", "giveup-commit", "finish", "prover", "analyze",
	"giveup", "dump", "canon",
}

func (p Phase) String() string {
	if int(p) < numPhases {
		return phaseNames[p]
	}
	return "unknown"
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
// count every event in every mode.
type Tracer struct {
	epoch  time.Time
	clock  func() time.Duration // test hook; defaults to time.Since(epoch)
	retain bool
	ring   int // with retain: the most events kept, 0 for all
	totals [numPhases]phaseTotal

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

// Enabled reports whether the tracer records anything. Guard span-argument
// construction (key rendering, fmt) behind it so the disabled path stays
// allocation-free.
func (t *Tracer) Enabled() bool { return t != nil }

// Retaining reports whether events are retained for export.
func (t *Tracer) Retaining() bool { return t != nil && t.retain }

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

// End closes the span, recording its duration, and returns it. A zero Span
// returns 0 and does nothing.
func (s Span) End() time.Duration { return s.EndDetail("") }

// EndDetail closes the span with a phase-specific annotation. Build the
// detail string only when the tracer is Enabled — argument construction on
// the disabled path would allocate for nothing.
func (s Span) EndDetail(detail string) time.Duration {
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
	})
	return dur
}

// Mark records a zero-length event of phase on lane (pid, tid) now: a
// point in the run, such as a give-up or a dump. No-op on a nil tracer.
func (t *Tracer) Mark(pid, tid int, phase Phase, key, detail string) {
	if t == nil {
		return
	}
	t.record(Event{Phase: phase, Pid: pid, Tid: tid, Start: t.clock(), Key: key, Detail: detail})
}

// record adds ev to the phase totals and, when retaining, to the events.
func (t *Tracer) record(ev Event) {
	tot := &t.totals[ev.Phase]
	tot.ns.Add(int64(ev.Dur))
	tot.count.Add(1)
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

// EventCount reports the number of retained spans. Nil-safe.
func (t *Tracer) EventCount() int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.events)
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
