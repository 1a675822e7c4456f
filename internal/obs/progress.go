package obs

// Live analysis progress. Each running analysis registers a sampling
// closure with a ProgressTracker; the HTTP layer (and anything else that
// wants a heartbeat) asks the tracker for a Snapshot, which samples every
// live analysis at that instant and merges in the final snapshots of
// finished ones. The engine keeps the sampled state in atomics or behind
// short-lived locks, so sampling never blocks the fixpoint. /statusz
// serves the snapshot as JSON and /metrics as Prometheus text.

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"strings"
	"sync"
	"time"
)

// Progress is one analysis's point-in-time progress snapshot: the /statusz
// JSON schema (DESIGN.md §14).
type Progress struct {
	// Job is the analysis's TracePID; Name its workload label.
	Job  int    `json:"job"`
	Name string `json:"name,omitempty"`
	// Done marks a final snapshot: the analysis has converged and the
	// counters are its end-of-run totals.
	Done bool `json:"done"`
	// Steps counts propagate invocations (configurations visited,
	// counting revisits); Configs counts distinct configuration shapes.
	Steps   int64 `json:"steps"`
	Configs int64 `json:"configs"`
	// Pending counts configurations queued or running; Queued counts
	// configurations sitting on the worklist right now.
	Pending int64 `json:"pending"`
	Queued  int64 `json:"queued"`
	// Ladder counters: joins (combines on the join rung), widenings
	// (state-changing revisions, join rung included, as Result.Widenings)
	// and give-ups (entries forced to ⊤).
	Joins     int64 `json:"joins"`
	Widenings int64 `json:"widenings"`
	GiveUps   int64 `json:"give_ups"`
	// Match-memo decision cache.
	MemoHits    int64   `json:"memo_hits"`
	MemoMisses  int64   `json:"memo_misses"`
	MemoHitRate float64 `json:"memo_hit_rate"`
	MemoEntries int64   `json:"memo_entries"`
	// Prover lane: memo-missing HSM searches and their cumulative wall
	// time (populated when the client matcher exposes prover counters;
	// zero otherwise).
	ProverSearches int64 `json:"prover_searches"`
	ProverNs       int64 `json:"prover_ns"`
	// Worklist pushes coalesced into an already-queued revisit.
	Coalesced int64 `json:"sched_coalesced"`
	// ElapsedNs is time since the analysis started (or its total wall
	// time once Done).
	ElapsedNs int64 `json:"elapsed_ns"`
	// Set in the final snapshot only: the result's terminal, give-up and
	// match counts, and the worklist's high-water marks of queued and
	// pending configurations.
	Finals     int64 `json:"finals"`
	Tops       int64 `json:"tops"`
	Matches    int64 `json:"matches"`
	QueuedMax  int64 `json:"sched_queue_depth_max"`
	PendingMax int64 `json:"sched_pending_max"`
	// CG holds the counters of the analysis's cg.Stats by name, when one
	// is attached.
	CG map[string]int64 `json:"cg,omitempty"`
}

// ProgressTracker multiplexes progress across concurrent analyses. All
// methods are nil-safe: a nil tracker registers nothing and samples empty.
type ProgressTracker struct {
	mu   sync.Mutex
	live map[int]func() Progress
	done map[int]Progress
}

// NewProgressTracker returns an empty tracker.
func NewProgressTracker() *ProgressTracker {
	return &ProgressTracker{live: map[int]func() Progress{}, done: map[int]Progress{}}
}

// Register installs the sampling closure for job. The closure must be safe
// to call from other goroutines until Finish(job) is called.
func (t *ProgressTracker) Register(job int, sample func() Progress) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.live[job] = sample
	delete(t.done, job)
	t.mu.Unlock()
}

// Finish replaces job's live sampler with its final snapshot.
func (t *ProgressTracker) Finish(job int, final Progress) {
	if t == nil {
		return
	}
	final.Done = true
	t.mu.Lock()
	delete(t.live, job)
	t.done[job] = final
	t.mu.Unlock()
}

// Snapshot samples every live analysis and merges the finished ones,
// sorted by job id. Nil-safe (returns nil).
func (t *ProgressTracker) Snapshot() []Progress {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make([]Progress, 0, len(t.live)+len(t.done))
	for _, sample := range t.live {
		out = append(out, sample())
	}
	for _, p := range t.done {
		out = append(out, p)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Job < out[j].Job })
	return out
}

// Statusz is the /statusz response envelope.
type Statusz struct {
	NowUnixNs int64      `json:"now_unix_ns"`
	Jobs      []Progress `json:"jobs"`
}

// WriteStatusz renders the tracker's current snapshot as /statusz JSON.
func (t *ProgressTracker) WriteStatusz(w io.Writer) error {
	s := Statusz{NowUnixNs: time.Now().UnixNano(), Jobs: t.Snapshot()}
	if s.Jobs == nil {
		s.Jobs = []Progress{}
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(s)
}

// promSeries lists the Progress fields /metrics exports, by family name.
// final marks the fields only a finished job's snapshot sets.
var promSeries = []struct {
	name, kind, labels, help string
	final                    bool
	value                    func(*Progress) int64
}{
	{"psdf_engine_configs", "gauge", "", "distinct pCFG configurations explored", false, func(p *Progress) int64 { return p.Configs }},
	{"psdf_engine_finals", "gauge", "", "terminal all-at-exit configurations", true, func(p *Progress) int64 { return p.Finals }},
	{"psdf_engine_matches", "gauge", "", "distinct send-receive matches in the topology", true, func(p *Progress) int64 { return p.Matches }},
	{"psdf_engine_steps_total", "counter", "", "propagate steps executed", false, func(p *Progress) int64 { return p.Steps }},
	{"psdf_engine_tops", "gauge", "", "give-up configurations in the result", true, func(p *Progress) int64 { return p.Tops }},
	{"psdf_engine_widenings_total", "counter", "", "widening events (table entry replaced by a wider state)", false, func(p *Progress) int64 { return p.Widenings }},
	{"psdf_match_memo_entries", "gauge", "", "match memo resident entries", false, func(p *Progress) int64 { return p.MemoEntries }},
	{"psdf_match_memo_total", "counter", `,result="hit"`, "match memo lookups", false, func(p *Progress) int64 { return p.MemoHits }},
	{"psdf_match_memo_total", "counter", `,result="miss"`, "match memo lookups", false, func(p *Progress) int64 { return p.MemoMisses }},
	{"psdf_sched_pending", "gauge", "", "configurations queued or running", false, func(p *Progress) int64 { return p.Pending }},
	{"psdf_sched_pending_max", "gauge", "", "worklist pending (queued or running) high-water mark", true, func(p *Progress) int64 { return p.PendingMax }},
	{"psdf_sched_queue_depth", "gauge", "", "configurations currently queued", false, func(p *Progress) int64 { return p.Queued }},
	{"psdf_sched_queue_depth_max", "gauge", "", "worklist queue depth high-water mark", true, func(p *Progress) int64 { return p.QueuedMax }},
}

// WritePrometheus renders the tracker's current snapshot in the Prometheus
// text exposition format: families sorted by name, one series per job
// labelled job="<id>" in job order. A job's CG counters render as
// psdf_cg_<name>_total. Nil-safe (writes nothing).
func (t *ProgressTracker) WritePrometheus(w io.Writer) error {
	type family struct {
		kind, help string
		lines      strings.Builder
	}
	fams := map[string]*family{}
	add := func(name, kind, help, labels string, v int64) {
		f := fams[name]
		if f == nil {
			f = &family{kind: kind, help: help}
			fams[name] = f
		}
		fmt.Fprintf(&f.lines, "%s{%s} %d\n", name, labels, v)
	}
	for _, p := range t.Snapshot() {
		job := fmt.Sprintf(`job="%d"`, p.Job)
		for _, s := range promSeries {
			if !s.final || p.Done {
				add(s.name, s.kind, s.help, job+s.labels, s.value(&p))
			}
		}
		for name, v := range p.CG {
			add("psdf_cg_"+name+"_total", "counter", "cg.Stats counter "+name, job, v)
		}
	}
	names := make([]string, 0, len(fams))
	for name := range fams {
		names = append(names, name)
	}
	sort.Strings(names)
	var b strings.Builder
	for _, name := range names {
		f := fams[name]
		fmt.Fprintf(&b, "# HELP %s %s\n# TYPE %s %s\n%s", name, f.help, name, f.kind, f.lines.String())
	}
	_, err := io.WriteString(w, b.String())
	return err
}
