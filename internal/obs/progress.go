package obs

// Live analysis progress. Each running analysis registers a sampling
// closure with a ProgressTracker; the HTTP layer (and anything else that
// wants a heartbeat) asks the tracker for a Snapshot, which samples every
// live analysis at that instant and merges in the final snapshots of
// finished ones. The engines keep the sampled state in atomics or behind
// short-lived shard locks, so sampling never blocks the fixpoint for more
// than a queue-size read.

import (
	"encoding/json"
	"io"
	"sort"
	"sync"
	"time"
)

// Progress is one analysis's point-in-time progress snapshot: the /statusz
// JSON schema (DESIGN.md §14).
type Progress struct {
	// Job is the analysis's TracePID; Name its workload label.
	Job  int    `json:"job"`
	Name string `json:"name,omitempty"`
	// Workers is the configured worker count.
	Workers int `json:"workers,omitempty"`
	// Done marks a final snapshot: the analysis has converged and the
	// counters are its end-of-run totals.
	Done bool `json:"done"`
	// Steps counts propagate invocations (configurations visited,
	// counting revisits); Configs counts distinct configuration shapes.
	Steps   int64 `json:"steps"`
	Configs int64 `json:"configs"`
	// Pending counts configurations queued or running; Queued counts
	// configurations sitting in run queues right now. ShardQueued is the
	// per-shard queue breakdown.
	Pending     int64 `json:"pending"`
	Queued      int64 `json:"queued"`
	ShardQueued []int `json:"shard_queued,omitempty"`
	// Ladder counters: joins (graph joins), widenings (state-changing
	// revisions past the join rung) and give-ups (entries forced to ⊤).
	Joins     int64 `json:"joins"`
	Widenings int64 `json:"widenings"`
	GiveUps   int64 `json:"give_ups"`
	// Match-memo decision cache.
	MemoHits    int64   `json:"memo_hits"`
	MemoMisses  int64   `json:"memo_misses"`
	MemoHitRate float64 `json:"memo_hit_rate"`
	// Prover lane: memo-missing HSM searches and their cumulative wall
	// time (populated when the client matcher exposes prover counters;
	// zero otherwise).
	ProverSearches int64 `json:"prover_searches"`
	ProverNs       int64 `json:"prover_ns"`
	// Scheduler behavior: cross-shard steals and coalesced revisits.
	Steals    int64 `json:"sched_steals"`
	Coalesced int64 `json:"sched_coalesced"`
	// ElapsedNs is time since the analysis started (or its total wall
	// time once Done).
	ElapsedNs int64 `json:"elapsed_ns"`
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
