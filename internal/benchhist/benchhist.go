// Package benchhist is the longitudinal regression observability layer: an
// append-only JSONL history of benchmark runs (BENCH_HISTORY.jsonl), where
// each entry anchors multi-sample per-spec timings and per-workload
// precision fingerprints to a commit SHA and a host fingerprint. On top of
// the store sit a benchstat-style statistical comparator (Mann–Whitney U
// over the timing samples, exact field equality over the fingerprints) and
// the CI gate that turns a comparison into an exit code.
//
// The precision fingerprint exists because the paper's evaluation (Section
// IX) is as much about what the analysis *proves* as about how fast it
// runs: a change that keeps every test green but silently widens earlier,
// gives up on a configuration, or stops using the HSM caches is a
// regression this layer must surface next to any slowdown.
package benchhist

import (
	"fmt"
	"math"
	"sort"
	"time"

	"repro/internal/obs"
)

// SchemaVersion is the history-entry schema this build reads and writes.
// Readers reject entries carrying any other version rather than guessing at
// field semantics; bump it on any incompatible field change and document
// the new layout in EXPERIMENTS.md.
const SchemaVersion = 1

// Host fingerprints the machine a run was recorded on. Timing comparisons
// across differing hosts are still rendered, but the CI gate downgrades
// them to warnings — wall-clock deltas between different machines are not
// regressions.
type Host struct {
	OS        string `json:"os"`
	Arch      string `json:"arch"`
	CPUs      int    `json:"cpus"`
	GoVersion string `json:"go_version"`
}

// Same reports whether two host fingerprints describe comparable machines.
func (h Host) Same(o Host) bool { return h == o }

func (h Host) String() string {
	return fmt.Sprintf("%s/%s %dcpu %s", h.OS, h.Arch, h.CPUs, h.GoVersion)
}

// SpecTiming is the multi-sample timing record of one experiment spec: the
// raw wall-clock samples plus derived summary statistics, and the obs phase
// breakdown from the final sample.
type SpecTiming struct {
	Title string `json:"title,omitempty"`
	// WallNs holds the raw per-sample wall times, in recording order. The
	// comparator runs on these; the derived fields below are stored for
	// human and script consumption.
	WallNs   []int64 `json:"wall_ns"`
	MeanNs   int64   `json:"mean_ns"`
	MedianNs int64   `json:"median_ns"`
	StddevNs int64   `json:"stddev_ns"`
	MinNs    int64   `json:"min_ns"`
	MaxNs    int64   `json:"max_ns"`
	// Phases is the engine phase breakdown (obs aggregate tracer totals)
	// captured by the final sample.
	Phases obs.PhaseTotals `json:"phases,omitempty"`
	// AllocsPerOp and BytesPerOp are the mean heap allocations and
	// allocated bytes per repetition, from runtime.MemStats deltas taken
	// around each sample when the record ran serially (parallelism 1 —
	// process-global deltas are meaningless with specs in flight
	// concurrently). Zero means "not captured": older entries predate the
	// fields and parallel records skip them, and since absent JSON fields
	// read back as zero with exactly that meaning, the schema stays at
	// version 1.
	AllocsPerOp int64 `json:"allocs_per_op,omitempty"`
	BytesPerOp  int64 `json:"bytes_per_op,omitempty"`
}

// HasAllocs reports whether this timing carries allocation measurements.
func (st *SpecTiming) HasAllocs() bool { return st != nil && st.AllocsPerOp > 0 }

// NewSpecTiming derives the summary statistics from raw samples.
func NewSpecTiming(title string, wallNs []int64, phases obs.PhaseTotals) *SpecTiming {
	st := &SpecTiming{Title: title, WallNs: wallNs, Phases: phases}
	if len(wallNs) == 0 {
		return st
	}
	sorted := append([]int64(nil), wallNs...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
	st.MinNs, st.MaxNs = sorted[0], sorted[len(sorted)-1]
	st.MedianNs = median(sorted)
	var sum float64
	for _, v := range wallNs {
		sum += float64(v)
	}
	mean := sum / float64(len(wallNs))
	st.MeanNs = int64(mean)
	if len(wallNs) > 1 {
		var ss float64
		for _, v := range wallNs {
			d := float64(v) - mean
			ss += d * d
		}
		st.StddevNs = int64(math.Sqrt(ss / float64(len(wallNs)-1)))
	}
	return st
}

// median of a sorted slice (even lengths average the middle pair).
func median(sorted []int64) int64 {
	n := len(sorted)
	if n == 0 {
		return 0
	}
	if n%2 == 1 {
		return sorted[n/2]
	}
	return (sorted[n/2-1] + sorted[n/2]) / 2
}

// Fingerprint is the precision fingerprint of one workload: every
// deterministic count that changes when the analysis proves more, proves
// less, or proves the same things a different way. Two runs of the same
// code on the same workload produce identical fingerprints (the sequential
// engine is deterministic), so any field delta is a real behavioral change,
// not noise — which is why the CI gate hard-fails on it while timings only
// warn.
type Fingerprint struct {
	// Core result shape.
	Matches   int    `json:"matches"`   // topology edges
	Finals    int    `json:"finals"`    // clean terminal configurations
	Tops      int    `json:"tops"`      // ⊤ (give-up) configurations
	Configs   int    `json:"configs"`   // distinct pCFG nodes explored
	Steps     int    `json:"steps"`     // propagate invocations
	Widenings int    `json:"widenings"` // widening applications
	Topology  string `json:"topology"`  // canonical match summary

	// Match verdict provenance (cartesian client).
	SimpleMatches int `json:"simple_matches"` // Section VII var+c matches
	HSMAttempts   int `json:"hsm_attempts"`
	HSMMatches    int `json:"hsm_matches"` // matches needing HSM proofs

	// Cache behavior: a disabled or broken cache path shows up here even
	// when the proved topology is unchanged.
	MemoHits        int `json:"memo_hits"`
	MemoMisses      int `json:"memo_misses"`
	ProverCacheHits int `json:"prover_cache_hits"`
	ProverProofs    int `json:"prover_proofs"`

	// Lint outcome: findings per diagnostic code plus the rank-bounds
	// verdict summary.
	LintFindings  map[string]int `json:"lint_findings,omitempty"`
	BoundsProven  int            `json:"bounds_proven"`
	BoundsByMatch int            `json:"bounds_proven_by_match"`
	BoundsViol    int            `json:"bounds_violated"`
	BoundsUnknown int            `json:"bounds_unknown"`
	BoundsNonAff  int            `json:"bounds_non_affine"`
}

// MemoHitRate derives the match-memo hit rate in [0,1].
func (f *Fingerprint) MemoHitRate() float64 {
	if f.MemoHits+f.MemoMisses == 0 {
		return 0
	}
	return float64(f.MemoHits) / float64(f.MemoHits+f.MemoMisses)
}

// field is one comparable fingerprint facet.
type field struct {
	name string
	val  string
}

// fields flattens the fingerprint into an ordered (name, value) list so
// Equal and DiffFields stay in lockstep with the struct.
func (f *Fingerprint) fields() []field {
	out := []field{
		{"matches", fmt.Sprint(f.Matches)},
		{"finals", fmt.Sprint(f.Finals)},
		{"tops", fmt.Sprint(f.Tops)},
		{"configs", fmt.Sprint(f.Configs)},
		{"steps", fmt.Sprint(f.Steps)},
		{"widenings", fmt.Sprint(f.Widenings)},
		{"topology", f.Topology},
		{"simple_matches", fmt.Sprint(f.SimpleMatches)},
		{"hsm_attempts", fmt.Sprint(f.HSMAttempts)},
		{"hsm_matches", fmt.Sprint(f.HSMMatches)},
		{"memo_hits", fmt.Sprint(f.MemoHits)},
		{"memo_misses", fmt.Sprint(f.MemoMisses)},
		{"prover_cache_hits", fmt.Sprint(f.ProverCacheHits)},
		{"prover_proofs", fmt.Sprint(f.ProverProofs)},
		{"bounds_proven", fmt.Sprint(f.BoundsProven)},
		{"bounds_proven_by_match", fmt.Sprint(f.BoundsByMatch)},
		{"bounds_violated", fmt.Sprint(f.BoundsViol)},
		{"bounds_unknown", fmt.Sprint(f.BoundsUnknown)},
		{"bounds_non_affine", fmt.Sprint(f.BoundsNonAff)},
	}
	codes := make([]string, 0, len(f.LintFindings))
	for c := range f.LintFindings {
		codes = append(codes, c)
	}
	sort.Strings(codes)
	for _, c := range codes {
		out = append(out, field{"lint[" + c + "]", fmt.Sprint(f.LintFindings[c])})
	}
	return out
}

// Equal reports whether two fingerprints are identical in every facet.
func (f *Fingerprint) Equal(g *Fingerprint) bool {
	return len(f.DiffFields(g)) == 0
}

// DiffFields returns a human-readable "name: old -> new" line per facet
// that differs between f (old) and g (new). Lint codes present on only one
// side diff against an implicit 0.
func (f *Fingerprint) DiffFields(g *Fingerprint) []string {
	fa, ga := f.fields(), g.fields()
	av := map[string]string{}
	var order []string
	for _, fd := range fa {
		av[fd.name] = fd.val
		order = append(order, fd.name)
	}
	seen := map[string]bool{}
	var diffs []string
	for _, gd := range ga {
		seen[gd.name] = true
		old, ok := av[gd.name]
		if !ok {
			old = "0"
		}
		if old != gd.val {
			diffs = append(diffs, fmt.Sprintf("%s: %s -> %s", gd.name, old, gd.val))
		}
	}
	for _, name := range order {
		if !seen[name] {
			diffs = append(diffs, fmt.Sprintf("%s: %s -> 0", name, av[name]))
		}
	}
	return diffs
}

// FuzzSweep summarizes one differential-fuzz sweep (`psdf fuzz`): the
// fixed generation seed, the program count, and how many programs landed
// in each divergence class. Soundness divergences are CI-fatal before an
// entry is ever recorded, so in practice the longitudinal signal
// here is the precision-loss rate: a PR that makes the analysis give up
// (⊤) or report spurious edges on more generated programs moves Precision
// up even when every curated fingerprint is unchanged.
type FuzzSweep struct {
	Seed      int64 `json:"seed"`
	Programs  int   `json:"programs"`
	OK        int   `json:"ok"`
	Skipped   int   `json:"skipped,omitempty"`
	Precision int   `json:"precision"`
	Errors    int   `json:"errors"`
	Soundness int   `json:"soundness"`
	// Constructs is the ranked per-construct precision attribution the
	// sweep captured (`psdf fuzz -profile-out`): which generated source
	// construct the profiled widening failures and give-ups blame. Nil on
	// sweeps run without attribution, with exactly that meaning, so the
	// schema stays at version 1.
	Constructs []FuzzConstruct `json:"constructs,omitempty"`
}

// FuzzConstruct is one attribution row: a generator phase family (or
// "decor" for inter-phase decoration lines) with the precision losses the
// profiler blamed on its statements across the sweep.
type FuzzConstruct struct {
	Construct     string `json:"construct"`
	Programs      int    `json:"programs,omitempty"`
	WidenFailures int64  `json:"widen_failures,omitempty"`
	GiveUps       int64  `json:"give_ups,omitempty"`
	TopDemotions  int64  `json:"top_demotions,omitempty"`
	// TopPair is the most frequent failing bound-expression pair.
	TopPair string `json:"top_pair,omitempty"`
}

// PrecisionRate is the fraction of triaged (non-skipped) programs that
// diverged as precision losses, in [0,1].
func (fz *FuzzSweep) PrecisionRate() float64 {
	triaged := fz.Programs - fz.Skipped
	if triaged <= 0 {
		return 0
	}
	return float64(fz.Precision) / float64(triaged)
}

// Entry is one recorded benchmark run: everything needed to compare it
// against any other entry later — commit anchoring, host fingerprint,
// per-spec timing samples, and per-workload precision fingerprints. One
// entry is one JSONL line in BENCH_HISTORY.jsonl.
type Entry struct {
	SchemaVersion int       `json:"schema_version"`
	Commit        string    `json:"commit"`
	Time          time.Time `json:"time"`
	Note          string    `json:"note,omitempty"`
	Host          Host      `json:"host"`
	// Samples is the repetition count the per-spec WallNs slices were
	// recorded with.
	Samples      int                     `json:"samples"`
	Specs        map[string]*SpecTiming  `json:"specs"`
	Fingerprints map[string]*Fingerprint `json:"fingerprints"`
	// Fuzz holds the differential-fuzz sweep summary when the record
	// attached one (-fuzz-summary). Nil on entries recorded without a
	// sweep, with exactly that meaning, so the schema stays at version 1.
	Fuzz *FuzzSweep `json:"fuzz,omitempty"`
}

// ShortCommit renders the entry's commit for tables.
func (e *Entry) ShortCommit() string {
	if len(e.Commit) > 12 {
		return e.Commit[:12]
	}
	if e.Commit == "" {
		return "(unknown)"
	}
	return e.Commit
}
