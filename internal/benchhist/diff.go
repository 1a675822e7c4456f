package benchhist

import (
	"fmt"
	"sort"
	"strings"
	"time"
)

// Thresholds configures when a timing delta counts as a change. The
// defaults mirror benchstat: significance at p <= 0.05, and a minimum
// relative median movement so statistically-significant-but-tiny shifts on
// quiet machines do not flag.
type Thresholds struct {
	// Alpha is the Mann–Whitney p-value at or below which a timing delta
	// is considered statistically significant.
	Alpha float64
	// MinDelta is the minimum |relative median change| (e.g. 0.05 = 5%)
	// for a significant delta to be reported as faster/slower.
	MinDelta float64
	// MaxAllocDelta is the relative allocs-per-op growth past which a spec
	// counts as an allocation regression (0 selects the default 20%).
	// Allocation counts are near-deterministic — no Mann–Whitney needed —
	// so the threshold only absorbs GC-timing jitter in the MemStats
	// deltas, not sampling noise.
	MaxAllocDelta float64
}

// DefaultThresholds returns the standard gate configuration.
func DefaultThresholds() Thresholds {
	return Thresholds{Alpha: 0.05, MinDelta: 0.05, MaxAllocDelta: 0.20}
}

// Verdict classifies one spec's timing comparison.
type Verdict int

// Verdicts.
const (
	// VerdictNoChange: no statistically significant movement past the
	// thresholds.
	VerdictNoChange Verdict = iota
	// VerdictFaster: the new entry's median is significantly lower.
	VerdictFaster
	// VerdictSlower: the new entry's median is significantly higher.
	VerdictSlower
	// VerdictAdded: the spec exists only in the new entry.
	VerdictAdded
	// VerdictRemoved: the spec exists only in the old entry.
	VerdictRemoved
)

func (v Verdict) String() string {
	switch v {
	case VerdictNoChange:
		return "no change"
	case VerdictFaster:
		return "faster"
	case VerdictSlower:
		return "slower"
	case VerdictAdded:
		return "added"
	case VerdictRemoved:
		return "removed"
	}
	return fmt.Sprintf("verdict(%d)", int(v))
}

// SpecDiff is the timing comparison of one spec across two entries.
type SpecDiff struct {
	Spec     string
	Old, New *SpecTiming // nil when Added/Removed
	// P is the Mann–Whitney two-sided p-value over the raw samples.
	P float64
	// Delta is the relative median change, (new-old)/old.
	Delta   float64
	Verdict Verdict
	// AllocDelta is the relative allocs-per-op change, (new-old)/old;
	// valid only when HasAllocDelta (both entries carry allocation data).
	AllocDelta    float64
	HasAllocDelta bool
}

// FingerprintDiff is the precision comparison of one workload.
type FingerprintDiff struct {
	Workload string
	// Changed holds one "facet: old -> new" line per differing facet;
	// empty means the fingerprints are identical.
	Changed        []string
	Added, Removed bool
}

// PrecisionChanged reports whether this workload's fingerprint moved in any
// way (facet change, appearance, or disappearance).
func (d *FingerprintDiff) PrecisionChanged() bool {
	return len(d.Changed) > 0 || d.Added || d.Removed
}

// Report is a full statistical comparison of two history entries.
type Report struct {
	Old, New           *Entry
	OldIndex, NewIndex int
	Th                 Thresholds
	Specs              []SpecDiff        // sorted by spec id
	Fingerprints       []FingerprintDiff // sorted by workload, changed ones only unless KeepUnchanged
	// HostsDiffer notes that the two entries were recorded on different
	// host fingerprints, making timing verdicts advisory at best.
	HostsDiffer bool
}

// Diff statistically compares two history entries: Mann–Whitney over every
// spec's timing samples, exact facet equality over every workload's
// precision fingerprint.
func Diff(old, new *Entry, th Thresholds) *Report {
	if th.Alpha <= 0 {
		th = DefaultThresholds()
	}
	r := &Report{Old: old, New: new, Th: th, HostsDiffer: !old.Host.Same(new.Host)}

	ids := map[string]bool{}
	for id := range old.Specs {
		ids[id] = true
	}
	for id := range new.Specs {
		ids[id] = true
	}
	sorted := make([]string, 0, len(ids))
	for id := range ids {
		sorted = append(sorted, id)
	}
	sort.Strings(sorted)
	for _, id := range sorted {
		o, n := old.Specs[id], new.Specs[id]
		d := SpecDiff{Spec: id, Old: o, New: n, P: 1}
		switch {
		case o == nil:
			d.Verdict = VerdictAdded
		case n == nil:
			d.Verdict = VerdictRemoved
		default:
			d.P = MannWhitneyU(toFloats(o.WallNs), toFloats(n.WallNs))
			if o.MedianNs > 0 {
				d.Delta = float64(n.MedianNs-o.MedianNs) / float64(o.MedianNs)
			}
			if d.P <= th.Alpha && abs(d.Delta) >= th.MinDelta {
				if d.Delta < 0 {
					d.Verdict = VerdictFaster
				} else {
					d.Verdict = VerdictSlower
				}
			}
			if o.HasAllocs() && n.HasAllocs() {
				d.AllocDelta = float64(n.AllocsPerOp-o.AllocsPerOp) / float64(o.AllocsPerOp)
				d.HasAllocDelta = true
			}
		}
		r.Specs = append(r.Specs, d)
	}

	names := map[string]bool{}
	for n := range old.Fingerprints {
		names[n] = true
	}
	for n := range new.Fingerprints {
		names[n] = true
	}
	wls := make([]string, 0, len(names))
	for n := range names {
		wls = append(wls, n)
	}
	sort.Strings(wls)
	for _, w := range wls {
		o, n := old.Fingerprints[w], new.Fingerprints[w]
		fd := FingerprintDiff{Workload: w}
		switch {
		case o == nil:
			fd.Added = true
		case n == nil:
			fd.Removed = true
		default:
			fd.Changed = o.DiffFields(n)
		}
		r.Fingerprints = append(r.Fingerprints, fd)
	}
	return r
}

// PrecisionChanged reports whether any workload's precision fingerprint
// moved.
func (r *Report) PrecisionChanged() bool {
	for i := range r.Fingerprints {
		if r.Fingerprints[i].PrecisionChanged() {
			return true
		}
	}
	return false
}

// GatePolicy selects which regression classes fail the CI gate rather
// than warn.
type GatePolicy struct {
	// FailOnTime promotes significant same-host slowdowns to failures.
	FailOnTime bool
	// FailOnAllocs promotes allocs-per-op growth past
	// Thresholds.MaxAllocDelta to failures. Allocation counts are
	// near-deterministic, so unlike wall time this gate does not require
	// matching host fingerprints.
	FailOnAllocs bool
}

// GateWith evaluates the CI policy over the report: precision-fingerprint
// changes are always failures (they are deterministic, so any delta is a
// real behavioral change); timing regressions are failures only when
// p.FailOnTime is set and the two entries share a host fingerprint —
// otherwise they are warnings, the right default for noisy shared runners;
// allocation regressions past Thresholds.MaxAllocDelta fail when
// p.FailOnAllocs is set and warn otherwise.
func (r *Report) GateWith(p GatePolicy) (failures, warnings []string) {
	failOnTime := p.FailOnTime
	for i := range r.Fingerprints {
		fd := &r.Fingerprints[i]
		switch {
		case fd.Added:
			warnings = append(warnings, fmt.Sprintf("precision: workload %s appeared (no baseline fingerprint)", fd.Workload))
		case fd.Removed:
			failures = append(failures, fmt.Sprintf("precision: workload %s disappeared from the run", fd.Workload))
		case len(fd.Changed) > 0:
			failures = append(failures, fmt.Sprintf("precision: %s fingerprint changed: %s",
				fd.Workload, strings.Join(fd.Changed, "; ")))
		}
	}
	for _, d := range r.Specs {
		if d.Verdict != VerdictSlower {
			continue
		}
		msg := fmt.Sprintf("timing: %s slower by %+.1f%% (median %v -> %v, p=%.3f)",
			d.Spec, 100*d.Delta, time.Duration(d.Old.MedianNs), time.Duration(d.New.MedianNs), d.P)
		if failOnTime && !r.HostsDiffer {
			failures = append(failures, msg)
		} else {
			warnings = append(warnings, msg)
		}
	}
	maxAlloc := r.Th.MaxAllocDelta
	if maxAlloc <= 0 {
		maxAlloc = DefaultThresholds().MaxAllocDelta
	}
	for _, d := range r.Specs {
		if !d.HasAllocDelta || d.AllocDelta <= maxAlloc {
			continue
		}
		msg := fmt.Sprintf("allocs: %s allocs/op grew %+.1f%% (%d -> %d, threshold %+.0f%%)",
			d.Spec, 100*d.AllocDelta, d.Old.AllocsPerOp, d.New.AllocsPerOp, 100*maxAlloc)
		if p.FailOnAllocs {
			failures = append(failures, msg)
		} else {
			warnings = append(warnings, msg)
		}
	}
	return failures, warnings
}

// String renders the report as the terminal table `psdf bench diff` prints.
func (r *Report) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "bench diff: %s (#%d, %s) -> %s (#%d, %s)\n",
		r.Old.ShortCommit(), r.OldIndex, r.Old.Time.Format(time.RFC3339),
		r.New.ShortCommit(), r.NewIndex, r.New.Time.Format(time.RFC3339))
	if r.HostsDiffer {
		fmt.Fprintf(&b, "  WARNING: hosts differ (%s vs %s); timing verdicts are advisory\n", r.Old.Host, r.New.Host)
	}
	showAllocs := r.hasAllocColumns()
	if showAllocs {
		fmt.Fprintf(&b, "  %-14s %14s %14s %9s %8s %12s %12s %9s  %s\n",
			"spec", "old median", "new median", "delta", "p", "old al/op", "new al/op", "al delta", "verdict")
	} else {
		fmt.Fprintf(&b, "  %-14s %14s %14s %9s %8s  %s\n", "spec", "old median", "new median", "delta", "p", "verdict")
	}
	for _, d := range r.Specs {
		oldM, newM, delta := "-", "-", "-"
		if d.Old != nil {
			oldM = time.Duration(d.Old.MedianNs).Round(time.Microsecond).String()
		}
		if d.New != nil {
			newM = time.Duration(d.New.MedianNs).Round(time.Microsecond).String()
		}
		if d.Old != nil && d.New != nil {
			delta = fmt.Sprintf("%+.1f%%", 100*d.Delta)
		}
		if showAllocs {
			oldA, newA, deltaA := "-", "-", "-"
			if d.Old.HasAllocs() {
				oldA = fmt.Sprint(d.Old.AllocsPerOp)
			}
			if d.New.HasAllocs() {
				newA = fmt.Sprint(d.New.AllocsPerOp)
			}
			if d.HasAllocDelta {
				deltaA = fmt.Sprintf("%+.1f%%", 100*d.AllocDelta)
			}
			fmt.Fprintf(&b, "  %-14s %14s %14s %9s %8.3f %12s %12s %9s  %s\n",
				d.Spec, oldM, newM, delta, d.P, oldA, newA, deltaA, d.Verdict)
		} else {
			fmt.Fprintf(&b, "  %-14s %14s %14s %9s %8.3f  %s\n", d.Spec, oldM, newM, delta, d.P, d.Verdict)
		}
	}
	changed := false
	for i := range r.Fingerprints {
		fd := &r.Fingerprints[i]
		if !fd.PrecisionChanged() {
			continue
		}
		if !changed {
			fmt.Fprintf(&b, "  precision fingerprints:\n")
			changed = true
		}
		switch {
		case fd.Added:
			fmt.Fprintf(&b, "    %s: ADDED\n", fd.Workload)
		case fd.Removed:
			fmt.Fprintf(&b, "    %s: REMOVED\n", fd.Workload)
		default:
			fmt.Fprintf(&b, "    %s: CHANGED\n", fd.Workload)
			for _, c := range fd.Changed {
				fmt.Fprintf(&b, "      %s\n", c)
			}
		}
	}
	if !changed {
		fmt.Fprintf(&b, "  precision fingerprints: identical across %d workloads\n", len(r.Fingerprints))
	}
	return b.String()
}

// Markdown renders the report as a markdown document (the `-markdown` flag
// and the CI job summary).
func (r *Report) Markdown() string {
	var b strings.Builder
	fmt.Fprintf(&b, "## Bench diff: `%s` → `%s`\n\n", r.Old.ShortCommit(), r.New.ShortCommit())
	fmt.Fprintf(&b, "- old: entry #%d, %s, host %s\n", r.OldIndex, r.Old.Time.Format(time.RFC3339), r.Old.Host)
	fmt.Fprintf(&b, "- new: entry #%d, %s, host %s\n", r.NewIndex, r.New.Time.Format(time.RFC3339), r.New.Host)
	fmt.Fprintf(&b, "- thresholds: alpha %.3g, min delta %.1f%%\n\n", r.Th.Alpha, 100*r.Th.MinDelta)
	if r.HostsDiffer {
		fmt.Fprintf(&b, "> **Warning:** hosts differ; timing verdicts are advisory.\n\n")
	}
	showAllocs := r.hasAllocColumns()
	if showAllocs {
		fmt.Fprintf(&b, "| spec | old median | new median | delta | p | old allocs/op | new allocs/op | alloc delta | verdict |\n")
		fmt.Fprintf(&b, "|---|---:|---:|---:|---:|---:|---:|---:|---|\n")
	} else {
		fmt.Fprintf(&b, "| spec | old median | new median | delta | p | verdict |\n")
		fmt.Fprintf(&b, "|---|---:|---:|---:|---:|---|\n")
	}
	for _, d := range r.Specs {
		oldM, newM, delta := "-", "-", "-"
		if d.Old != nil {
			oldM = time.Duration(d.Old.MedianNs).Round(time.Microsecond).String()
		}
		if d.New != nil {
			newM = time.Duration(d.New.MedianNs).Round(time.Microsecond).String()
		}
		if d.Old != nil && d.New != nil {
			delta = fmt.Sprintf("%+.1f%%", 100*d.Delta)
		}
		if showAllocs {
			oldA, newA, deltaA := "-", "-", "-"
			if d.Old.HasAllocs() {
				oldA = fmt.Sprint(d.Old.AllocsPerOp)
			}
			if d.New.HasAllocs() {
				newA = fmt.Sprint(d.New.AllocsPerOp)
			}
			if d.HasAllocDelta {
				deltaA = fmt.Sprintf("%+.1f%%", 100*d.AllocDelta)
			}
			fmt.Fprintf(&b, "| %s | %s | %s | %s | %.3f | %s | %s | %s | %s |\n",
				d.Spec, oldM, newM, delta, d.P, oldA, newA, deltaA, d.Verdict)
		} else {
			fmt.Fprintf(&b, "| %s | %s | %s | %s | %.3f | %s |\n", d.Spec, oldM, newM, delta, d.P, d.Verdict)
		}
	}
	b.WriteString("\n### Precision fingerprints\n\n")
	any := false
	for i := range r.Fingerprints {
		fd := &r.Fingerprints[i]
		if !fd.PrecisionChanged() {
			continue
		}
		any = true
		switch {
		case fd.Added:
			fmt.Fprintf(&b, "- `%s`: **added**\n", fd.Workload)
		case fd.Removed:
			fmt.Fprintf(&b, "- `%s`: **removed**\n", fd.Workload)
		default:
			fmt.Fprintf(&b, "- `%s`: **changed**\n", fd.Workload)
			for _, c := range fd.Changed {
				fmt.Fprintf(&b, "  - %s\n", c)
			}
		}
	}
	if !any {
		fmt.Fprintf(&b, "Identical across all %d workloads.\n", len(r.Fingerprints))
	}
	return b.String()
}

// hasAllocColumns reports whether either side of any spec carries
// allocation measurements, i.e. whether the rendered tables should grow
// the allocs/op columns.
func (r *Report) hasAllocColumns() bool {
	for _, d := range r.Specs {
		if d.Old.HasAllocs() || d.New.HasAllocs() {
			return true
		}
	}
	return false
}

func toFloats(xs []int64) []float64 {
	out := make([]float64, len(xs))
	for i, x := range xs {
		out[i] = float64(x)
	}
	return out
}

func abs(x float64) float64 {
	if x < 0 {
		return -x
	}
	return x
}
