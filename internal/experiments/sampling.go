package experiments

import (
	"context"
	"fmt"
	"runtime/pprof"
	"strconv"
	"strings"

	"repro/internal/obs"
)

// SampledSpec is the multi-sample timing measurement of one experiment
// spec: the raw wall-clock of each repetition plus the obs phase breakdown
// and table captured by the final one. `psdf bench record` turns these into
// the per-spec timing blocks of a benchhist history entry; `psdf bench run`
// prints the tables.
type SampledSpec struct {
	ID     string
	Title  string
	WallNs []int64
	// Table is the rendered experiment of the last sample.
	Table *Table
	// Phases is the aggregate phase breakdown of the last sample (one
	// representative breakdown is enough: phase shares are stable across
	// repetitions; the wall-clock samples carry the variance).
	Phases obs.PhaseTotals
	// AllocsPerOp and BytesPerOp are the mean heap allocations and
	// allocated bytes per repetition, from runtime.MemStats deltas around
	// each sample.
	AllocsPerOp int64
	BytesPerOp  int64
}

// RunSampled runs the selected specs (nil or empty = the whole registry)
// `samples` times each and collates per-spec wall-clock samples. Specs
// run one at a time, so the process-global allocation counts of a sample
// belong to its spec, and repetitions never contend with each other.
func RunSampled(ids []string, samples int) ([]*SampledSpec, error) {
	if samples < 1 {
		samples = 1
	}
	selected, err := selectSpecs(ids)
	if err != nil {
		return nil, err
	}
	out := make([]*SampledSpec, len(selected))
	for i, s := range selected {
		out[i] = &SampledSpec{ID: s.ID}
	}
	for rep := 0; rep < samples; rep++ {
		// Goroutine labels separate warmup from measured repetitions in CPU
		// profiles captured over a bench run (free when no profile is being
		// taken). The first of several samples warms caches, allocator
		// arenas and branch predictors; its profile shape differs enough to
		// be worth filtering.
		stage := "measured"
		if rep == 0 && samples > 1 {
			stage = "warmup"
		}
		for i, s := range selected {
			var table *Table
			var rec *specRun
			// Label construction happens before runSpec opens its MemStats
			// window, so the label-set allocations never count.
			pprof.Do(context.Background(), pprof.Labels(
				"psdf_spec", s.ID, "psdf_stage", stage, "psdf_rep", strconv.Itoa(rep)),
				func(context.Context) { table, rec, err = runSpec(s) })
			// No retries: the analysis is deterministic, so a spec failure
			// is a real regression and must abort the record immediately.
			if err != nil {
				return nil, fmt.Errorf("sample %d of %s: %w", rep+1, s.ID, err)
			}
			o := out[i]
			o.Title, o.Table = table.Title, table
			o.WallNs = append(o.WallNs, rec.WallNs)
			o.Phases = rec.Phases
			o.AllocsPerOp += rec.Allocs
			o.BytesPerOp += rec.AllocBytes
		}
	}
	for _, o := range out {
		o.AllocsPerOp /= int64(samples)
		o.BytesPerOp /= int64(samples)
	}
	return out, nil
}

// selectSpecs resolves spec ids against the registry, preserving registry
// order. nil/empty selects everything. An unknown id is an error naming the
// first one in argument order.
func selectSpecs(ids []string) ([]Spec, error) {
	all := specs()
	if len(ids) == 0 {
		return all, nil
	}
	want := map[string]bool{}
	for _, id := range ids {
		want[id] = true
	}
	var out []Spec
	for _, s := range all {
		if want[s.ID] {
			out = append(out, s)
			delete(want, s.ID)
		}
	}
	for _, id := range ids {
		if want[id] {
			return nil, fmt.Errorf("unknown experiment %q (have %s)", id, strings.Join(SpecIDs(), ", "))
		}
	}
	return out, nil
}
