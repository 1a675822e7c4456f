package experiments

import (
	"context"
	"fmt"
	"runtime"
	"runtime/pprof"
	"strconv"
	"strings"
	"sync"

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
	// each sample. Only populated for serial records (parallelism 1);
	// zero otherwise.
	AllocsPerOp int64
	BytesPerOp  int64
}

// RunSampled runs the selected specs (nil or empty = the whole registry)
// `samples` times each and collates per-spec wall-clock samples.
// parallelism bounds how many specs run concurrently within one repetition
// (1 = serial, the right choice when the samples feed timing comparisons;
// 0 = one per CPU). Repetitions are strictly sequential so samples never
// contend with each other.
func RunSampled(ids []string, samples, parallelism int) ([]*SampledSpec, error) {
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
	// Per-spec allocation accumulators: sum of per-sample MemStats deltas
	// and the number of samples that carried one (retried samples lose
	// their measurement, so the mean divides by the measured count).
	allocSum := make([]int64, len(selected))
	byteSum := make([]int64, len(selected))
	allocN := make([]int64, len(selected))
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
		tables, recs, errs := runSpecsOnce(selected, parallelism, stage, rep)
		for i, err := range errs {
			// No retries: the analysis is deterministic, so a spec failure
			// is a real regression and must abort the record immediately.
			if err != nil {
				return nil, fmt.Errorf("sample %d of %s: %w", rep+1, selected[i].ID, err)
			}
			out[i].Title = tables[i].Title
			out[i].Table = tables[i]
			out[i].WallNs = append(out[i].WallNs, recs[i].WallNs)
			out[i].Phases = recs[i].Phases
			if recs[i].Allocs > 0 {
				allocSum[i] += recs[i].Allocs
				byteSum[i] += recs[i].AllocBytes
				allocN[i]++
			}
		}
	}
	for i := range out {
		if allocN[i] > 0 {
			out[i].AllocsPerOp = allocSum[i] / allocN[i]
			out[i].BytesPerOp = byteSum[i] / allocN[i]
		}
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

// runSpecsOnce runs each selected spec once with up to parallelism specs in
// flight (<= 0 selects one per CPU), returning per-spec tables, runs and
// errors positionally. stage/rep become pprof goroutine labels on each spec
// run.
func runSpecsOnce(selected []Spec, parallelism int, stage string, rep int) ([]*Table, []*specRun, []error) {
	tables := make([]*Table, len(selected))
	recs := make([]*specRun, len(selected))
	errs := make([]error, len(selected))
	if parallelism <= 0 {
		parallelism = runtime.NumCPU()
	}
	if parallelism > len(selected) {
		parallelism = len(selected)
	}
	if parallelism < 1 {
		parallelism = 1
	}
	serial := parallelism == 1
	idx := make(chan int)
	var wg sync.WaitGroup
	wg.Add(parallelism)
	for w := 0; w < parallelism; w++ {
		go func() {
			defer wg.Done()
			for i := range idx {
				run := func() {
					if serial {
						// MemStats deltas are process-global, so they are only
						// attributable to a spec when nothing else runs.
						var m0, m1 runtime.MemStats
						runtime.ReadMemStats(&m0)
						tables[i], recs[i], errs[i] = runSpec(selected[i])
						runtime.ReadMemStats(&m1)
						if recs[i] != nil {
							recs[i].Allocs = int64(m1.Mallocs - m0.Mallocs)
							recs[i].AllocBytes = int64(m1.TotalAlloc - m0.TotalAlloc)
						}
					} else {
						tables[i], recs[i], errs[i] = runSpec(selected[i])
					}
				}
				// Label construction happens before the MemStats window
				// opens inside run, so the handful of label-set allocations
				// never contaminate the per-spec alloc deltas.
				pprof.Do(context.Background(), pprof.Labels(
					"psdf_spec", selected[i].ID, "psdf_stage", stage,
					"psdf_rep", strconv.Itoa(rep)),
					func(context.Context) { run() })
			}
		}()
	}
	for i := range selected {
		idx <- i
	}
	close(idx)
	wg.Wait()
	return tables, recs, errs
}
