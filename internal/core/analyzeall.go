package core

import (
	"runtime"
	"sync"
	"time"

	"repro/internal/cfg"
	"repro/internal/obs"
)

// The paper's evaluation analyzes a suite of independent workloads; nothing
// couples their fixpoint computations, so the suite is embarrassingly
// parallel one-workload-per-core. AnalyzeAll is the shared bounded pool
// behind the psdf analysis command and internal/experiments.
//
// Per-job state must not be shared across jobs unless it is race-safe:
// cg.Stats is (atomic counters, so one Stats may aggregate a whole suite),
// but Matchers keep plain instrumentation counters and memo tables, so each
// Job needs its own Matcher instance. The obs types are race-safe, so one
// Tracer or Registry may be shared across jobs (TracePID keeps their spans
// and series apart).

// Job is one unit of work for AnalyzeAll: a CFG plus the analysis options
// to run it with.
type Job struct {
	// Name labels the workload in results (not interpreted).
	Name string
	// G is the program's control-flow graph.
	G *cfg.Graph
	// Opts configures the analysis. Opts.Matcher must not be shared with
	// another concurrently running Job.
	Opts Options
}

// JobResult is the outcome of one Job, in the same position as its input.
type JobResult struct {
	Name string
	Res  *Result
	Err  error
	// Wall is the job's wall-clock analysis time (the analyze span).
	Wall time.Duration
	// Phases is the per-phase time/count breakdown of this job's run. When
	// the caller supplied a shared Opts.Tracer the breakdown covers the
	// whole tracer (all jobs); otherwise AnalyzeAll installs a private
	// aggregate tracer per job and the breakdown is exactly this job's.
	Phases obs.PhaseTotals
}

// AnalyzeAll runs every job through Analyze on a bounded worker pool and
// returns the results in input order. parallelism <= 0 selects
// runtime.NumCPU(); parallelism == 1 degenerates to a sequential loop with
// identical results.
//
// Jobs with Opts.TracePID == 0 get input position + 1, so spans and metric
// series from different jobs stay distinguishable in a shared tracer or
// registry.
func AnalyzeAll(jobs []Job, parallelism int) []JobResult {
	if parallelism <= 0 {
		parallelism = runtime.NumCPU()
	}
	if parallelism > len(jobs) {
		parallelism = len(jobs)
	}
	results := make([]JobResult, len(jobs))
	run := func(i int) {
		j := jobs[i]
		opts := j.Opts
		if opts.TracePID == 0 {
			opts.TracePID = i + 1
		}
		if opts.Name == "" {
			opts.Name = j.Name
		}
		tr := opts.Tracer
		perJob := tr == nil
		if perJob {
			// Aggregate-only tracer: phase totals for the result breakdown
			// at near-zero cost, no event retention.
			tr = obs.NewAggregate()
			opts.Tracer = tr
		}
		sp := tr.Begin(opts.TracePID, 0, obs.PhaseAnalyze, j.Name)
		res, err := Analyze(j.G, opts)
		wall := sp.End()
		if err != nil && opts.Log != nil {
			opts.Log.Error("analysis failed", "job", opts.TracePID, "name", j.Name, "err", err)
		}
		results[i] = JobResult{Name: j.Name, Res: res, Err: err, Wall: wall, Phases: tr.Totals()}
	}
	if parallelism <= 1 {
		for i := range jobs {
			run(i)
		}
		return results
	}
	idx := make(chan int)
	var wg sync.WaitGroup
	wg.Add(parallelism)
	for w := 0; w < parallelism; w++ {
		go func() {
			defer wg.Done()
			for i := range idx {
				run(i)
			}
		}()
	}
	for i := range jobs {
		idx <- i
	}
	close(idx)
	wg.Wait()
	return results
}
