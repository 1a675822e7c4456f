package core_test

import (
	"strings"
	"testing"

	"repro/internal/bench"
	"repro/internal/cg"
	"repro/internal/clients/cartesian"
	"repro/internal/core"
	"repro/internal/obs"
)

// TestTracingDoesNotPerturb is the observability overhead contract: with a
// retaining tracer and a metrics registry attached, one-worker and
// four-worker runs must produce byte-identical results to the untraced
// baseline on every paper workload. Tracing only observes.
func TestTracingDoesNotPerturb(t *testing.T) {
	for _, w := range bench.All() {
		w := w
		t.Run(w.Name, func(t *testing.T) {
			_, g := w.Parse()
			want := signature(analyzeWith(t, g, core.Options{}))
			for _, workers := range []int{1, 4} {
				tr := obs.NewTracer()
				reg := obs.NewRegistry()
				_, g := w.Parse()
				m := cartesian.New(core.ScanInvariants(g))
				m.SetObs(tr, 1)
				res, err := core.Analyze(g, core.Options{
					Matcher:  m,
					Workers:  workers,
					Tracer:   tr,
					Metrics:  reg,
					TracePID: 1,
					CGOpts:   cg.Options{Stats: &cg.Stats{}},
				})
				if err != nil {
					t.Fatalf("workers=%d: %v", workers, err)
				}
				if got := signature(res); got != want {
					t.Errorf("workers=%d traced run diverged:\n got: %s\nwant: %s", workers, got, want)
				}
				if tr.EventCount() == 0 {
					t.Errorf("workers=%d: tracer retained no events", workers)
				}
				evs := tr.Events()
				if probs := obs.Check(evs, 0); len(probs) != 0 {
					t.Errorf("workers=%d: malformed trace: %v", workers, probs)
				}
				totals := tr.Totals()
				if totals[obs.PhaseStep.String()].Count == 0 {
					t.Errorf("workers=%d: no step spans recorded", workers)
				}
				if totals[obs.PhaseFinish.String()].Count != 1 {
					t.Errorf("workers=%d: finish spans = %d, want 1", workers, totals[obs.PhaseFinish.String()].Count)
				}
			}
		})
	}
}

// TestMetricsPublished checks the engine's post-run metrics snapshot: the
// registry renders the step counter, config gauge, scheduler high-water
// marks and the cg instrumentation series.
func TestMetricsPublished(t *testing.T) {
	_, g := bench.Stencil1D().Parse()
	reg := obs.NewRegistry()
	res := analyzeWith(t, g, core.Options{
		Workers: 4, Metrics: reg, TracePID: 7,
		CGOpts: cg.Options{Stats: &cg.Stats{}},
	})
	if !res.Clean() {
		t.Fatalf("not clean: %v", res.TopReasons())
	}
	var sb strings.Builder
	if err := reg.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{
		`psdf_engine_steps_total{job="7"}`,
		`psdf_engine_configs{job="7"}`,
		`psdf_interned_keys{job="7"}`,
		`psdf_sched_queue_depth_max{job="7"}`,
		`psdf_sched_pending_max{job="7"}`,
		`psdf_sched_queue_depth{job="7"}`,
		`psdf_table_shard_entries{job="7",shard="0"}`,
		`psdf_cg_joins_total{job="7"}`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("metrics output missing %s", want)
		}
	}
	// A one-worker run publishes the same scheduler high-water marks.
	reg2 := obs.NewRegistry()
	_, g2 := bench.Stencil1D().Parse()
	analyzeWith(t, g2, core.Options{Metrics: reg2, TracePID: 1})
	var sb2 strings.Builder
	_ = reg2.WritePrometheus(&sb2)
	for _, want := range []string{`psdf_sched_queue_depth_max{job="1"}`, `psdf_sched_pending_max{job="1"}`} {
		if !strings.Contains(sb2.String(), want) {
			t.Errorf("one-worker run missing %s", want)
		}
	}
}

// TestAnalyzeAllPhaseBreakdown checks the pool driver's per-job results:
// wall time from the analyze span, a per-job phase breakdown even without a
// caller-supplied tracer, and pid assignment by input position.
func TestAnalyzeAllPhaseBreakdown(t *testing.T) {
	ws := []*bench.Workload{bench.Fig2Exchange(), bench.Fig7Shift()}
	jobs := make([]core.Job, len(ws))
	for i, w := range ws {
		_, g := w.Parse()
		jobs[i] = core.Job{Name: w.Name, G: g, Opts: core.Options{
			Matcher: cartesian.New(core.ScanInvariants(g)),
		}}
	}
	for _, parallelism := range []int{1, 2} {
		for i, jr := range core.AnalyzeAll(jobs, parallelism) {
			if jr.Err != nil {
				t.Fatalf("parallelism=%d %s: %v", parallelism, jr.Name, jr.Err)
			}
			if jr.Wall <= 0 {
				t.Errorf("parallelism=%d %s: Wall = %v", parallelism, jr.Name, jr.Wall)
			}
			an := jr.Phases[obs.PhaseAnalyze.String()]
			if an.Count != 1 || an.Total <= 0 {
				t.Errorf("parallelism=%d %s: analyze phase = %+v", parallelism, jr.Name, an)
			}
			if jr.Phases[obs.PhaseStep.String()].Count == 0 {
				t.Errorf("parallelism=%d %s: no step phase in breakdown", parallelism, jr.Name)
			}
			_ = i
		}
	}
	// A shared retaining tracer distinguishes jobs by pid.
	tr := obs.NewTracer()
	for i := range jobs {
		_, g := ws[i].Parse()
		jobs[i].G = g
		jobs[i].Opts.Matcher = cartesian.New(core.ScanInvariants(g))
		jobs[i].Opts.Tracer = tr
	}
	for _, jr := range core.AnalyzeAll(jobs, 2) {
		if jr.Err != nil {
			t.Fatal(jr.Err)
		}
	}
	pids := map[int]bool{}
	for _, ev := range tr.Events() {
		pids[ev.Pid] = true
	}
	if !pids[1] || !pids[2] {
		t.Errorf("shared tracer pids = %v, want jobs 1 and 2", pids)
	}
}
