package core_test

import (
	"bytes"
	"encoding/json"
	"fmt"
	"strings"
	"testing"

	"repro/internal/bench"
	"repro/internal/cg"
	"repro/internal/clients/cartesian"
	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/prof"
)

// TestTracingDoesNotPerturb is the observability overhead contract: with a
// retaining tracer, a progress tracker and a profiler folding the tracer's
// events, a run must produce byte-identical results and counts to the
// untraced baseline on every paper workload. Tracing only observes. The
// observers must also agree with each other: the trace's step spans, a
// ring's retained step events, the profiler's steps, the final /statusz
// steps and psdf_engine_steps_total all equal Result.Steps; the trace's
// join spans, the profiler's joins and the final /statusz joins agree; the
// profiler's prover searches are the trace's prover spans; and /statusz
// sched_coalesced equals the attached cg.Stats' count.
//
// Options.Workers is deprecated and ignored, so a Workers: 2 run must
// match the baseline too: that keeps the benchmark's paper-par workload
// measuring the same analysis as paper.
func TestTracingDoesNotPerturb(t *testing.T) {
	for _, w := range bench.All() {
		w := w
		t.Run(w.Name, func(t *testing.T) {
			_, g := w.Parse()
			want := countedSignature(analyzeWith(t, g, core.Options{}))
			_, g = w.Parse()
			if got := countedSignature(analyzeWith(t, g, core.Options{Workers: 2})); got != want {
				t.Errorf("Workers: 2 run diverged:\n got: %s\nwant: %s", got, want)
			}
			tr := obs.NewTracer()
			tracker := obs.NewProgressTracker()
			pr := prof.New()
			_, g = w.Parse()
			pr.Attach(tr, 1, g)
			res, err := core.Analyze(g, core.Options{
				Matcher:  cartesian.New(core.ScanInvariants(g)),
				Tracer:   tr,
				Progress: tracker,
				TracePID: 1,
				CGOpts:   cg.Options{Stats: &cg.Stats{}},
			})
			if err != nil {
				t.Fatal(err)
			}
			if got := countedSignature(res); got != want {
				t.Errorf("traced run diverged:\n got: %s\nwant: %s", got, want)
			}
			if len(tr.Events()) == 0 {
				t.Error("tracer retained no events")
			}
			if probs := obs.Check(tr.Events(), 0); len(probs) != 0 {
				t.Errorf("malformed trace: %v", probs)
			}
			totals := tr.Totals()
			if totals[obs.PhaseFinish.String()].Count != 1 {
				t.Errorf("finish spans = %d, want 1", totals[obs.PhaseFinish.String()].Count)
			}

			steps := int64(res.Steps)
			if steps == 0 {
				t.Fatal("no steps")
			}
			if got := totals[obs.PhaseStep.String()].Count; got != steps {
				t.Errorf("trace step spans = %d, Result.Steps = %d", got, steps)
			}
			if got := stepEvents(tr.Events()); got != steps {
				t.Errorf("retained step events = %d, Result.Steps = %d", got, steps)
			}
			if got := pr.Report(w.Name, "").Totals.Steps; got != steps {
				t.Errorf("profiler steps = %d, Result.Steps = %d", got, steps)
			}
			var statusz bytes.Buffer
			if err := tracker.WriteStatusz(&statusz); err != nil {
				t.Fatal(err)
			}
			var s obs.Statusz
			if err := json.Unmarshal(statusz.Bytes(), &s); err != nil || len(s.Jobs) != 1 || !s.Jobs[0].Done {
				t.Fatalf("/statusz = %s, %v", statusz.String(), err)
			}
			if got := s.Jobs[0].Steps; got != steps {
				t.Errorf("/statusz steps = %d, Result.Steps = %d", got, steps)
			}
			joins := totals[obs.PhaseJoin.String()].Count
			if got := pr.Report(w.Name, "").Totals.Joins; got != joins {
				t.Errorf("profiler joins = %d, trace join spans = %d", got, joins)
			}
			if got, want := pr.Report(w.Name, "").Totals.ProverSearches, totals[obs.PhaseProver.String()].Count; got != want {
				t.Errorf("profiler prover searches = %d, trace prover spans = %d", got, want)
			}
			if got := s.Jobs[0].Joins; got != joins {
				t.Errorf("/statusz joins = %d, trace join spans = %d", got, joins)
			}
			if got, want := s.Jobs[0].Coalesced, s.Jobs[0].CG["sched_coalesced"]; got != want {
				t.Errorf("/statusz sched_coalesced = %d, cg.Stats = %d", got, want)
			}
			var prom strings.Builder
			if err := tracker.WritePrometheus(&prom); err != nil {
				t.Fatal(err)
			}
			if line := fmt.Sprintf("psdf_engine_steps_total{job=\"1\"} %d\n", steps); !strings.Contains(prom.String(), line) {
				t.Errorf("metrics missing %q:\n%s", line, prom.String())
			}

			// A ring that holds the whole run retains every step, and does
			// not perturb the result either.
			ring := obs.NewRing(len(tr.Events()))
			_, g = w.Parse()
			if got := countedSignature(analyzeWith(t, g, core.Options{Tracer: ring})); got != want {
				t.Errorf("ring-traced run diverged:\n got: %s\nwant: %s", got, want)
			}
			if got := stepEvents(ring.Events()); got != steps {
				t.Errorf("ring step events = %d, Result.Steps = %d", got, steps)
			}
		})
	}
}

// TestStatuszCountsWithoutStats checks that /statusz counts joins and
// coalesced pushes on the engine, so a run without a cg.Stats still
// reports them: stencil1d coalesces 7 pushes and joins at least once.
func TestStatuszCountsWithoutStats(t *testing.T) {
	_, g := bench.Stencil1D().Parse()
	tracker := obs.NewProgressTracker()
	analyzeWith(t, g, core.Options{Progress: tracker, TracePID: 1})
	snap := tracker.Snapshot()
	if len(snap) != 1 || !snap[0].Done {
		t.Fatalf("snapshot = %+v, want one finished job", snap)
	}
	if got := snap[0].Coalesced; got != 7 {
		t.Errorf("sched_coalesced = %d, want 7", got)
	}
	if snap[0].Joins == 0 || snap[0].CG != nil {
		t.Errorf("joins = %d, cg = %v; want joins counted without cg.Stats", snap[0].Joins, snap[0].CG)
	}
}

// stepEvents counts the step spans among evs.
func stepEvents(evs []obs.Event) int64 {
	var n int64
	for _, ev := range evs {
		if ev.Phase == obs.PhaseStep {
			n++
		}
	}
	return n
}

// TestMetricsPublished checks the engine's final progress snapshot as
// /metrics renders it: the step counter, the config gauge, the result
// counts, the worklist high-water marks, the match memo and the cg
// instrumentation series, all under the job's id.
func TestMetricsPublished(t *testing.T) {
	_, g := bench.Stencil1D().Parse()
	tracker := obs.NewProgressTracker()
	res := analyzeWith(t, g, core.Options{
		Progress: tracker, TracePID: 7,
		CGOpts: cg.Options{Stats: &cg.Stats{}},
	})
	if !res.Clean() {
		t.Fatalf("not clean: %v", res.TopReasons())
	}
	var sb strings.Builder
	if err := tracker.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{
		fmt.Sprintf(`psdf_engine_steps_total{job="7"} %d`, res.Steps),
		fmt.Sprintf(`psdf_engine_configs{job="7"} %d`, res.Configs),
		fmt.Sprintf(`psdf_engine_finals{job="7"} %d`, len(res.Finals)),
		fmt.Sprintf(`psdf_engine_matches{job="7"} %d`, len(res.Matches)),
		`psdf_engine_tops{job="7"} 0`,
		`psdf_sched_queue_depth_max{job="7"}`,
		`psdf_sched_pending_max{job="7"}`,
		`psdf_sched_queue_depth{job="7"} 0`,
		`psdf_match_memo_total{job="7",result="hit"}`,
		`psdf_match_memo_entries{job="7"}`,
		`psdf_cg_joins_total{job="7"}`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("metrics output missing %s:\n%s", want, out)
		}
	}
	if strings.Contains(out, `psdf_sched_queue_depth_max{job="7"} 0`) {
		t.Error("queue depth high-water mark not recorded")
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

// TestEnrichSpansNestInCombines traces the paper workloads: every combine
// enriches both states in an enrich span, so there are at least two per
// join or widen span, and every enrich span lies inside a join or widen
// span on the same lane and carries the combined configuration's key.
func TestEnrichSpansNestInCombines(t *testing.T) {
	enriched := int64(0)
	for _, w := range bench.All() {
		_, g := w.Parse()
		tr := obs.NewTracer()
		if _, err := core.Analyze(g, core.Options{Matcher: cartesian.New(core.ScanInvariants(g)), Tracer: tr}); err != nil {
			t.Fatal(err)
		}
		totals := tr.Totals()
		combines := totals[obs.PhaseJoin.String()].Count + totals[obs.PhaseWiden.String()].Count
		got := totals[obs.PhaseEnrich.String()].Count
		if got < 2*combines {
			t.Errorf("%s: %d enrich spans for %d combines", w.Name, got, combines)
		}
		enriched += got
		var open []obs.Event // enclosing spans, outermost first
		for _, ev := range tr.Events() {
			for len(open) > 0 && ev.Start >= open[len(open)-1].Start+open[len(open)-1].Dur {
				open = open[:len(open)-1]
			}
			if ev.Phase == obs.PhaseEnrich {
				var combine *obs.Event
				for i := len(open) - 1; i >= 0 && combine == nil; i-- {
					if ph := open[i].Phase; ph == obs.PhaseJoin || ph == obs.PhaseWiden {
						combine = &open[i]
					}
				}
				if combine == nil || combine.Key != ev.Key {
					t.Fatalf("%s: enrich span %q outside a combine of its configuration (enclosing %v)", w.Name, ev.Key, combine)
				}
			}
			if ev.Dur > 0 {
				open = append(open, ev)
			}
		}
	}
	if enriched == 0 {
		t.Fatal("no paper workload enriched a state")
	}
}
