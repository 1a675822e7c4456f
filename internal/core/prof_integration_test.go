package core_test

import (
	"bytes"
	"os"
	"strings"
	"testing"

	"repro/internal/bench"
	"repro/internal/cfg"
	"repro/internal/clients/cartesian"
	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/parser"
	"repro/internal/prof"
	"repro/internal/sem"
)

// profiled analyzes g with a profiler folding the events of a tracer that
// keeps totals only, and returns the result and the profile.
func profiled(t *testing.T, g *cfg.Graph, opts core.Options) (*core.Result, *prof.Report) {
	t.Helper()
	opts.Tracer = obs.NewAggregate()
	p := prof.New()
	p.Attach(opts.Tracer, opts.TracePID, g)
	res := analyzeWith(t, g, opts)
	return res, p.Report("", "")
}

// TestProfilerDoesNotPerturb is the profiler's overhead contract: with a
// profiler attached, a run must produce byte-identical results and counts
// to the unprofiled baseline on every paper workload, and the profiled step
// count must equal the engine's own.
func TestProfilerDoesNotPerturb(t *testing.T) {
	for _, w := range bench.All() {
		w := w
		t.Run(w.Name, func(t *testing.T) {
			_, g := w.Parse()
			want := countedSignature(analyzeWith(t, g, core.Options{}))
			_, g = w.Parse()
			res, rep := profiled(t, g, core.Options{})
			if got := countedSignature(res); got != want {
				t.Errorf("profiled run diverged:\n got: %s\nwant: %s", got, want)
			}
			if rep.Totals.Steps != int64(res.Steps) {
				t.Errorf("profiled steps = %d, engine steps = %d", rep.Totals.Steps, res.Steps)
			}
			if rep.Totals.StepNs <= 0 {
				t.Error("no step time recorded")
			}
			if len(rep.Nodes) == 0 {
				t.Error("empty node profile")
			}
		})
	}
}

// TestProfilerSequentialDeterminism: two profiled one-worker runs of the
// same program render byte-identical reports (modulo timing fields, which
// are zeroed for the comparison) — the property the fuzz-sweep
// attribution's reproducibility rests on.
func TestProfilerSequentialDeterminism(t *testing.T) {
	w := bench.Fig7Shift()
	run := func() *prof.Report {
		_, g := w.Parse()
		_, rep := profiled(t, g, core.Options{})
		rep.Name, rep.Source = w.Name, w.Src
		for i := range rep.Nodes {
			rep.Nodes[i].StepNs = 0
			rep.Nodes[i].MatchNs = 0
			rep.Nodes[i].ProverNs = 0
		}
		rep.Totals.StepNs, rep.Totals.MatchNs, rep.Totals.ProverNs = 0, 0, 0
		return rep
	}
	var a, b bytes.Buffer
	if err := prof.WriteJSON(&a, []*prof.Report{run()}); err != nil {
		t.Fatal(err)
	}
	if err := prof.WriteJSON(&b, []*prof.Report{run()}); err != nil {
		t.Fatal(err)
	}
	if a.String() != b.String() {
		t.Errorf("profiled runs differ:\n--- a\n%s\n--- b\n%s", a.String(), b.String())
	}
}

// TestProfilerRecordsWideningFailures: on the minimized precision repro
// from the differential fuzzer, the profiler must attribute the widening
// failures (with a bound-expression pair) and the resulting give-up.
func TestProfilerRecordsWideningFailures(t *testing.T) {
	src, err := os.ReadFile("../../testdata/diffbugs/widen_mismatch_broadcast.mpl")
	if err != nil {
		t.Fatal(err)
	}
	prog, err := parser.Parse("widen_mismatch_broadcast.mpl", string(src))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sem.Check(prog); err != nil {
		t.Fatal(err)
	}
	res, rep := profiled(t, cfg.Build(prog), core.Options{})
	if res.Clean() {
		t.Fatal("repro unexpectedly analyzed clean; the profiler assertions below are vacuous")
	}
	if rep.Totals.WidenFailures == 0 {
		t.Errorf("no widening failures profiled on a widening-failure repro: %+v", rep.Totals)
	}
	if len(rep.WidenFailures) == 0 {
		t.Fatal("no widening-failure detail rows")
	}
	found := false
	for _, wf := range rep.WidenFailures {
		if wf.OldBound != "" && wf.NewBound != "" {
			found = true
		}
	}
	if !found {
		t.Errorf("no failing bound-expression pair captured: %+v", rep.WidenFailures)
	}
	if rep.Totals.GiveUps == 0 {
		t.Errorf("give-up not profiled: %+v", rep.Totals)
	}
}

// TestProgressProverLane is the prover-lane attribution coverage: a
// workload whose matching needs HSM set-equality searches must surface
// prover searches and time in the /statusz snapshot and final summary.
func TestProgressProverLane(t *testing.T) {
	w := bench.TransposeSquare()
	_, g := w.Parse()
	m := cartesian.New(core.ScanInvariants(g))
	tracker := obs.NewProgressTracker()
	if _, err := core.Analyze(g, core.Options{
		Matcher:  m,
		TracePID: 7,
		Progress: tracker,
	}); err != nil {
		t.Fatal(err)
	}
	snaps := tracker.Snapshot()
	if len(snaps) != 1 {
		t.Fatalf("snapshots = %+v", snaps)
	}
	final := snaps[0]
	if !final.Done {
		t.Errorf("final snapshot not done: %+v", final)
	}
	if final.ProverSearches == 0 {
		t.Errorf("prover lane empty in final summary: %+v", final)
	}
	if final.ProverNs <= 0 {
		t.Errorf("prover time not attributed: %+v", final)
	}
	if got, want := final.ProverSearches, m.ProverSearches(); got != want {
		t.Errorf("snapshot searches = %d, matcher reports %d", got, want)
	}
	var buf bytes.Buffer
	if err := tracker.WriteStatusz(&buf); err != nil {
		t.Fatal(err)
	}
	for _, field := range []string{`"prover_searches"`, `"prover_ns"`} {
		if !strings.Contains(buf.String(), field) {
			t.Errorf("/statusz payload missing %s:\n%s", field, buf.String())
		}
	}
}
