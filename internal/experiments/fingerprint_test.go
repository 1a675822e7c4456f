package experiments

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/bench"
	"repro/internal/benchhist"
	"repro/internal/core"
	"repro/internal/lint"
)

// TestFingerprintDeterministic is the foundation of the precision gate: two
// captures of the same code must agree facet-for-facet, so any inter-commit
// delta is a real behavioral change, never sampling noise.
func TestFingerprintDeterministic(t *testing.T) {
	a, err := CaptureFingerprints()
	if err != nil {
		t.Fatal(err)
	}
	b, err := CaptureFingerprints()
	if err != nil {
		t.Fatal(err)
	}
	if len(a) != len(b) || len(a) == 0 {
		t.Fatalf("capture sizes differ: %d vs %d", len(a), len(b))
	}
	for name, fa := range a {
		fb := b[name]
		if fb == nil {
			t.Errorf("%s: missing from second capture", name)
			continue
		}
		if diffs := fa.DiffFields(fb); len(diffs) != 0 {
			t.Errorf("%s: fingerprint not deterministic: %v", name, diffs)
		}
	}
}

// TestFingerprintShape sanity-checks that the captured facets carry real
// signal on known workloads.
func TestFingerprintShape(t *testing.T) {
	fps, err := CaptureFingerprints()
	if err != nil {
		t.Fatal(err)
	}
	fig2 := fps["fig2_exchange"]
	if fig2 == nil {
		t.Fatal("fig2_exchange not fingerprinted")
	}
	if fig2.Matches != 2 || fig2.Tops != 0 {
		t.Errorf("fig2: matches=%d tops=%d, want 2/0", fig2.Matches, fig2.Tops)
	}
	if fig2.Topology == "" {
		t.Error("fig2: empty topology summary")
	}
	sq := fps["nascg_square"]
	if sq == nil {
		t.Fatal("nascg_square not fingerprinted")
	}
	if sq.HSMMatches == 0 {
		t.Error("nascg_square: expected HSM-proved matches")
	}
	shift := fps["fig7_shift"]
	if shift == nil {
		t.Fatal("fig7_shift not fingerprinted")
	}
	if shift.Widenings == 0 {
		t.Error("fig7_shift: expected parametric widening applications")
	}
	if shift.MemoHits == 0 {
		t.Error("fig7_shift: expected match-memo hits")
	}
}

// TestDegradedPrecisionMovesFingerprint is the acceptance fixture for the
// regression gate: a capture with one workload giving up and another
// losing its match-memo hits must fail the gate, naming exactly those
// workloads, while identical captures pass.
func TestDegradedPrecisionMovesFingerprint(t *testing.T) {
	clean, err := CaptureFingerprints()
	if err != nil {
		t.Fatal(err)
	}
	degraded := map[string]*benchhist.Fingerprint{}
	for name, fp := range clean {
		cp := *fp
		degraded[name] = &cp
	}
	fig2, shift := degraded["fig2_exchange"], degraded["fig7_shift"]
	if fig2 == nil || shift == nil || shift.MemoHits == 0 {
		t.Fatalf("fixture workloads missing or without memo hits: %+v, %+v", fig2, shift)
	}
	fig2.Tops++
	shift.MemoMisses += shift.MemoHits
	shift.MemoHits = 0

	entry := func(fps map[string]*benchhist.Fingerprint) *benchhist.Entry {
		return &benchhist.Entry{
			SchemaVersion: benchhist.SchemaVersion,
			Commit:        "test",
			Specs:         map[string]*benchhist.SpecTiming{},
			Fingerprints:  fps,
		}
	}

	same := benchhist.Diff(entry(clean), entry(clean), benchhist.DefaultThresholds())
	if same.PrecisionChanged() {
		t.Fatalf("identical captures reported as changed: %+v", same.Fingerprints)
	}
	if fails, _ := same.GateWith(benchhist.GatePolicy{}); len(fails) != 0 {
		t.Fatalf("gate failed on identical captures: %v", fails)
	}

	r := benchhist.Diff(entry(clean), entry(degraded), benchhist.DefaultThresholds())
	if !r.PrecisionChanged() {
		t.Fatal("the degraded capture moved no fingerprint")
	}
	fails, _ := r.GateWith(benchhist.GatePolicy{})
	if len(fails) != 2 {
		t.Fatalf("gate failures = %v, want one per degraded workload", fails)
	}
	for i, want := range []string{
		"fig2_exchange fingerprint changed: tops: 0 -> 1",
		fmt.Sprintf("fig7_shift fingerprint changed: memo_hits: %d -> 0", clean["fig7_shift"].MemoHits),
	} {
		if !strings.Contains(fails[i], want) {
			t.Errorf("failure %d = %q, want it to contain %q", i, fails[i], want)
		}
	}
}

// TestMaxVisitsDegradationForcesTops exercises the second degradation axis:
// a starved revisit budget must surface as ⊤ configurations and PSDF-E005
// lint findings on a looping workload, the facets a fingerprint counts.
func TestMaxVisitsDegradationForcesTops(t *testing.T) {
	w := bench.Fig5ExchangeRoot()
	load := func(opts core.Options) (*lint.Target, *lint.Report) {
		tg, err := lint.Load(w.Name+".mpl", w.Src, opts)
		if err != nil {
			t.Fatal(err)
		}
		return tg, lint.Run(tg, lint.Options{})
	}
	clean, cleanRep := load(core.Options{})
	if n := len(clean.Res.Tops); n != 0 {
		t.Fatalf("clean analysis has %d tops", n)
	}
	starved, rep := load(core.Options{MaxVisits: 1})
	if len(starved.Res.Tops) == 0 {
		t.Fatal("MaxVisits=1 did not force any give-up")
	}
	e005 := 0
	for _, d := range rep.Diags {
		if d.Code == "PSDF-E005" {
			e005++
		}
	}
	if e005 == 0 {
		t.Errorf("starved analysis has no PSDF-E005 lint findings: %v", rep.Diags)
	}
	if len(rep.Diags) == len(cleanRep.Diags) && len(starved.Res.Matches) == len(clean.Res.Matches) {
		t.Error("starved analysis reports what the clean one does")
	}
}

func TestRunSampled(t *testing.T) {
	ss, err := RunSampled([]string{"fig2", "table1"}, 3)
	if err != nil {
		t.Fatal(err)
	}
	if len(ss) != 2 {
		t.Fatalf("got %d specs, want 2", len(ss))
	}
	// Registry order is preserved regardless of request order.
	if ss[0].ID != "fig2" || ss[1].ID != "table1" {
		t.Errorf("spec order: %s, %s", ss[0].ID, ss[1].ID)
	}
	for _, s := range ss {
		if len(s.WallNs) != 3 {
			t.Errorf("%s: %d samples, want 3", s.ID, len(s.WallNs))
		}
		if s.Title == "" {
			t.Errorf("%s: empty title", s.ID)
		}
		for _, w := range s.WallNs {
			if w <= 0 {
				t.Errorf("%s: non-positive wall sample %d", s.ID, w)
			}
		}
	}
	if ss[0].Phases == nil {
		t.Error("fig2: no phase breakdown captured")
	}
	if _, err := RunSampled([]string{"nope"}, 1); err == nil {
		t.Error("unknown spec id accepted")
	}
}
