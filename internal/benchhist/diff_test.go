package benchhist

import (
	"strings"
	"testing"
	"time"
)

func entryWith(commit string, specs map[string][]int64, fps map[string]*Fingerprint) *Entry {
	e := &Entry{
		SchemaVersion: SchemaVersion,
		Commit:        commit,
		Time:          time.Date(2026, 8, 5, 12, 0, 0, 0, time.UTC),
		Host:          Host{OS: "linux", Arch: "amd64", CPUs: 8, GoVersion: "go1.22"},
		Specs:         map[string]*SpecTiming{},
		Fingerprints:  fps,
	}
	for id, wall := range specs {
		e.Specs[id] = NewSpecTiming(id, wall, nil)
		e.Samples = len(wall)
	}
	return e
}

func TestDiffVerdicts(t *testing.T) {
	base := []int64{100, 101, 99, 102, 100}
	slower := []int64{150, 151, 149, 152, 150}
	faster := []int64{50, 51, 49, 52, 50}
	jitter := []int64{101, 100, 99, 102, 101} // same distribution

	old := entryWith("aaaa", map[string][]int64{
		"steady": base, "regressed": base, "improved": base, "gone": base,
	}, nil)
	nw := entryWith("bbbb", map[string][]int64{
		"steady": jitter, "regressed": slower, "improved": faster, "fresh": base,
	}, nil)

	r := Diff(old, nw, DefaultThresholds())
	got := map[string]Verdict{}
	for _, d := range r.Specs {
		got[d.Spec] = d.Verdict
	}
	want := map[string]Verdict{
		"steady":    VerdictNoChange,
		"regressed": VerdictSlower,
		"improved":  VerdictFaster,
		"gone":      VerdictRemoved,
		"fresh":     VerdictAdded,
	}
	for spec, w := range want {
		if got[spec] != w {
			t.Errorf("%s: verdict %v, want %v", spec, got[spec], w)
		}
	}
	out := r.String()
	for _, w := range []string{"regressed", "slower", "improved", "faster", "no change"} {
		if !strings.Contains(out, w) {
			t.Errorf("String() missing %q:\n%s", w, out)
		}
	}
}

func TestDiffSmallSampleNeverSignificant(t *testing.T) {
	// With one sample per side the Mann–Whitney p floor is 2/C(2,1) = 1:
	// even a 10x slowdown must report "no change" rather than a
	// false-confidence verdict.
	old := entryWith("aaaa", map[string][]int64{"s": {100}}, nil)
	nw := entryWith("bbbb", map[string][]int64{"s": {1000}}, nil)
	r := Diff(old, nw, DefaultThresholds())
	if r.Specs[0].Verdict != VerdictNoChange {
		t.Errorf("verdict %v, want no change (insufficient samples)", r.Specs[0].Verdict)
	}
}

func TestDiffIdenticalRunsReportNoChange(t *testing.T) {
	fp := map[string]*Fingerprint{
		"w1": {Matches: 3, Configs: 8, Widenings: 2, MemoHits: 40, MemoMisses: 4,
			LintFindings: map[string]int{"PSDF-W006": 1}},
	}
	samples := map[string][]int64{"fig2": {100, 101, 102, 99, 100}}
	r := Diff(entryWith("aaaa", samples, fp), entryWith("bbbb", samples, fp), DefaultThresholds())
	if r.PrecisionChanged() {
		t.Errorf("identical fingerprints reported as changed: %+v", r.Fingerprints)
	}
	for _, d := range r.Specs {
		if d.Verdict != VerdictNoChange {
			t.Errorf("%s: verdict %v, want no change", d.Spec, d.Verdict)
		}
	}
	fails, warns := r.GateWith(GatePolicy{FailOnTime: true})
	if len(fails) != 0 || len(warns) != 0 {
		t.Errorf("gate on identical runs: failures %v, warnings %v", fails, warns)
	}
}

func TestDiffPrecisionChange(t *testing.T) {
	oldFP := map[string]*Fingerprint{
		"w1": {Matches: 3, Tops: 0, MemoHits: 7, LintFindings: map[string]int{"PSDF-W006": 1}},
	}
	newFP := map[string]*Fingerprint{
		"w1": {Matches: 3, Tops: 1, MemoHits: 0, LintFindings: map[string]int{"PSDF-W006": 1, "PSDF-E005": 1}},
	}
	samples := map[string][]int64{"fig2": {100, 101, 102}}
	r := Diff(entryWith("aaaa", samples, oldFP), entryWith("bbbb", samples, newFP), DefaultThresholds())
	if !r.PrecisionChanged() {
		t.Fatal("precision change not detected")
	}
	changed := r.Fingerprints[0].Changed
	joined := strings.Join(changed, "\n")
	for _, w := range []string{"tops: 0 -> 1", "memo_hits: 7 -> 0", "lint[PSDF-E005]: 0 -> 1"} {
		if !strings.Contains(joined, w) {
			t.Errorf("diff lines missing %q:\n%s", w, joined)
		}
	}
	// Precision deltas hard-fail the gate regardless of the timing policy.
	fails, _ := r.GateWith(GatePolicy{})
	if len(fails) == 0 {
		t.Error("gate did not fail on a precision delta")
	}
	if !strings.Contains(strings.Join(fails, "\n"), "w1") {
		t.Errorf("gate failure does not name the workload: %v", fails)
	}
}

func TestDiffFingerprintAddedRemoved(t *testing.T) {
	samples := map[string][]int64{"fig2": {100}}
	oldE := entryWith("aaaa", samples, map[string]*Fingerprint{"w1": {}, "w2": {}})
	newE := entryWith("bbbb", samples, map[string]*Fingerprint{"w1": {}, "w3": {}})
	r := Diff(oldE, newE, DefaultThresholds())
	fails, warns := r.GateWith(GatePolicy{})
	if len(fails) != 1 || !strings.Contains(fails[0], "w2") {
		t.Errorf("removed workload should fail the gate: %v", fails)
	}
	found := false
	for _, w := range warns {
		if strings.Contains(w, "w3") {
			found = true
		}
	}
	if !found {
		t.Errorf("added workload should warn: %v", warns)
	}
}

func TestGateTimingPolicy(t *testing.T) {
	base := []int64{100, 101, 99, 102, 100}
	slower := []int64{200, 201, 199, 202, 200}
	oldE := entryWith("aaaa", map[string][]int64{"s": base}, nil)
	newE := entryWith("bbbb", map[string][]int64{"s": slower}, nil)

	r := Diff(oldE, newE, DefaultThresholds())
	if fails, warns := r.GateWith(GatePolicy{}); len(fails) != 0 || len(warns) != 1 {
		t.Errorf("warn-only policy: failures %v, warnings %v", fails, warns)
	}
	if fails, _ := r.GateWith(GatePolicy{FailOnTime: true}); len(fails) != 1 {
		t.Errorf("fail-on-time policy: failures %v", fails)
	}

	// Different hosts: timing downgrades to a warning even under
	// fail-on-time.
	newE.Host.CPUs = 2
	r = Diff(oldE, newE, DefaultThresholds())
	if !r.HostsDiffer {
		t.Fatal("HostsDiffer not set")
	}
	if fails, warns := r.GateWith(GatePolicy{FailOnTime: true}); len(fails) != 0 || len(warns) != 1 {
		t.Errorf("cross-host policy: failures %v, warnings %v", fails, warns)
	}
}

func TestMarkdownRendering(t *testing.T) {
	base := []int64{100, 101, 99, 102, 100}
	fp := map[string]*Fingerprint{"w1": {Matches: 1}}
	fp2 := map[string]*Fingerprint{"w1": {Matches: 2}}
	r := Diff(entryWith("aaaa1111deadbeef", map[string][]int64{"s": base}, fp),
		entryWith("bbbb2222deadbeef", map[string][]int64{"s": base}, fp2), DefaultThresholds())
	md := r.Markdown()
	for _, w := range []string{"| spec |", "`aaaa1111dead`", "matches: 1 -> 2", "**changed**"} {
		if !strings.Contains(md, w) {
			t.Errorf("Markdown() missing %q:\n%s", w, md)
		}
	}
}

func TestFingerprintEqual(t *testing.T) {
	a := &Fingerprint{Matches: 1, MemoHits: 3, MemoMisses: 1}
	b := &Fingerprint{Matches: 1, MemoHits: 3, MemoMisses: 1}
	if !a.Equal(b) {
		t.Error("identical fingerprints not Equal")
	}
	b.Topology = "[0]->[1]"
	if a.Equal(b) {
		t.Error("topology change not detected")
	}
}

func TestGateAllocPolicy(t *testing.T) {
	base := []int64{100, 101, 99, 102, 100}
	oldE := entryWith("aaaa", map[string][]int64{"stencil": base, "engine": base, "fig2": base}, nil)
	newE := entryWith("bbbb", map[string][]int64{"stencil": base, "engine": base, "fig2": base}, nil)
	oldE.Specs["stencil"].AllocsPerOp, oldE.Specs["stencil"].BytesPerOp = 1000, 64000
	newE.Specs["stencil"].AllocsPerOp, newE.Specs["stencil"].BytesPerOp = 1500, 96000 // +50%
	oldE.Specs["engine"].AllocsPerOp = 2000
	newE.Specs["engine"].AllocsPerOp = 2100 // +5%, inside the threshold
	// fig2 carries no alloc data on either side: no delta, no gate entry.

	r := Diff(oldE, newE, DefaultThresholds())
	var stencil, engine, fig2 SpecDiff
	for _, d := range r.Specs {
		switch d.Spec {
		case "stencil":
			stencil = d
		case "engine":
			engine = d
		case "fig2":
			fig2 = d
		}
	}
	if !stencil.HasAllocDelta || stencil.AllocDelta < 0.49 || stencil.AllocDelta > 0.51 {
		t.Errorf("stencil alloc delta = %+v", stencil)
	}
	if !engine.HasAllocDelta {
		t.Errorf("engine alloc delta missing: %+v", engine)
	}
	if fig2.HasAllocDelta {
		t.Errorf("fig2 should have no alloc delta: %+v", fig2)
	}

	// Default policy: the regression warns but does not fail.
	fails, warns := r.GateWith(GatePolicy{})
	if len(fails) != 0 || len(warns) != 1 || !strings.Contains(warns[0], "stencil") {
		t.Errorf("warn-only policy: failures %v, warnings %v", fails, warns)
	}
	// FailOnAllocs promotes it; the within-threshold engine stays silent.
	fails, warns = r.GateWith(GatePolicy{FailOnAllocs: true})
	if len(fails) != 1 || !strings.Contains(fails[0], "stencil") {
		t.Errorf("fail-on-allocs policy: failures %v", fails)
	}
	if len(warns) != 0 {
		t.Errorf("fail-on-allocs policy: unexpected warnings %v", warns)
	}

	// The rendered tables grow allocs columns once any side has data.
	if out := r.String(); !strings.Contains(out, "al/op") || !strings.Contains(out, "+50.0%") {
		t.Errorf("String() missing alloc columns:\n%s", out)
	}
	if md := r.Markdown(); !strings.Contains(md, "allocs/op") {
		t.Errorf("Markdown() missing alloc columns:\n%s", md)
	}

	// Entries without alloc data keep the legacy narrow table.
	r2 := Diff(entryWith("cccc", map[string][]int64{"s": base}, nil),
		entryWith("dddd", map[string][]int64{"s": base}, nil), DefaultThresholds())
	if out := r2.String(); strings.Contains(out, "al/op") {
		t.Errorf("String() grew alloc columns without data:\n%s", out)
	}
}
