package experiments

import (
	"fmt"

	"repro/internal/bench"
	"repro/internal/benchhist"
	"repro/internal/cg"
	"repro/internal/clients/cartesian"
	"repro/internal/core"
	"repro/internal/lint"
)

// CaptureFingerprint analyzes one workload sequentially with the cartesian
// client and distills the run into its precision fingerprint: what was
// proved (matches, topology, clean terminals), what was given up (⊤
// configurations, widenings), how it was proved (simple vs HSM matches,
// cache behavior), and what the lint passes conclude. Sequential analysis
// is deterministic, so two captures of the same code on the same workload
// are facet-for-facet identical; any delta between commits is a real
// behavioral change.
func CaptureFingerprint(w *bench.Workload) (*benchhist.Fingerprint, error) {
	prog, g := w.Parse()
	m := cartesian.New(core.ScanInvariants(g))
	res, err := core.Analyze(g, core.Options{
		Matcher:          m,
		CGOpts:           cg.Options{Backend: cg.ArrayBackend},
		RecordCommBounds: true,
	})
	if err != nil {
		return nil, fmt.Errorf("%s: %w", w.Name, err)
	}

	fp := &benchhist.Fingerprint{
		Matches:   len(res.Matches),
		Finals:    len(res.Finals),
		Tops:      len(res.Tops),
		Configs:   res.Configs,
		Steps:     res.Steps,
		Widenings: res.Widenings,
		Topology:  matchSummary(res),

		SimpleMatches: m.SimpleMatches(),
		HSMAttempts:   m.HSMAttemptCount(),
		HSMMatches:    m.HSMMatchCount(),

		MemoHits:     m.Memo().HitCount(),
		MemoMisses:   m.Memo().MissCount(),
		ProverProofs: m.Prover().Proofs,
	}

	// Lint verdicts over the same analysis: finding counts per diagnostic
	// code plus the rank-bounds summary.
	rep := lint.Run(&lint.Target{Path: w.Name + ".mpl", Prog: prog, File: prog.File, G: g, Res: res}, lint.Options{})
	if len(rep.Diags) > 0 {
		fp.LintFindings = map[string]int{}
		for _, d := range rep.Diags {
			fp.LintFindings[d.Code]++
		}
	}
	fp.BoundsProven = rep.Bounds.Proven
	fp.BoundsByMatch = rep.Bounds.ProvenByMatch
	fp.BoundsViol = rep.Bounds.Violated
	fp.BoundsUnknown = rep.Bounds.Unknown
	fp.BoundsNonAff = rep.Bounds.NonAffine
	return fp, nil
}

// CaptureFingerprints captures the precision fingerprint of every workload
// in the evaluation suite (bench.All), keyed by workload name.
func CaptureFingerprints() (map[string]*benchhist.Fingerprint, error) {
	out := map[string]*benchhist.Fingerprint{}
	for _, w := range bench.All() {
		fp, err := CaptureFingerprint(w)
		if err != nil {
			return nil, err
		}
		out[w.Name] = fp
	}
	return out, nil
}
