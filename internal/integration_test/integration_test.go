// Package integration_test runs the full pipeline — parse, analyze,
// classify, lint, and validate against the simulator — over every
// workload in the benchmark suite.
package integration_test

import (
	"strings"
	"testing"

	"repro/internal/ast"
	"repro/internal/bench"
	"repro/internal/cfg"
	"repro/internal/clients/cartesian"
	"repro/internal/core"
	"repro/internal/diag"
	"repro/internal/lint"
	"repro/internal/modelcheck"
	"repro/internal/mpicfg"
	"repro/internal/topology"
	"repro/internal/validate"
)

func scalesFor(w *bench.Workload) []int {
	if strings.HasPrefix(w.Name, "nascg") {
		return []int{2, 3}
	}
	return []int{4, 7}
}

// lintWorkload runs the lint passes over a workload's completed analysis.
func lintWorkload(w *bench.Workload, prog *ast.Program, g *cfg.Graph, res *core.Result) *lint.Report {
	return lint.Run(&lint.Target{Path: w.Name + ".mpl", Prog: prog, File: prog.File, G: g, Res: res}, lint.Options{})
}

func TestFullPipelineOnAllWorkloads(t *testing.T) {
	for _, w := range bench.All() {
		w := w
		t.Run(w.Name, func(t *testing.T) {
			prog, g := w.Parse()
			m := cartesian.New(core.ScanInvariants(g))
			res, err := core.Analyze(g, core.Options{Matcher: m})
			if err != nil {
				t.Fatalf("analyze: %v", err)
			}
			if !res.Clean() {
				t.Fatalf("analysis not clean: %v", res.TopReasons())
			}
			// Topology classification matches the expectation.
			rep := topology.Build(g, res)
			if rep.Overall.String() != w.WantPattern {
				t.Errorf("pattern = %v, want %v\n%s", rep.Overall, w.WantPattern, rep)
			}
			// No lint findings on correct programs.
			if rep := lintWorkload(w, prog, g, res); len(rep.Diags) > 0 {
				t.Errorf("lint findings on clean program: %+v", rep.Diags)
			}
			// Static topology matches concrete ground truth at each scale.
			for _, scale := range scalesFor(w) {
				np := w.NPFor(scale)
				if err := validate.Check(g, res, np, w.Env(scale)); err != nil {
					t.Errorf("scale %d: %v", scale, err)
				}
			}
		})
	}
}

func TestPrecisionVsMPICFG(t *testing.T) {
	// E9: the pCFG analysis must never report more topology edges than the
	// MPI-CFG baseline (which connects all sends to all receives), and on
	// programs with several distinct communication phases it is strictly
	// more precise.
	strictlyBetter := 0
	for _, w := range bench.All() {
		_, g := w.Parse()
		m := cartesian.New(core.ScanInvariants(g))
		res, err := core.Analyze(g, core.Options{Matcher: m})
		if err != nil || !res.Clean() {
			t.Fatalf("%s: %v %v", w.Name, err, res.TopReasons())
		}
		pcfgEdges := map[[2]int]bool{}
		for _, mt := range res.Matches {
			pcfgEdges[[2]int{mt.SendNode, mt.RecvNode}] = true
		}
		base := mpicfg.Analyze(g)
		if len(pcfgEdges) > len(base.Edges) {
			t.Errorf("%s: pCFG %d edges > MPI-CFG %d", w.Name, len(pcfgEdges), len(base.Edges))
		}
		if len(pcfgEdges) < len(base.Edges) {
			strictlyBetter++
		}
		// Every pCFG edge must appear in the baseline (it over-approximates).
		baseSet := map[[2]int]bool{}
		for _, e := range base.Edges {
			baseSet[[2]int{e.SendNode, e.RecvNode}] = true
		}
		for e := range pcfgEdges {
			if !baseSet[e] {
				t.Errorf("%s: pCFG edge %v missing from MPI-CFG over-approximation", w.Name, e)
			}
		}
	}
	if strictlyBetter == 0 {
		t.Error("pCFG analysis never strictly more precise than MPI-CFG")
	}
}

func TestModelCheckAgreesWithAnalysis(t *testing.T) {
	// E8 sanity: the explicit-state baseline finds exactly the edges the
	// symbolic analysis predicts, for each concrete np.
	for _, w := range bench.All() {
		_, g := w.Parse()
		m := cartesian.New(core.ScanInvariants(g))
		res, err := core.Analyze(g, core.Options{Matcher: m})
		if err != nil || !res.Clean() {
			t.Fatalf("%s: analysis failed", w.Name)
		}
		scale := scalesFor(w)[0]
		mc, err := modelcheck.Check(g, w.NPFor(scale), w.Env(scale))
		if err != nil {
			t.Fatalf("%s: %v", w.Name, err)
		}
		if mc.Deadlocked {
			t.Fatalf("%s: model check deadlocked", w.Name)
		}
		pcfgEdges := map[[2]int]bool{}
		for _, mt := range res.Matches {
			pcfgEdges[[2]int{mt.SendNode, mt.RecvNode}] = true
		}
		for e := range mc.Edges {
			if !pcfgEdges[e] {
				t.Errorf("%s: concrete edge %v not predicted statically", w.Name, e)
			}
		}
	}
}

func TestVerifyFindsInjectedBugs(t *testing.T) {
	// E10: the lint passes report the leak and the type mismatch.
	codes := func(w *bench.Workload) map[string]int {
		prog, g := w.Parse()
		m := cartesian.New(core.ScanInvariants(g))
		res, err := core.Analyze(g, core.Options{Matcher: m})
		if err != nil {
			t.Fatal(err)
		}
		out := map[string]int{}
		for _, d := range lintWorkload(w, prog, g, res).Diags {
			out[d.Code]++
		}
		return out
	}
	if c := codes(bench.LeakyBroadcast()); c[diag.CodeMessageLeak]+c[diag.CodeDeadlock]+c[diag.CodeAnalysisGaveUp] == 0 {
		t.Errorf("leak not reported: %v", c)
	}
	if c := codes(bench.TypeMismatch()); c[diag.CodeTagMismatch] == 0 {
		t.Errorf("type mismatch not reported: %v", c)
	}
}
