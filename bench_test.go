// Package repro's benchmark harness regenerates the paper's evaluation as
// testing.B benchmarks: one benchmark per figure/table (see DESIGN.md's
// per-experiment index) plus ablations for the design choices called out in
// Section IX. Run with:
//
//	go test -bench=. -benchmem
//
// The human-readable paper-vs-measured tables are printed by `psdf bench run`.
package repro

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/bench"
	"repro/internal/cg"
	"repro/internal/clients/cartesian"
	"repro/internal/core"
	"repro/internal/hsm"
	"repro/internal/modelcheck"
	"repro/internal/mpicfg"
	"repro/internal/sim"
	"repro/internal/sym"
)

// analyzeWorkload runs the full analysis once; the benchmark fails on any
// incomplete analysis so timing numbers always describe successful runs.
func analyzeWorkload(b *testing.B, w *bench.Workload, backend cg.Backend) *core.Result {
	b.Helper()
	_, g := w.Parse()
	m := cartesian.New(core.ScanInvariants(g))
	res, err := core.Analyze(g, core.Options{Matcher: m, CGOpts: cg.Options{Backend: backend}})
	if err != nil {
		b.Fatal(err)
	}
	if !res.Clean() {
		b.Fatalf("%s: analysis incomplete: %v", w.Name, res.TopReasons())
	}
	return res
}

func benchAnalysis(b *testing.B, w *bench.Workload) {
	b.Helper()
	var res *core.Result
	for i := 0; i < b.N; i++ {
		res = analyzeWorkload(b, w, cg.ArrayBackend)
	}
	b.ReportMetric(float64(res.Configs), "pcfg-nodes")
	b.ReportMetric(float64(len(res.Matches)), "topology-edges")
}

// E1 / Fig 2: constant propagation across an exchange.
func BenchmarkFig2Exchange(b *testing.B) { benchAnalysis(b, bench.Fig2Exchange()) }

// E2 / Figs 1&5: mdcask exchange-with-root.
func BenchmarkFig5ExchangeRoot(b *testing.B) { benchAnalysis(b, bench.Fig5ExchangeRoot()) }

// E3 / Fig 6: NAS-CG transpose, both grid shapes.
func BenchmarkFig6TransposeSquare(b *testing.B) { benchAnalysis(b, bench.TransposeSquare()) }
func BenchmarkFig6TransposeRect(b *testing.B)   { benchAnalysis(b, bench.TransposeRect()) }

// E4 / Figs 7&8: 1-D nearest-neighbor shift.
func BenchmarkFig7Shift(b *testing.B) { benchAnalysis(b, bench.Fig7Shift()) }

// E11 / Section VIII-C: the full bidirectional d=1 stencil (3 roles).
func BenchmarkStencil1D(b *testing.B) { benchAnalysis(b, bench.Stencil1D()) }

// Parallel analysis driver: the full workload suite through core.AnalyzeAll,
// sequentially and on the bounded worker pool (one worker per CPU).
func BenchmarkAnalyzeAllWorkloads(b *testing.B) {
	ws := bench.All()
	mkJobs := func() []core.Job {
		jobs := make([]core.Job, len(ws))
		for i, w := range ws {
			_, g := w.Parse()
			jobs[i] = core.Job{
				Name: w.Name,
				G:    g,
				Opts: core.Options{Matcher: cartesian.New(core.ScanInvariants(g))},
			}
		}
		return jobs
	}
	for _, cfg := range []struct {
		name        string
		parallelism int
	}{{"serial", 1}, {"parallel", 0}} {
		cfg := cfg
		b.Run(cfg.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				jobs := mkJobs()
				b.StartTimer()
				for _, jr := range core.AnalyzeAll(jobs, cfg.parallelism) {
					if jr.Err != nil {
						b.Fatalf("%s: %v", jr.Name, jr.Err)
					}
				}
			}
		})
	}
}

// E5 / Table I: the HSM operation suite (mod, div, adjacency, interleave,
// swap, and the symbolic square-grid derivation).
func BenchmarkTableIHSMOps(b *testing.B) {
	nr := sym.Var("nrows")
	ctx := hsm.NewCtx().WithLowerBound("nrows", 1)
	id := hsm.IDRange(sym.Zero, sym.Mul(nr, nr))
	h1 := hsm.Run(sym.Const(12), sym.Const(15), sym.Const(2))
	h2 := hsm.Run(sym.Const(20), sym.Const(6), sym.Const(5))
	p := hsm.NewProver(ctx)
	a := hsm.Node(hsm.Run(sym.Const(2), sym.Const(3), sym.Const(4)), sym.Const(2), sym.Const(2))
	flat := hsm.Run(sym.Const(2), sym.Const(6), sym.Const(2))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := ctx.Mod(h1, sym.Const(6)); err != nil {
			b.Fatal(err)
		}
		if _, err := ctx.Div(h2, sym.Const(10)); err != nil {
			b.Fatal(err)
		}
		if _, err := ctx.Mod(id, nr); err != nil {
			b.Fatal(err)
		}
		if _, err := ctx.Div(id, nr); err != nil {
			b.Fatal(err)
		}
		if !p.SetEqual(a, flat) {
			b.Fatal("interleave proof failed")
		}
	}
}

// E6 / Section IX: the fan-out broadcast profile; reports the dataflow
// state-maintenance share and closure call counts as metrics.
func BenchmarkSectionIXProfile(b *testing.B) {
	w := bench.Fanout()
	_, g := w.Parse()
	var stats cg.Stats
	var res *core.Result
	for i := 0; i < b.N; i++ {
		m := cartesian.New(core.ScanInvariants(g))
		var err error
		res, err = core.Analyze(g, core.Options{Matcher: m, CGOpts: cg.Options{Stats: &stats}})
		if err != nil || !res.Clean() {
			b.Fatalf("%v %v", err, res.TopReasons())
		}
	}
	b.ReportMetric(float64(stats.IncrClosures())/float64(b.N), "incr-closures/op")
	b.ReportMetric(stats.AvgIncrVars(), "avg-closure-vars")
	b.ReportMetric(float64(stats.Joins())/float64(b.N), "joins/op")
}

// E7 / Section IX storage ablation: identical closure workload on the
// array-backed and map-backed constraint graphs.
func BenchmarkClosureBackends(b *testing.B) {
	mkWork := func() [][3]int64 {
		r := rand.New(rand.NewSource(42))
		var work [][3]int64
		for i := 0; i < 400; i++ {
			work = append(work, [3]int64{int64(r.Intn(60)), int64(r.Intn(60)), int64(r.Intn(20))})
		}
		return work
	}
	for _, backend := range []cg.Backend{cg.ArrayBackend, cg.MapBackend} {
		backend := backend
		b.Run(backend.String(), func(b *testing.B) {
			work := mkWork()
			for i := 0; i < b.N; i++ {
				g := cg.New(cg.Options{Backend: backend})
				for _, w := range work {
					g.AddLE(fmt.Sprintf("v%d", w[0]), fmt.Sprintf("v%d", w[1]), w[2])
				}
			}
		})
	}
}

// Ablation: O(n^2) incremental closure maintenance vs O(n^3) full
// re-closure after every constraint (the paper's two transitive-closure
// variants).
func BenchmarkIncrementalVsFullClosure(b *testing.B) {
	r := rand.New(rand.NewSource(7))
	var work [][3]int64
	for i := 0; i < 120; i++ {
		work = append(work, [3]int64{int64(r.Intn(40)), int64(r.Intn(40)), int64(r.Intn(15) + 1)})
	}
	b.Run("incremental", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			g := cg.NewDefault()
			for _, w := range work {
				g.AddLE(fmt.Sprintf("v%d", w[0]), fmt.Sprintf("v%d", w[1]), w[2])
			}
		}
	})
	b.Run("full", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			g := cg.NewDefault()
			for _, w := range work {
				g.AddLE(fmt.Sprintf("v%d", w[0]), fmt.Sprintf("v%d", w[1]), w[2])
				g.FullClose()
			}
		}
	})
}

// E8: the explicit-state baseline's cost grows with np while the pCFG
// analysis is np-independent.
func BenchmarkScalingVsNp(b *testing.B) {
	w := bench.Fig5ExchangeRoot()
	_, g := w.Parse()
	b.Run("pcfg-any-np", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			analyzeWorkload(b, w, cg.ArrayBackend)
		}
	})
	for _, np := range []int{4, 16, 64, 256} {
		np := np
		b.Run(fmt.Sprintf("modelcheck-np%d", np), func(b *testing.B) {
			var states int
			for i := 0; i < b.N; i++ {
				mc, err := modelcheck.Check(g, np, nil)
				if err != nil || mc.Deadlocked {
					b.Fatal(err)
				}
				states = mc.States
			}
			b.ReportMetric(float64(states), "states")
		})
	}
}

// E9: MPI-CFG baseline precision comparison; reports edge counts.
func BenchmarkPrecisionVsMPICFG(b *testing.B) {
	var pcfgEdges, baseEdges int
	for i := 0; i < b.N; i++ {
		pcfgEdges, baseEdges = 0, 0
		for _, w := range bench.All() {
			res := analyzeWorkload(b, w, cg.ArrayBackend)
			seen := map[[2]int]bool{}
			for _, m := range res.Matches {
				seen[[2]int{m.SendNode, m.RecvNode}] = true
			}
			pcfgEdges += len(seen)
			_, g := w.Parse()
			baseEdges += len(mpicfg.Analyze(g).Edges)
		}
	}
	b.ReportMetric(float64(pcfgEdges), "pcfg-edges")
	b.ReportMetric(float64(baseEdges), "mpicfg-edges")
}

// E10: error-detection workloads (the analysis correctly reaches ⊤ or a
// type-mismatch finding; timing covers the give-up path).
func BenchmarkVerify(b *testing.B) {
	workloads := []*bench.Workload{bench.LeakyBroadcast(), bench.TypeMismatch()}
	for i := 0; i < b.N; i++ {
		for _, w := range workloads {
			_, g := w.Parse()
			m := cartesian.New(core.ScanInvariants(g))
			if _, err := core.Analyze(g, core.Options{Matcher: m}); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// E11: concrete d-dimensional stencil execution.
func BenchmarkStencilDims(b *testing.B) {
	for d := 1; d <= 3; d++ {
		d := d
		b.Run(fmt.Sprintf("d%d", d), func(b *testing.B) {
			w := bench.StencilDim(d, 3)
			_, g := w.Parse()
			var msgs int
			for i := 0; i < b.N; i++ {
				res, err := sim.Run(g, w.NPFor(0), sim.Options{})
				if err != nil || res.Deadlocked {
					b.Fatal(err)
				}
				msgs = len(res.Events)
			}
			b.ReportMetric(float64(msgs), "messages")
		})
	}
}

// E12 / Section X ablation: the same send-first program analyzed with
// blocking sends (pipeline widening) vs the aggregated non-blocking
// extension.
func BenchmarkAggregationAblation(b *testing.B) {
	w := bench.SendFirstShift()
	_, g := w.Parse()
	for _, nb := range []bool{false, true} {
		nb := nb
		name := "blocking"
		if nb {
			name = "aggregated"
		}
		b.Run(name, func(b *testing.B) {
			var res *core.Result
			for i := 0; i < b.N; i++ {
				m := cartesian.New(core.ScanInvariants(g))
				var err error
				res, err = core.Analyze(g, core.Options{Matcher: m, NonBlockingSends: nb})
				if err != nil || !res.Clean() {
					b.Fatalf("%v %v", err, res.TopReasons())
				}
			}
			b.ReportMetric(float64(res.Configs), "pcfg-nodes")
		})
	}
}

// Baseline infrastructure benchmarks: the simulator itself.
func BenchmarkSimulator(b *testing.B) {
	w := bench.Fig7Shift()
	_, g := w.Parse()
	for _, np := range []int{8, 64, 512} {
		np := np
		b.Run(fmt.Sprintf("np%d", np), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := sim.Run(g, np, sim.Options{}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// Ablation: HSM prover search budget vs proof success on the rectangular
// transpose surjection (the hardest routine proof in the suite).
func BenchmarkProverDepth(b *testing.B) {
	nr := sym.Var("nrows")
	ctx := hsm.NewCtx().
		WithInvariant("np", sym.Scale(sym.Mul(nr, nr), 2)).
		WithLowerBound("nrows", 1)
	// The rectangular send HSM: [[[0:2,1]:nrows,2*nrows]:nrows,2].
	h := hsm.Node(
		hsm.Node(hsm.Run(sym.Zero, sym.Const(2), sym.One), nr, sym.Scale(nr, 2)),
		nr, sym.Const(2))
	target := hsm.IDRange(sym.Zero, sym.Scale(sym.Mul(nr, nr), 2))
	for _, depth := range []int{2, 4, 8} {
		depth := depth
		b.Run(fmt.Sprintf("depth%d", depth), func(b *testing.B) {
			ok := false
			for i := 0; i < b.N; i++ {
				p := hsm.NewProver(ctx)
				p.MaxDepth = depth
				ok = p.SetEqual(h, target)
			}
			if ok {
				b.ReportMetric(1, "proved")
			} else {
				b.ReportMetric(0, "proved")
			}
		})
	}
}

// Sanity: the CFG builder on a large generated program (frontend cost).
func BenchmarkFrontend(b *testing.B) {
	w := bench.StencilDim(3, 4)
	for i := 0; i < b.N; i++ {
		_, g := w.Parse()
		if len(g.Nodes) == 0 {
			b.Fatal("empty cfg")
		}
	}
}
