// Package experiments regenerates the paper's evaluation: one table per
// figure/table/measurement, each reporting the paper's published value next
// to the value measured from this implementation. The experiment ids match
// the per-experiment index in DESIGN.md; EXPERIMENTS.md records a captured
// run.
package experiments

import (
	"fmt"
	"runtime"
	"strings"
	"time"

	"repro/internal/bench"
	"repro/internal/cfg"
	"repro/internal/cg"
	"repro/internal/clients/cartesian"
	"repro/internal/core"
	"repro/internal/hsm"
	"repro/internal/lint"
	"repro/internal/modelcheck"
	"repro/internal/mpicfg"
	"repro/internal/obs"
	"repro/internal/sym"
	"repro/internal/topology"
	"repro/internal/validate"
)

// Row is one table line: a quantity, what the paper reports, and what this
// implementation measures.
type Row struct {
	Name     string
	Paper    string
	Measured string
}

// Table is one regenerated experiment.
type Table struct {
	ID    string
	Title string
	Rows  []Row
	Notes string
}

func (t *Table) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "== %s: %s ==\n", t.ID, t.Title)
	w := 0
	for _, r := range t.Rows {
		if len(r.Name) > w {
			w = len(r.Name)
		}
	}
	fmt.Fprintf(&b, "  %-*s | %-38s | %s\n", w, "quantity", "paper", "measured")
	fmt.Fprintf(&b, "  %s-+-%s-+-%s\n", strings.Repeat("-", w), strings.Repeat("-", 38), strings.Repeat("-", 30))
	for _, r := range t.Rows {
		fmt.Fprintf(&b, "  %-*s | %-38s | %s\n", w, r.Name, r.Paper, r.Measured)
	}
	if t.Notes != "" {
		fmt.Fprintf(&b, "  note: %s\n", t.Notes)
	}
	return b.String()
}

// analysisRun is one instrumented analysis execution. stats is a pointer:
// cg.Stats holds atomic counters and must not be copied.
type analysisRun struct {
	res     *core.Result
	g       *cfg.Graph
	matcher *cartesian.Matcher
	stats   *cg.Stats
	elapsed time.Duration
}

// runAnalysis analyzes a workload with the cartesian client on the given
// constraint-graph backend, collecting closure instrumentation. tr (may be
// nil) aggregates engine phase timings across the spec's analyses.
func runAnalysis(tr *obs.Tracer, w *bench.Workload, backend cg.Backend) (*analysisRun, error) {
	runs, err := runAnalyses(tr, []*bench.Workload{w}, backend, 1)
	if err != nil {
		return nil, err
	}
	return runs[0], nil
}

// runAnalyses analyzes a set of workloads through the core.AnalyzeAll
// bounded worker pool, one matcher and stats record per workload, returning
// instrumented runs in input order. parallelism <= 0 selects one worker per
// CPU; 1 runs sequentially. A shared non-nil tr accumulates engine phase
// totals across every job (the per-spec phases of a bench history entry);
// per-job breakdowns, when needed, come from
// core.AnalyzeAll's JobResult.Phases, not from this helper.
func runAnalyses(tr *obs.Tracer, ws []*bench.Workload, backend cg.Backend, parallelism int) ([]*analysisRun, error) {
	runs := make([]*analysisRun, len(ws))
	jobs := make([]core.Job, len(ws))
	for i, w := range ws {
		_, g := w.Parse()
		stats := &cg.Stats{}
		m := cartesian.New(core.ScanInvariants(g))
		runs[i] = &analysisRun{g: g, matcher: m, stats: stats}
		jobs[i] = core.Job{
			Name: w.Name,
			G:    g,
			Opts: core.Options{
				Matcher: m,
				CGOpts:  cg.Options{Backend: backend, Stats: stats},
				Tracer:  tr,
			},
		}
	}
	for i, jr := range core.AnalyzeAll(jobs, parallelism) {
		if jr.Err != nil {
			return nil, fmt.Errorf("%s: %w", jr.Name, jr.Err)
		}
		runs[i].res = jr.Res
		runs[i].elapsed = jr.Wall
	}
	return runs, nil
}

// Fig2 regenerates the Figure 2 walkthrough: constant propagation across a
// two-process exchange plus the detected topology.
func fig2(tr *obs.Tracer) (*Table, error) {
	run, err := runAnalysis(tr, bench.Fig2Exchange(), cg.ArrayBackend)
	if err != nil {
		return nil, err
	}
	res := run.res
	printsAt5 := 0
	for _, p := range res.Prints {
		if p.Known && p.Val == 5 {
			printsAt5++
		}
	}
	rep := topology.Build(run.g, res)
	return &Table{
		ID:    "fig2",
		Title: "Fig 2: constant propagation across an exchange (unbounded np)",
		Rows: []Row{
			{"analysis completes", "yes (fixed point reached)", yesNo(res.Clean())},
			{"both prints proven = 5", "yes", yesNo(printsAt5 == 2)},
			{"topology edges", "2 (0->1, 1->0)", fmt.Sprintf("%d (%s)", len(res.Matches), matchSummary(res))},
			{"pattern", "point-to-point exchange", rep.Overall.String()},
			{"pCFG nodes explored", "(not reported)", fmt.Sprintf("%d", res.Configs)},
		},
	}, nil
}

// Fig5 regenerates the mdcask exchange-with-root analysis: the loop
// invariant process sets and the collective-pattern detection motivating
// Section I.
func fig5(tr *obs.Tracer) (*Table, error) {
	run, err := runAnalysis(tr, bench.Fig5ExchangeRoot(), cg.ArrayBackend)
	if err != nil {
		return nil, err
	}
	res := run.res
	rep := topology.Build(run.g, res)
	bcast, gather := "-", "-"
	for _, e := range rep.Edges {
		switch e.Kind {
		case topology.Broadcast:
			bcast = fmt.Sprintf("%s -> %s", e.Sender, e.Receiver)
		case topology.Gather:
			gather = fmt.Sprintf("%s -> %s", e.Sender, e.Receiver)
		}
	}
	valErr := validate.Check(run.g, res, 9, nil)
	return &Table{
		ID:    "fig5",
		Title: "Figs 1&5: mdcask exchange-with-root (unbounded np)",
		Rows: []Row{
			{"analysis completes", "yes (loop fixed point)", yesNo(res.Clean())},
			{"root send edge", "[0] -> [1..np-1]", bcast},
			{"worker send edge", "[1..np-1] -> [0]", gather},
			{"pattern (Section I claim)", "condensable to broadcast + gather", rep.Overall.String()},
			{"matches simulator (np=9)", "(exact by construction)", errOK(valErr)},
		},
	}, nil
}

// Fig6 regenerates the NAS-CG transpose analysis for both grid shapes.
func fig6(tr *obs.Tracer) (*Table, error) {
	rows := []Row{}
	ws := []*bench.Workload{bench.TransposeSquare(), bench.TransposeRect()}
	runs, err := runAnalyses(tr, ws, cg.ArrayBackend, 0)
	if err != nil {
		return nil, err
	}
	for i, w := range ws {
		run := runs[i]
		kind := "square (ncols = nrows)"
		scale := 3
		if w.Name == "nascg_rect" {
			kind = "rectangular (ncols = 2*nrows)"
		}
		valErr := validate.Check(run.g, run.res, w.NPFor(scale), w.Env(scale))
		rows = append(rows,
			Row{kind + ": matched", "yes (HSM identity + surjection)", yesNo(run.res.Clean() && len(run.res.Matches) == 1)},
			Row{kind + ": HSM proofs used", ">= 1", fmt.Sprintf("%d", run.matcher.HSMMatchCount())},
			Row{kind + ": matches simulator", "(exact)", errOK(valErr)},
		)
	}
	return &Table{
		ID:    "fig6",
		Title: "Fig 6 / Section VIII-B: NAS-CG transpose over cartesian grids",
		Rows:  rows,
	}, nil
}

// Fig7 regenerates the 1-D nearest-neighbor shift, checking the exact Fig 8
// set-level matches.
func fig7(tr *obs.Tracer) (*Table, error) {
	run, err := runAnalysis(tr, bench.Fig7Shift(), cg.ArrayBackend)
	if err != nil {
		return nil, err
	}
	res := run.res
	have := map[string]bool{}
	for _, m := range res.Matches {
		have[fmt.Sprintf("%s -> %s", m.Sender, m.Receiver)] = true
	}
	row := func(want string) Row {
		return Row{"match " + want, want, yesNo(have[want])}
	}
	valErr := validate.Check(run.g, res, 16, nil)
	return &Table{
		ID:    "fig7",
		Title: "Figs 7&8: 1-D nearest-neighbor shift (unbounded np)",
		Rows: []Row{
			{"analysis completes", "yes", yesNo(res.Clean())},
			row("[0] -> [1]"),
			row("[1..np - 3] -> [2..np - 2]"),
			row("[np - 2] -> [np - 1]"),
			{"total matches", "3", fmt.Sprintf("%d", len(res.Matches))},
			{"matches simulator (np=16)", "(exact)", errOK(valErr)},
		},
		Notes: "the [1..np-3] match is found via parametric widening: no program variable tracks the pipeline position",
	}, nil
}

// TableI verifies the HSM operation examples printed in the paper's Table I
// discussion.
func tableI(tr *obs.Tracer) (*Table, error) {
	ctx := hsm.NewCtx()
	rows := []Row{}
	check := func(name, paper string, got bool) {
		rows = append(rows, Row{name, paper, yesNo(got)})
	}

	// [12:15,2] % 6 = <0,2,4> x 5.
	h := hsm.Run(sym.Const(12), sym.Const(15), sym.Const(2))
	m, err := ctx.Mod(h, sym.Const(6))
	ok := err == nil
	if ok {
		want := []int64{}
		for _, v := range h.Enumerate(nil, 100) {
			want = append(want, v%6)
		}
		got := m.Enumerate(nil, 100)
		ok = len(got) == len(want)
		for i := range want {
			if ok && got[i] != want[i] {
				ok = false
			}
		}
	}
	check("[12:15,2] % 6", "<0,2,4> repeated 5x", ok)

	// [20:6,5] / 10 = <2,2,3,3,4,4>.
	h = hsm.Run(sym.Const(20), sym.Const(6), sym.Const(5))
	d, err := ctx.Div(h, sym.Const(10))
	ok = err == nil && fmt.Sprint(d.Enumerate(nil, 100)) == "[2 2 3 3 4 4]"
	check("[20:6,5] / 10", "<2,2,3,3,4,4>", ok)

	// Adjacency: [[2:3,2]:2,6] = [2:6,2].
	p := hsm.NewProver(ctx)
	p.Tracer = tr
	p.TracePID = 1
	a := hsm.Node(hsm.Run(sym.Const(2), sym.Const(3), sym.Const(2)), sym.Const(2), sym.Const(6))
	b := hsm.Run(sym.Const(2), sym.Const(6), sym.Const(2))
	check("adjacency seq-equality", "[[2:3,2]:2,6] = [2:6,2]", p.SeqEqual(a, b))

	// Interleave: [[2:3,4]:2,2] ~ [2:6,2].
	a = hsm.Node(hsm.Run(sym.Const(2), sym.Const(3), sym.Const(4)), sym.Const(2), sym.Const(2))
	check("interleave set-equality", "<2,6,10,4,8,12> ~ <2,4,6,8,10,12>", p.SetEqual(a, b))

	// Swap: [[1:2,1]:3,10] ~ [[1:3,10]:2,1].
	a = hsm.Node(hsm.Run(sym.Const(1), sym.Const(2), sym.Const(1)), sym.Const(3), sym.Const(10))
	b = hsm.Node(hsm.Run(sym.Const(1), sym.Const(3), sym.Const(10)), sym.Const(2), sym.Const(1))
	check("swap set-equality", "<1,2,11,12,21,22> ~ <1,11,21,2,12,22>", p.SetEqual(a, b))

	// The symbolic square-grid derivation (Section VIII-A).
	nr := sym.Var("nrows")
	gctx := hsm.NewCtx().WithLowerBound("nrows", 1)
	id := hsm.IDRange(sym.Zero, sym.Mul(nr, nr))
	mod, err1 := gctx.Mod(id, nr)
	div, err2 := gctx.Div(id, nr)
	okDeriv := err1 == nil && err2 == nil &&
		mod.String() == "[[0:nrows,1]:nrows,0]" &&
		div.String() == "[[0:nrows,0]:nrows,1]"
	check("id%nrows, id/nrows over [0:nrows^2,1]",
		"[[0:nrows,1]:nrows,0], [[0:nrows,0]:nrows,1]", okDeriv)

	return &Table{ID: "table1", Title: "Table I: HSM operations and equality rules", Rows: rows}, nil
}

// ProfileSectionIX regenerates the Section IX performance profile on the
// fan-out broadcast: where the analysis time goes and how often the two
// closure variants run.
func profileSectionIX(tr *obs.Tracer) (*Table, error) {
	run, err := runAnalysis(tr, bench.Fanout(), cg.ArrayBackend)
	if err != nil {
		return nil, err
	}
	st := run.stats
	share := 0.0
	if run.elapsed > 0 {
		share = 100 * float64(st.MaintenanceTime()) / float64(run.elapsed)
	}
	return &Table{
		ID:    "profile",
		Title: "Section IX: fan-out broadcast analysis profile",
		Rows: []Row{
			{"analysis completes", "yes", yesNo(run.res.Clean())},
			{"total analysis time", "381 s (2.8 GHz Opteron, C++ prototype)", run.elapsed.String()},
			{"time maintaining dataflow state", "351 s = 92.5 %", fmt.Sprintf("%v = %.1f %%", st.MaintenanceTime().Round(time.Microsecond), share)},
			{"O(n^2) incremental closures", "78 calls, avg 66.3 vars", fmt.Sprintf("%d calls, avg %.1f vars", st.IncrClosures(), st.AvgIncrVars())},
			{"joins/widenings (O(n^2) each)", "(within the 92.5 %)", fmt.Sprintf("%d calls, avg %.1f vars", st.Joins(), st.AvgJoinVars())},
			{"O(n^3) full closures", "217 calls, avg 52.3 vars", fmt.Sprintf("%d calls, avg %.1f vars (joins of closed DBMs stay closed)", st.FullClosures(), st.AvgFullVars())},
			{"copy-on-write clones", "(not in paper: this repo's optimization)", fmt.Sprintf("%d O(1) clones, %d materialized on write", st.ClonesAvoided(), st.CoWMaterializations())},
			{"match-cache hit rate", "(not in paper: this repo's optimization)", fmt.Sprintf("%.0f %% of %d HSM match queries", 100*run.matcher.Memo().HitRate(), run.matcher.Memo().HitCount()+run.matcher.Memo().MissCount())},
		},
		Notes: "the paper's 92.5% closure share motivated its improvement list (arrays instead of containers, fewer variables, cheaper closure); this implementation applies those fixes — array DBMs, incremental O(n^2) closure, joins that preserve closure without an O(n^3) pass — which is why the maintenance share collapses from 92.5% to a few percent while call counts stay in the same range as the paper's",
	}, nil
}

// Storage regenerates the Section IX storage observation: array-backed
// constraint graphs versus container (map) backed ones, on a closure
// workload sized like the paper's profile (around 60 variables).
func storage(tr *obs.Tracer) (*Table, error) {
	type edge struct {
		x, y string
		c    int64
	}
	var work []edge
	seed := int64(42)
	next := func() int64 { seed = seed*6364136223846793005 + 1442695040888963407; return seed }
	for i := 0; i < 400; i++ {
		a := int(uint64(next()) % 60)
		b := int(uint64(next()) % 60)
		c := int64(uint64(next()) % 20)
		work = append(work, edge{fmt.Sprintf("v%d", a), fmt.Sprintf("v%d", b), c})
	}
	const reps = 5
	run := func(name string, backend cg.Backend) time.Duration {
		key := "storage/" + name
		asp := tr.Begin(0, 0, obs.PhaseAnalyze, key)
		start := time.Now()
		for r := 0; r < reps; r++ {
			// Each repetition is one closure-maintenance "step": build the
			// ~60-variable graph edge by edge, every AddLE restoring
			// closure incrementally.
			ssp := tr.Begin(0, 0, obs.PhaseStep, key)
			g := cg.New(cg.Options{Backend: backend})
			for _, w := range work {
				g.AddLE(w.x, w.y, w.c)
			}
			ssp.End()
			g.Release()
		}
		wall := time.Since(start)
		asp.End()
		return wall
	}
	tArr := run("array", cg.ArrayBackend)
	tMap := run("map", cg.MapBackend)
	ratio := 0.0
	if tArr > 0 {
		ratio = float64(tMap) / float64(tArr)
	}
	return &Table{
		ID:    "storage",
		Title: "Section IX: constraint-graph storage ablation (arrays vs containers)",
		Rows: []Row{
			{"workload", "~60-variable closure maintenance", fmt.Sprintf("%d constraints x %d reps, 60 vars", len(work), reps)},
			{"array backend", "(paper: proposed fix)", tArr.String()},
			{"map/container backend", "(paper: STL containers, slower; cache misses)", tMap.String()},
			{"container / array slowdown", "> 1x (qualitative claim)", fmt.Sprintf("%.2fx", ratio)},
		},
	}, nil
}

// Scaling regenerates the Section II scaling contrast: explicit-state
// checking grows with np; the pCFG analysis is np-independent.
func scaling(tr *obs.Tracer) (*Table, error) {
	w := bench.Fig5ExchangeRoot()
	run, err := runAnalysis(tr, w, cg.ArrayBackend)
	if err != nil {
		return nil, err
	}
	rows := []Row{
		{"pCFG analysis (any np)", "one analysis covers all np", fmt.Sprintf("%v, %d pCFG nodes", run.elapsed, run.res.Configs)},
	}
	for _, np := range []int{4, 8, 16, 32, 64} {
		start := time.Now()
		mc, err := modelcheck.Check(run.g, np, nil)
		if err != nil {
			return nil, err
		}
		rows = append(rows, Row{
			fmt.Sprintf("model check np=%d", np),
			"cost grows with np",
			fmt.Sprintf("%v, %d states", time.Since(start), mc.States),
		})
	}
	return &Table{ID: "scaling", Title: "E8: pCFG analysis vs explicit-state baseline", Rows: rows}, nil
}

// Precision regenerates the MPI-CFG comparison: topology edges per
// workload.
func precision(tr *obs.Tracer) (*Table, error) {
	rows := []Row{}
	ws := bench.All()
	runs, err := runAnalyses(tr, ws, cg.ArrayBackend, 0)
	if err != nil {
		return nil, err
	}
	for i, w := range ws {
		run := runs[i]
		pcfgEdges := map[[2]int]bool{}
		for _, m := range run.res.Matches {
			pcfgEdges[[2]int{m.SendNode, m.RecvNode}] = true
		}
		base := mpicfg.Analyze(run.g)
		rows = append(rows, Row{
			w.Name,
			"pCFG <= MPI-CFG edges",
			fmt.Sprintf("pCFG %d vs MPI-CFG %d", len(pcfgEdges), len(base.Edges)),
		})
	}
	return &Table{ID: "precision", Title: "E9: topology precision vs the MPI-CFG baseline", Rows: rows}, nil
}

// VerifyExp regenerates the error-detection experiment.
func verifyExp(tr *obs.Tracer) (*Table, error) {
	rows := []Row{}
	ws := []*bench.Workload{bench.LeakyBroadcast(), bench.TypeMismatch()}
	runs, err := runAnalyses(tr, ws, cg.ArrayBackend, 0)
	if err != nil {
		return nil, err
	}
	for i, w := range ws {
		run := runs[i]
		rep := lint.Run(&lint.Target{Path: w.Name + ".mpl", G: run.g, Res: run.res}, lint.Options{})
		codes := map[string]int{}
		for _, d := range rep.Diags {
			codes[d.Code]++
		}
		rows = append(rows, Row{w.Name, "bug detected", fmt.Sprintf("%v", codes)})
	}
	return &Table{ID: "verify", Title: "E10: error detection (message leaks, type mismatches)", Rows: rows}, nil
}

// Stencil regenerates the Section VIII-C stencil experiment: the 2d+1 role
// structure and concrete message counts per dimensionality.
func stencil(tr *obs.Tracer) (*Table, error) {
	run, err := runAnalysis(tr, bench.Stencil1D(), cg.ArrayBackend)
	if err != nil {
		return nil, err
	}
	rows := []Row{
		{"d=1 symbolic analysis", "3 roles (2d+1), both shifts matched", fmt.Sprintf("clean=%v, %d topology edges", run.res.Clean(), len(run.res.Matches))},
	}
	for d := 1; d <= 3; d++ {
		w := bench.StencilDim(d, 3)
		_, g := w.Parse()
		mc, err := modelcheck.Check(g, w.NPFor(0), nil)
		if err != nil {
			return nil, err
		}
		want := d * intPow(3, d-1) * 2
		rows = append(rows, Row{
			fmt.Sprintf("d=%d concrete (side=3)", d),
			fmt.Sprintf("%d directional messages", want),
			fmt.Sprintf("%d messages, %d edges", mc.MessageCount(), mc.EdgeCount()),
		})
	}
	return &Table{
		ID:    "stencil",
		Title: "E11 / Section VIII-C: d-dimensional nearest-neighbor stencils",
		Rows:  rows,
		Notes: "the paper demonstrates the d=1 case symbolically (as here); higher d is exercised concretely",
	}, nil
}

// Aggregation regenerates experiment E12: the Section X non-blocking send
// extension. The same send-first programs are analyzed under the blocking
// model (pipeline unrolling + widening, or outright failure for non-unit
// strides) and under aggregation (one set-level match).
func aggregation(tr *obs.Tracer) (*Table, error) {
	rows := []Row{}
	for _, w := range []*bench.Workload{bench.SendFirstShift(), bench.Stencil2DFixedWidth()} {
		_, g := w.Parse()
		// Blocking model (bounded: the stride-4 pipeline is expected to
		// fail, and it must fail quickly).
		mb := cartesian.New(core.ScanInvariants(g))
		startB := time.Now()
		resB, err := core.Analyze(g, core.Options{Matcher: mb, MaxVisits: 16, MaxSteps: 600, Tracer: tr})
		if err != nil {
			return nil, err
		}
		elB := time.Since(startB)
		// Non-blocking extension.
		mn := cartesian.New(core.ScanInvariants(g))
		startN := time.Now()
		resN, err := core.Analyze(g, core.Options{Matcher: mn, NonBlockingSends: true, Tracer: tr})
		if err != nil {
			return nil, err
		}
		elN := time.Since(startN)
		blocking := fmt.Sprintf("clean=%v, %d pCFG nodes, %v", resB.Clean(), resB.Configs, elB.Round(time.Microsecond))
		nonblocking := fmt.Sprintf("clean=%v, %d pCFG nodes, %v", resN.Clean(), resN.Configs, elN.Round(time.Microsecond))
		rows = append(rows,
			Row{w.Name + ": blocking model", "(paper: pipeline analysis or unsupported)", blocking},
			Row{w.Name + ": aggregated sends", "single set-level match (Section X)", nonblocking},
		)
		if !resN.Clean() {
			rows = append(rows, Row{w.Name + ": aggregated clean", "yes", "NO: " + fmt.Sprint(resN.TopReasons())})
		}
		scale := 5
		if err := validate.Check(g, resN, w.NPFor(scale), w.Env(scale)); err != nil {
			rows = append(rows, Row{w.Name + ": validated", "(exact)", "NO: " + err.Error()})
		} else {
			rows = append(rows, Row{w.Name + ": validated", "(exact)", "yes"})
		}
	}
	return &Table{
		ID:    "aggregation",
		Title: "E12 / Section X: aggregated non-blocking sends (implemented future work)",
		Rows:  rows,
		Notes: "the stride-4 column shift is beyond the blocking pipeline's unit-stride widening; aggregation matches it set-level in a handful of pCFG nodes",
	}, nil
}

func intPow(b, e int) int {
	out := 1
	for i := 0; i < e; i++ {
		out *= b
	}
	return out
}

// ParallelDriver regenerates the evaluation suite through core.AnalyzeAll
// twice — sequentially and one-workload-per-core — and reports the wall
// clock, the copy-on-write effectiveness across the whole suite, and that
// the parallel run reproduces the sequential topologies exactly.
func parallelDriver(tr *obs.Tracer) (*Table, error) {
	ws := bench.All()
	startSeq := time.Now()
	seq, err := runAnalyses(tr, ws, cg.ArrayBackend, 1)
	if err != nil {
		return nil, err
	}
	elSeq := time.Since(startSeq)
	workers := runtime.NumCPU()
	startPar := time.Now()
	par, err := runAnalyses(tr, ws, cg.ArrayBackend, workers)
	if err != nil {
		return nil, err
	}
	elPar := time.Since(startPar)
	identical := true
	cowOK := true
	var clones, mats int64
	for i := range ws {
		if matchSummary(seq[i].res) != matchSummary(par[i].res) {
			identical = false
		}
		if par[i].stats.ClonesAvoided() == 0 {
			cowOK = false
		}
		clones += par[i].stats.ClonesAvoided()
		mats += par[i].stats.CoWMaterializations()
	}
	speedup := 0.0
	if elPar > 0 {
		speedup = float64(elSeq) / float64(elPar)
	}
	return &Table{
		ID:    "parallel",
		Title: "Parallel analysis driver: the evaluation suite one-workload-per-core",
		Rows: []Row{
			{"workloads analyzed", "(full suite)", fmt.Sprintf("%d", len(ws))},
			{"sequential wall clock", "(baseline)", elSeq.Round(time.Microsecond).String()},
			{fmt.Sprintf("parallel wall clock (%d workers)", workers), "(lower)", fmt.Sprintf("%v (%.2fx speedup)", elPar.Round(time.Microsecond), speedup)},
			{"parallel == sequential topologies", "yes (analyses are independent)", yesNo(identical)},
			{"CoW clones avoided > 0 on every workload", "yes", yesNo(cowOK)},
			{"suite totals", "(not in paper)", fmt.Sprintf("%d O(1) clones, %d materialized on write", clones, mats)},
		},
		Notes: "workload fixpoints share nothing; cg.Stats is atomic so even a shared stats record would aggregate safely",
	}, nil
}

// Spec is a runnable experiment: a stable ID (used for -exp selection and
// as the bench history's spec key) plus its builder, which receives the
// tracer that instruments every analysis run inside the experiment.
type Spec struct {
	ID    string
	build func(tr *obs.Tracer) (*Table, error)
}

// specs lists every experiment in DESIGN.md order.
func specs() []Spec {
	return []Spec{
		{"fig2", fig2},
		{"fig5", fig5},
		{"fig6", fig6},
		{"fig7", fig7},
		{"table1", tableI},
		{"profile", profileSectionIX},
		{"storage", storage},
		{"scaling", scaling},
		{"precision", precision},
		{"verify", verifyExp},
		{"stencil", stencil},
		{"aggregation", aggregation},
		{"parallel", parallelDriver},
	}
}

// SpecIDs returns the experiment IDs in DESIGN.md order.
func SpecIDs() []string {
	ss := specs()
	ids := make([]string, len(ss))
	for i, s := range ss {
		ids[i] = s.ID
	}
	return ids
}

// specRun is one run of a spec: its wall time and the obs phase
// breakdown aggregated over every analysis the experiment ran.
type specRun struct {
	WallNs int64
	Phases obs.PhaseTotals
	// Allocs and AllocBytes are the heap allocation count and allocated
	// bytes of this run, from runtime.MemStats deltas: process-global, so
	// they belong to the spec only because RunSampled runs one at a time.
	Allocs     int64
	AllocBytes int64
}

func runSpec(s Spec) (*Table, *specRun, error) {
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	tr := obs.NewAggregate()
	start := time.Now()
	t, err := s.build(tr)
	wall := time.Since(start)
	runtime.ReadMemStats(&m1)
	if err != nil {
		return nil, nil, fmt.Errorf("%s: %w", s.ID, err)
	}
	return t, &specRun{WallNs: wall.Nanoseconds(), Phases: tr.Totals(),
		Allocs: int64(m1.Mallocs - m0.Mallocs), AllocBytes: int64(m1.TotalAlloc - m0.TotalAlloc)}, nil
}

func yesNo(b bool) string {
	if b {
		return "yes"
	}
	return "NO"
}

func errOK(err error) string {
	if err == nil {
		return "yes"
	}
	return "NO: " + err.Error()
}

func matchSummary(res *core.Result) string {
	var parts []string
	for _, m := range res.Matches {
		parts = append(parts, fmt.Sprintf("%s->%s", m.Sender, m.Receiver))
	}
	return strings.Join(parts, ", ")
}
