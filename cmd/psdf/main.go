// Command psdf runs the communication-sensitive static dataflow analysis
// on MPL programs and hosts the tooling around it.
//
// Usage:
//
//	psdf [-format text|json|sarif] [-strict-bounds] [-stats] [flags] program.mpl [more.mpl ...]
//	psdf sim -np N [-env k=v,k=v] [-rendezvous] [-events] [-fail-on-findings] program.mpl
//	psdf trace [-top n] [-check] trace.json ...
//	psdf bench run|record|diff|check|report [flags]
//	psdf fuzz [-seed S] [-n N] [-np 2,3] [-shrink] [-out dir] [-gate class]
//	psdf profile [-format text|json|folded] [-top n] [-check] report.json ...
//
// The bare form is the one command that analyzes programs. It parses,
// checks and analyzes every program on a bounded pool (core.AnalyzeAll,
// -parallel, one analysis per CPU by default) and runs the lint passes
// over each result. With -format text, the default, it prints per program
// its topology (or the -dot/-pcfg rendering), its known print values, and
// its lint diagnostics or "lint: ok", under an "== path ==" header when
// several programs are given. With -format json or sarif it prints only
// the diagnostics of every program, sorted, as one JSON or SARIF 2.1.0
// document. -strict-bounds also reports rank-bounds targets that could not
// be proved. It exits 1 when a program fails to load or analyze or lint
// reports an error-severity finding, 2 on a usage error, 0 otherwise.
//
// -stats explains a run: each program's report adds its closure and join
// counters and wall time, the phase split, the match-memo counters, the
// rank-bounds verdict counts and its five hottest source lines.
//
// The other observability flags only observe; results are byte-identical
// with them on or off. -trace writes a Chrome trace-event file (Perfetto,
// or `psdf trace`), -trace-jsonl the same spans as JSON lines; -metrics
// and -metrics-out render the final progress snapshot as Prometheus text;
// -log debug narrates the fixpoint. -http serves /metrics, /statusz,
// /statusz/stream, /flightz and /debug/pprof during the run (with
// -http-linger, until POST /quitquitquit), and labels the analysis
// goroutines for CPU profiles. -stall-timeout arms a no-progress watchdog
// that dumps the retained trace events to -stall-dump as trace JSON lines;
// without -trace each job keeps its most recent events in a ring for these
// dumps and /flightz. -profile-out writes the source-attribution profile
// as psdf-profile/1 JSON for `psdf profile`. The profile (and -stats's
// hottest lines) is a fold over each job's trace events, so it needs no
// retained trace.
//
// The subcommands: sim executes one program on the concrete simulator
// (the ground truth); trace summarizes or validates a span trace; bench
// run prints the paper-vs-measured tables, while bench
// record/diff/check/report maintain BENCH_HISTORY.jsonl; fuzz is the
// differential-soundness sweep (`psdf fuzz -seed 1 -n 2000` gates CI);
// profile renders saved source-attribution reports.
package main

import (
	"flag"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"os"
	"sort"
	"strings"
	"sync"
	"time"

	"repro/internal/ast"
	"repro/internal/cfg"
	"repro/internal/cg"
	"repro/internal/clients/cartesian"
	"repro/internal/clients/symbolic"
	"repro/internal/core"
	"repro/internal/diag"
	"repro/internal/lint"
	"repro/internal/obs"
	"repro/internal/parser"
	"repro/internal/prof"
	"repro/internal/sem"
	"repro/internal/source"
	"repro/internal/topology"
)

func main() {
	subcommands := map[string]func([]string) int{
		"sim":     runSim,
		"trace":   runTrace,
		"bench":   runBench,
		"fuzz":    runFuzz,
		"profile": runProfile,
	}
	if len(os.Args) > 1 {
		if run, ok := subcommands[os.Args[1]]; ok {
			os.Exit(run(os.Args[2:]))
		}
	}
	os.Exit(runAnalyze(os.Args[1:]))
}

// program is one loaded MPL source file.
type program struct {
	path string
	src  string
	prog *ast.Program
	g    *cfg.Graph
}

// loadProgram reads, parses and checks one program file and builds its CFG.
func loadProgram(path string) (*program, error) {
	src, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	prog, err := parser.Parse(path, string(src))
	if err != nil {
		return nil, err
	}
	if _, err := sem.Check(prog); err != nil {
		return nil, err
	}
	return &program{path: path, src: string(src), prog: prog, g: cfg.Build(prog)}, nil
}

var backends = map[string]cg.Backend{"array": cg.ArrayBackend, "map": cg.MapBackend}

// lintVersion is reported in the SARIF tool descriptor.
const lintVersion = "0.1.0"

// analyzeFlags carries the bare form's flags.
type analyzeFlags struct {
	client, backend      string
	format               string
	strictBounds         bool
	dot, cfgDot, pcfgDot bool
	stats, nonblocking   bool
	parallel             int
	traceOut, traceJSONL string
	metrics              bool
	metricsOut           string
	httpAddr             string
	httpLinger           bool
	stallTO              time.Duration
	stallDump            string
	profileOut           string
}

// runAnalyze implements the bare form.
func runAnalyze(args []string) int {
	var c analyzeFlags
	fs := flag.NewFlagSet("psdf", flag.ExitOnError)
	fs.StringVar(&c.client, "client", "cartesian", "client analysis: symbolic or cartesian")
	fs.StringVar(&c.backend, "backend", "array", "constraint-graph backend: array or map")
	fs.StringVar(&c.format, "format", "text", "output format: text (the report), or json or sarif (only the lint diagnostics, as one document)")
	fs.BoolVar(&c.strictBounds, "strict-bounds", false, "also report rank-bounds targets that could not be proved (PSDF-W004)")
	fs.BoolVar(&c.dot, "dot", false, "print the topology as Graphviz dot")
	fs.BoolVar(&c.cfgDot, "cfg", false, "print the CFG as Graphviz dot and exit")
	fs.BoolVar(&c.pcfgDot, "pcfg", false, "print the explored pCFG as Graphviz dot")
	fs.BoolVar(&c.stats, "stats", false, "print analysis statistics, wall time, phase breakdown, match-memo and rank-bounds counters, and the hottest source lines")
	fs.BoolVar(&c.nonblocking, "nonblocking", false, "non-blocking sends (Section X aggregation extension)")
	fs.IntVar(&c.parallel, "parallel", 0, "analyses in flight (0 = one per CPU, 1 = sequential)")
	fs.StringVar(&c.traceOut, "trace", "", "write a Chrome trace-event file (Perfetto-loadable)")
	fs.StringVar(&c.traceJSONL, "trace-jsonl", "", "write the span trace as JSON lines")
	fs.BoolVar(&c.metrics, "metrics", false, "print the final progress snapshot (the /statusz counters) as Prometheus text after the run")
	fs.StringVar(&c.metricsOut, "metrics-out", "", "write the final progress snapshot as Prometheus text to this file")
	fs.StringVar(&c.httpAddr, "http", "", "serve the introspection mux during the run: /statusz, /statusz/stream and /metrics (the progress snapshot as JSON, SSE and Prometheus text), /flightz (the retained trace events as JSON lines) and /debug/pprof, whose CPU profiles carry job and phase labels")
	fs.BoolVar(&c.httpLinger, "http-linger", false, "with -http: keep the listener serving after the analyses finish (POST /quitquitquit to exit)")
	fs.DurationVar(&c.stallTO, "stall-timeout", 0, "per-analysis no-progress watchdog deadline (0 disables); firing dumps the retained trace events")
	fs.StringVar(&c.stallDump, "stall-dump", "", "write stall and step-budget dumps (trace JSON lines) to this file (default stderr)")
	fs.StringVar(&c.profileOut, "profile-out", "", "profile each analysis and write the combined source-attribution report as psdf-profile/1 JSON (render with `psdf profile`)")
	lf := addLogFlags(fs)
	fs.Usage = func() {
		fmt.Fprintln(os.Stderr, "usage: psdf [flags] program.mpl [more.mpl ...]")
		fmt.Fprintln(os.Stderr, "       psdf sim|trace|bench|fuzz|profile [flags] ...")
		fs.PrintDefaults()
		fmt.Fprintln(os.Stderr, "\nlint passes:")
		for _, p := range lint.Passes() {
			fmt.Fprintf(os.Stderr, "  %-14s %s\n", p.Name, p.Doc)
		}
	}
	_ = fs.Parse(args)
	if fs.NArg() == 0 {
		fs.Usage()
		return 2
	}
	// Flag parsing stops at the first non-flag, so `psdf lint -format
	// sarif a.mpl` would otherwise read as four program paths.
	if fs.Arg(0) == "lint" {
		fmt.Fprintln(os.Stderr, "psdf: there is no lint subcommand; the bare form lints: psdf [-format text|json|sarif] [-strict-bounds] program.mpl ...")
		return 2
	}
	switch c.format {
	case "text":
	case "json", "sarif":
		// The document is all that goes to stdout.
		for _, f := range []struct {
			name string
			set  bool
		}{{"-cfg", c.cfgDot}, {"-dot", c.dot}, {"-pcfg", c.pcfgDot}, {"-stats", c.stats}, {"-metrics", c.metrics}} {
			if f.set {
				fmt.Fprintf(os.Stderr, "psdf: %s prints to stdout, which -format %s keeps for the diagnostics document\n", f.name, c.format)
				return 2
			}
		}
	default:
		fmt.Fprintf(os.Stderr, "psdf: unknown format %q (want text, json or sarif)\n", c.format)
		return 2
	}
	if c.client != "cartesian" && c.client != "symbolic" {
		fmt.Fprintf(os.Stderr, "psdf: unknown client %q (want symbolic or cartesian)\n", c.client)
		return 2
	}
	if _, ok := backends[c.backend]; !ok {
		fmt.Fprintf(os.Stderr, "psdf: unknown backend %q (want array or map)\n", c.backend)
		return 2
	}
	logger, err := lf.logger()
	if err != nil {
		fmt.Fprintln(os.Stderr, "psdf:", err)
		return 2
	}

	failed := false
	var progs []*program
	for _, path := range fs.Args() {
		p, err := loadProgram(path)
		if err != nil {
			fmt.Fprintln(os.Stderr, "psdf:", err)
			failed = true
			continue
		}
		progs = append(progs, p)
	}
	if c.cfgDot {
		for _, p := range progs {
			fmt.Print(p.g.Dot(p.path))
		}
	} else {
		bad, err := analyze(progs, len(fs.Args()) > 1, c, logger)
		if err != nil {
			fmt.Fprintln(os.Stderr, "psdf:", err)
			return 1
		}
		failed = failed || bad
	}
	if failed {
		return 1
	}
	return 0
}

// analyze runs every program through core.AnalyzeAll and lints each
// result, printing the reports (-format text) or one diagnostics document.
// It reports whether an analysis failed or lint found an error-severity
// finding. Every job gets its own matcher (matcher instrumentation and
// memo tables are not race-safe to share); the -trace tracer and the
// progress tracker are shared (race-safe), with per-job pid/label
// attribution.
func analyze(progs []*program, headers bool, c analyzeFlags, logger *slog.Logger) (failed bool, err error) {
	text := c.format == "text"
	// Outside text mode stdout holds only the document, so the notices
	// about written files go to stderr.
	notices := io.Writer(os.Stdout)
	if !text {
		notices = os.Stderr
	}
	var tracer *obs.Tracer
	if c.traceOut != "" || c.traceJSONL != "" {
		tracer = obs.NewTracer()
	}
	var tracker *obs.ProgressTracker
	if c.metrics || c.metricsOut != "" || c.httpAddr != "" {
		tracker = obs.NewProgressTracker()
	}
	// Dumps and /flightz read the shared -trace tracer, which then holds
	// the whole trace, or else one ring per job. A ring shared across jobs
	// would wrap over every job's events, and -stats reads each job's
	// phase totals from its own tracer.
	var flight []*obs.Tracer
	if tracer != nil {
		flight = []*obs.Tracer{tracer}
	} else if c.stallTO > 0 || c.httpAddr != "" {
		for range progs {
			flight = append(flight, obs.NewRing(0))
		}
	}
	// The watchdog's stall dump goes to -stall-dump (created up front so a
	// dump mid-run cannot fail on open) or stderr.
	var stallDumpW io.Writer
	if c.stallTO > 0 {
		stallDumpW = os.Stderr
		if c.stallDump != "" {
			f, err := os.Create(c.stallDump)
			if err != nil {
				return false, err
			}
			defer f.Close()
			stallDumpW = f
		}
	}
	quitCh := make(chan struct{})
	if c.httpAddr != "" {
		var quit func()
		if c.httpLinger {
			var once sync.Once
			quit = func() { once.Do(func() { close(quitCh) }) }
		}
		mux := obs.NewHTTPMux(tracker, flight, quit)
		go func() {
			if err := http.ListenAndServe(c.httpAddr, mux); err != nil {
				fmt.Fprintln(os.Stderr, "psdf: http:", err)
			}
		}()
	}

	// Goroutine labels show only in CPU profiles, which psdf serves only
	// through -http's /debug/pprof.
	labels := c.httpAddr != ""
	jobs := make([]core.Job, len(progs))
	matchers := make([]core.Matcher, len(progs))
	profilers := make([]*prof.Profiler, len(progs))
	cgStats := make([]*cg.Stats, len(progs))
	laneNames := map[int]string{}
	for i, p := range progs {
		jobTracer := tracer
		if jobTracer == nil && flight != nil {
			jobTracer = flight[i]
		}
		if c.client == "symbolic" {
			matchers[i] = &symbolic.Matcher{}
		} else {
			matchers[i] = cartesian.New(core.ScanInvariants(p.g))
		}
		// One profiler per job, folding that job's events: merging across
		// programs would blur the per-source attribution. A job without a
		// tracer gets one that keeps totals only, as AnalyzeAll would give
		// it.
		if c.profileOut != "" || c.stats {
			if jobTracer == nil {
				jobTracer = obs.NewAggregate()
			}
			profilers[i] = prof.New()
			profilers[i].Attach(jobTracer, i+1, p.g)
		}
		// Stats counters time the closures, so only -stats pays for them.
		if c.stats {
			cgStats[i] = &cg.Stats{}
		}
		laneNames[i+1] = p.path
		jobs[i] = core.Job{Name: p.path, G: p.g, Opts: core.Options{
			Matcher:          matchers[i],
			CGOpts:           cg.Options{Backend: backends[c.backend], Stats: cgStats[i]},
			NonBlockingSends: c.nonblocking,
			RecordCommBounds: true,
			Tracer:           jobTracer,
			TracePID:         i + 1,
			Name:             p.path,
			Log:              logger,
			Progress:         tracker,
			StallTimeout:     c.stallTO,
			StallDump:        stallDumpW,
			ProfileLabels:    labels,
		}}
	}
	results := core.AnalyzeAll(jobs, c.parallel)
	if tracer != nil {
		// With one retaining tracer shared across jobs, each JobResult's
		// Phases snapshots the shared totals; recover per-job breakdowns
		// from the retained events instead.
		byPid := obs.TotalsByPid(tracer.Events())
		for i := range results {
			if ph := byPid[i+1]; ph != nil {
				results[i].Phases = ph
			}
		}
	}
	var reps []*prof.Report
	var diags []diag.Diagnostic
	for i, jr := range results {
		p := progs[i]
		if text && headers {
			fmt.Printf("== %s ==\n", p.path)
		}
		if jr.Err != nil {
			fmt.Fprintf(os.Stderr, "psdf: %s: %v\n", p.path, jr.Err)
			failed = true
			continue
		}
		res := jr.Res
		rep := lint.Run(&lint.Target{Path: p.path, Prog: p.prog, File: p.prog.File, G: p.g, Res: res}, lint.Options{Strict: c.strictBounds})
		failed = failed || rep.HasErrors()
		var profile *prof.Report
		if profilers[i] != nil {
			profile = profilers[i].Report(p.path, p.src)
			if c.profileOut != "" {
				reps = append(reps, profile)
			}
		}
		if !text {
			diags = append(diags, rep.Diags...)
			continue
		}
		switch {
		case c.pcfgDot:
			fmt.Print(res.PCFGDot(p.path))
		case c.dot:
			fmt.Print(topology.Build(p.g, res).Dot(p.path))
		default:
			fmt.Print(topology.Build(p.g, res))
		}
		for _, pr := range res.Prints {
			if pr.Known {
				fmt.Printf("  print at n%d on %s always outputs %d\n", pr.Node, pr.Range, pr.Val)
			}
		}
		if len(rep.Diags) == 0 {
			fmt.Println("lint: ok")
		} else {
			diag.WriteText(os.Stdout, map[string]*source.File{p.path: p.prog.File}, rep.Diags)
		}
		if c.stats {
			writeStats(os.Stdout, jr, matchers[i], cgStats[i], rep.Bounds, profile)
		}
	}
	if !text {
		diag.Sort(diags)
		if c.format == "json" {
			err = diag.WriteJSON(os.Stdout, diags)
		} else {
			err = diag.WriteSARIF(os.Stdout, lintVersion, diags)
		}
		if err != nil {
			return failed, err
		}
	}
	if err := writeObsOutputs(notices, tracer, tracker, laneNames, c); err != nil {
		return failed, err
	}
	if c.profileOut != "" {
		if err := writeFile(c.profileOut, func(w io.Writer) error { return prof.WriteJSON(w, reps) }); err != nil {
			return failed, err
		}
		fmt.Fprintf(notices, "profile: %d report(s) -> %s (render with `psdf profile %s`)\n",
			len(reps), c.profileOut, c.profileOut)
	}
	if c.httpAddr != "" && c.httpLinger {
		fmt.Fprintf(os.Stderr, "psdf: lingering on %s (POST /quitquitquit to exit)\n", c.httpAddr)
		<-quitCh
	}
	return failed, nil
}

// writeStats prints -stats's explanation of one analysis: its counters and
// wall time, the phase split, the match-memo counters, the rank-bounds
// verdict counts and the five hottest source lines.
func writeStats(w io.Writer, jr core.JobResult, m core.Matcher, st *cg.Stats, b lint.BoundsSummary, profile *prof.Report) {
	res := jr.Res
	fmt.Fprintf(w, "stats: %d pCFG nodes, %d steps, %d widenings, %d incremental closures (avg %.1f vars), %d joins, wall %v\n",
		res.Configs, res.Steps, res.Widenings, st.IncrClosures(), st.AvgIncrVars(), st.Joins(), jr.Wall.Round(time.Microsecond))
	if ph := formatPhases(jr.Phases); ph != "" {
		fmt.Fprintf(w, "  phases: %s\n", ph)
	}
	if m, ok := m.(*cartesian.Matcher); ok {
		if memo := m.Memo(); memo.HitCount()+memo.MissCount() > 0 {
			fmt.Fprintf(w, "  match-memo: %d hits / %d misses (%.0f%% hit rate), %d entries\n",
				memo.HitCount(), memo.MissCount(), 100*memo.HitRate(), memo.Len())
		}
	}
	fmt.Fprintf(w, "  bounds: total=%d proven=%d proven-by-match=%d violated=%d unknown=%d non-affine=%d\n",
		b.Total, b.Proven, b.ProvenByMatch, b.Violated, b.Unknown, b.NonAffine)
	profile.WriteTop(w, 5)
}

// writeObsOutputs flushes the trace and metrics artifacts selected by the
// flags; the notice about a written trace goes to notices.
func writeObsOutputs(notices io.Writer, tracer *obs.Tracer, tracker *obs.ProgressTracker, laneNames map[int]string, c analyzeFlags) error {
	if tracer != nil {
		evs := tracer.Events()
		if c.traceOut != "" {
			if err := writeFile(c.traceOut, func(w io.Writer) error {
				return obs.WriteChromeTrace(w, evs, laneNames)
			}); err != nil {
				return err
			}
			fmt.Fprintf(notices, "trace: %d events -> %s (load at https://ui.perfetto.dev or run `psdf trace %s`)\n",
				len(evs), c.traceOut, c.traceOut)
		}
		if c.traceJSONL != "" {
			if err := writeFile(c.traceJSONL, func(w io.Writer) error { return obs.WriteJSONL(w, evs) }); err != nil {
				return err
			}
		}
	}
	if c.metricsOut != "" {
		if err := writeFile(c.metricsOut, tracker.WritePrometheus); err != nil {
			return err
		}
	}
	if c.metrics {
		if err := tracker.WritePrometheus(os.Stdout); err != nil {
			return err
		}
	}
	return nil
}

// writeFile creates path and fills it with write.
func writeFile(path string, write func(io.Writer) error) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := write(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// formatPhases renders a job's phase totals as "phase dur (count)" pairs,
// heaviest first, skipping the enclosing analyze span (it spans the whole
// job and would read as 100%).
func formatPhases(totals obs.PhaseTotals) string {
	type pt struct {
		name string
		obs.PhaseStat
	}
	var ps []pt
	for name, st := range totals {
		if name == obs.PhaseAnalyze.String() || st.Count == 0 {
			continue
		}
		ps = append(ps, pt{name, st})
	}
	sort.Slice(ps, func(i, j int) bool {
		if ps[i].Total != ps[j].Total {
			return ps[i].Total > ps[j].Total
		}
		return ps[i].name < ps[j].name
	})
	var parts []string
	for _, p := range ps {
		parts = append(parts, fmt.Sprintf("%s %v (%d)", p.name, p.Total.Round(time.Microsecond), p.Count))
	}
	return strings.Join(parts, ", ")
}
