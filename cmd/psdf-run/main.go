// Command psdf-run executes an MPL program on the concrete message-passing
// simulator for a fixed process count, reporting the delivered messages,
// print output, leaks and deadlocks — the ground truth the static analysis
// is validated against. With -analyze it instead runs the static analysis
// itself, accepting several programs at once and analyzing them on a
// bounded worker pool (core.AnalyzeAll), one workload per core by default.
//
// Usage:
//
//	psdf-run -np N [-env k=v,k=v] [-rendezvous] program.mpl
//	psdf-run -analyze [-parallel n] [-nonblocking]
//	         [-trace out.json] [-trace-jsonl out.jsonl] [-metrics]
//	         [-metrics-out m.prom] [-http addr] [-http-linger]
//	         [-log level] [-log-format f] [-stall-timeout d] [-stall-dump f]
//	         [-force-stall] [-flight-buffer n] [-pprof-labels]
//	         [-profile] [-profile-out p.json]
//	         program.mpl [more.mpl ...]
//
// -parallel bounds how many programs are analyzed at once; each analysis
// runs its fixpoint on one goroutine.
//
// Observability: -trace writes a Chrome trace-event file (load it at
// https://ui.perfetto.dev or summarize it with `psdf trace`); -trace-jsonl
// writes the same spans as JSON lines with nanosecond precision. -metrics
// prints the unified metrics registry in Prometheus text format after the
// run (-metrics-out writes it to a file instead). -log/-log-format enable
// structured (slog) engine lifecycle logging on stderr.
//
// -http serves the live introspection mux while the analyses run:
// /metrics (Prometheus), /statusz (progress snapshot JSON),
// /statusz/stream (the same as SSE), /flightz (flight recorder) and
// /debug/pprof. -http-linger keeps the listener serving after the analyses
// finish (POST /quitquitquit to exit). -stall-timeout arms a per-analysis
// no-progress watchdog that dumps the flight recorder to -stall-dump;
// -force-stall holds each (converged) analysis open until its watchdog
// fires, smoke-testing that path deterministically. -pprof-labels tags
// analysis goroutines (job, phase) for CPU-profile attribution.
// -profile attaches the source-attribution profiler (internal/prof) to
// each analysis and prints its hottest source lines; -profile-out writes
// the combined psdf-profile/1 JSON report, renderable as a heat listing,
// ranked hotspots or folded flamegraph stacks with `psdf profile`.
// Tracing, logging and profiling only observe: analysis results are
// byte-identical with them on or off.
package main

import (
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/internal/cfg"
	"repro/internal/clients/cartesian"
	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/parser"
	"repro/internal/prof"
	"repro/internal/sem"
	"repro/internal/sim"
	"repro/internal/verify"
)

func main() {
	var (
		np          = flag.Int("np", 4, "number of processes")
		envFlag     = flag.String("env", "", "comma-separated symbol bindings, e.g. nrows=3,ncols=6")
		rendezvous  = flag.Bool("rendezvous", false, "blocking (rendezvous) sends instead of buffered FIFO channels")
		events      = flag.Bool("events", true, "print delivered messages")
		analyze     = flag.Bool("analyze", false, "run the static analysis instead of the simulator (accepts multiple programs)")
		parallel    = flag.Int("parallel", 0, "with -analyze: worker bound (0 = one per CPU, 1 = sequential)")
		nonblocking = flag.Bool("nonblocking", false, "with -analyze: enable the Section X non-blocking send extension")
		failOnFind  = flag.Bool("fail-on-findings", false, "exit nonzero on verification findings (analyze) or leaks/assert failures (simulate)")
		traceOut    = flag.String("trace", "", "with -analyze: write a Chrome trace-event file (Perfetto-loadable)")
		traceJSONL  = flag.String("trace-jsonl", "", "with -analyze: write the span trace as JSON lines")
		metricsFlag = flag.Bool("metrics", false, "with -analyze: print the metrics registry (Prometheus text) after the run")
		metricsOut  = flag.String("metrics-out", "", "with -analyze: write the metrics registry to this file")
		httpAddr    = flag.String("http", "", "with -analyze: serve the introspection mux (/metrics, /statusz, /statusz/stream, /flightz, /debug/pprof) on this address during the run")
		httpLinger  = flag.Bool("http-linger", false, "with -analyze -http: keep the listener serving after the analyses finish (POST /quitquitquit to exit)")
		logLevel    = flag.String("log", "off", "structured log level: off, debug, info, warn or error")
		logFormat   = flag.String("log-format", "text", "structured log format: text or json")
		stallTO     = flag.Duration("stall-timeout", 0, "with -analyze: per-analysis no-progress watchdog deadline (0 disables); firing dumps the flight recorder")
		stallDump   = flag.String("stall-dump", "", "with -analyze: write flight-recorder dumps to this file (default stderr)")
		forceStall  = flag.Bool("force-stall", false, "with -analyze: hold each analysis open until its stall watchdog fires (smoke-tests the stall path; requires -stall-timeout)")
		flightBuf   = flag.Int("flight-buffer", 4096, "with -analyze: flight-recorder ring capacity in events")
		pprofLabels = flag.Bool("pprof-labels", false, "with -analyze: attach pprof goroutine labels (job, phase) to analysis goroutines and the HSM prover")
		profile     = flag.Bool("profile", false, "with -analyze: profile each analysis and print its hottest source lines")
		profileOut  = flag.String("profile-out", "", "with -analyze: write the combined source-attribution profile as psdf-profile/1 JSON (render with `psdf profile`)")
	)
	flag.Parse()
	if *analyze {
		if flag.NArg() < 1 {
			fmt.Fprintln(os.Stderr, "usage: psdf-run -analyze [flags] program.mpl [more.mpl ...]")
			flag.PrintDefaults()
			os.Exit(2)
		}
		if *forceStall && *stallTO <= 0 {
			fmt.Fprintln(os.Stderr, "psdf-run: -force-stall requires -stall-timeout > 0")
			os.Exit(2)
		}
		cfg := analyzeConfig{
			parallelism: *parallel,
			nonblocking: *nonblocking,
			failOnFind:  *failOnFind,
			traceOut:    *traceOut,
			traceJSONL:  *traceJSONL,
			metrics:     *metricsFlag,
			metricsOut:  *metricsOut,
			httpAddr:    *httpAddr,
			httpLinger:  *httpLinger,
			logLevel:    *logLevel,
			logFormat:   *logFormat,
			stallTO:     *stallTO,
			stallDump:   *stallDump,
			forceStall:  *forceStall,
			flightBuf:   *flightBuf,
			pprofLabels: *pprofLabels,
			profile:     *profile || *profileOut != "",
			profileOut:  *profileOut,
		}
		if err := runAnalyses(flag.Args(), cfg); err != nil {
			fmt.Fprintln(os.Stderr, "psdf-run:", err)
			os.Exit(1)
		}
		return
	}
	if flag.NArg() != 1 {
		fmt.Fprintln(os.Stderr, "usage: psdf-run [flags] program.mpl")
		flag.PrintDefaults()
		os.Exit(2)
	}
	if err := run(flag.Arg(0), *np, *envFlag, *rendezvous, *events, *failOnFind); err != nil {
		fmt.Fprintln(os.Stderr, "psdf-run:", err)
		os.Exit(1)
	}
}

func parseEnv(s string) (map[string]int64, error) {
	env := map[string]int64{}
	if s == "" {
		return env, nil
	}
	for _, pair := range strings.Split(s, ",") {
		kv := strings.SplitN(pair, "=", 2)
		if len(kv) != 2 {
			return nil, fmt.Errorf("bad env binding %q", pair)
		}
		v, err := strconv.ParseInt(strings.TrimSpace(kv[1]), 10, 64)
		if err != nil {
			return nil, fmt.Errorf("bad env value %q: %v", pair, err)
		}
		env[strings.TrimSpace(kv[0])] = v
	}
	return env, nil
}

// buildCFG parses and checks one program file, returning the CFG and the
// source text (embedded in profile reports for self-contained listings).
func buildCFG(path string) (*cfg.Graph, string, error) {
	src, err := os.ReadFile(path)
	if err != nil {
		return nil, "", err
	}
	prog, err := parser.Parse(path, string(src))
	if err != nil {
		return nil, "", err
	}
	if _, err := sem.Check(prog); err != nil {
		return nil, "", err
	}
	return cfg.Build(prog), string(src), nil
}

// analyzeConfig carries the -analyze mode flags.
type analyzeConfig struct {
	parallelism int
	nonblocking bool
	failOnFind  bool
	traceOut    string
	traceJSONL  string
	metrics     bool
	metricsOut  string
	httpAddr    string
	httpLinger  bool
	logLevel    string
	logFormat   string
	stallTO     time.Duration
	stallDump   string
	forceStall  bool
	flightBuf   int
	pprofLabels bool
	profile     bool
	profileOut  string
}

// runAnalyses statically analyzes every program through the bounded worker
// pool and prints each topology plus its phase and match-memo breakdown.
// Every job gets its own matcher (matcher instrumentation and memo tables
// are not race-safe to share); the tracer and metrics registry are shared
// (race-safe), with per-job pid/label attribution.
func runAnalyses(paths []string, c analyzeConfig) error {
	logger, err := obs.NewLogger(os.Stderr, c.logLevel, c.logFormat)
	if err != nil {
		return err
	}
	var tracer *obs.Tracer
	if c.traceOut != "" || c.traceJSONL != "" {
		tracer = obs.NewTracer()
	}
	var reg *obs.Registry
	if c.metrics || c.metricsOut != "" || c.httpAddr != "" {
		reg = obs.NewRegistry()
	}
	var tracker *obs.ProgressTracker
	if c.httpAddr != "" {
		tracker = obs.NewProgressTracker()
	}
	var rec *obs.FlightRecorder
	if c.stallTO > 0 || c.httpAddr != "" {
		rec = obs.NewFlightRecorder(c.flightBuf)
	}
	// The watchdog's stall dump goes to -stall-dump (created up front so a
	// dump mid-run cannot fail on open) or stderr.
	var stallDumpW io.Writer
	if c.stallTO > 0 {
		stallDumpW = os.Stderr
		if c.stallDump != "" {
			f, err := os.Create(c.stallDump)
			if err != nil {
				return err
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
		mux := obs.NewHTTPMux(reg, tracker, rec, quit)
		go func() {
			if err := http.ListenAndServe(c.httpAddr, mux); err != nil {
				fmt.Fprintln(os.Stderr, "psdf-run: http:", err)
			}
		}()
	}

	jobs := make([]core.Job, 0, len(paths))
	matchers := make([]*cartesian.Matcher, 0, len(paths))
	var profilers []*prof.Profiler
	var sources []string
	laneNames := map[int]string{}
	for i, path := range paths {
		g, src, err := buildCFG(path)
		if err != nil {
			return err
		}
		m := cartesian.New(core.ScanInvariants(g))
		m.SetObs(tracer, i+1)
		if c.pprofLabels {
			m.Prover().ProfileLabels = true
		}
		matchers = append(matchers, m)
		laneNames[i+1] = path
		if reg != nil {
			core.RegisterMatchMemoMetrics(reg, m.Memo(), path)
		}
		// One profiler per job: commits are per-analysis, and merging across
		// programs would blur the per-source attribution.
		var pr *prof.Profiler
		if c.profile {
			pr = prof.New()
		}
		profilers = append(profilers, pr)
		sources = append(sources, src)
		jobs = append(jobs, core.Job{
			Name: path,
			G:    g,
			Opts: core.Options{
				Matcher:          m,
				NonBlockingSends: c.nonblocking,
				Tracer:           tracer,
				Metrics:          reg,
				TracePID:         i + 1,
				Name:             path,
				Log:              logger,
				Progress:         tracker,
				FlightRecorder:   rec,
				StallTimeout:     c.stallTO,
				StallDump:        stallDumpW,
				ForceStall:       c.forceStall,
				ProfileLabels:    c.pprofLabels,
				Profiler:         pr,
			},
		})
	}
	results := core.AnalyzeAll(jobs, c.parallelism)
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
	failed := false
	findings := 0
	for i, jr := range results {
		if jr.Err != nil {
			failed = true
			fmt.Printf("%s: ERROR %v\n", jr.Name, jr.Err)
			continue
		}
		res := jr.Res
		fmt.Printf("%s: clean=%v configs=%d steps=%d matches=%d (%v)\n",
			jr.Name, res.Clean(), res.Configs, res.Steps, len(res.Matches), jr.Wall.Round(time.Microsecond))
		for _, m := range res.Matches {
			fmt.Printf("  n%d%s -> n%d%s\n", m.SendNode, m.Sender, m.RecvNode, m.Receiver)
		}
		for _, t := range res.Tops {
			fmt.Printf("  TOP: %s\n", t.TopWhy)
		}
		if ph := formatPhases(jr.Phases, jr.Wall); ph != "" {
			fmt.Printf("  phases: %s\n", ph)
		}
		memo := matchers[i].Memo()
		if memo.HitCount()+memo.MissCount() > 0 {
			fmt.Printf("  match-memo: %d hits / %d misses (%.0f%% hit rate), %d entries\n",
				memo.HitCount(), memo.MissCount(), 100*memo.HitRate(), memo.Len())
		}
		if c.failOnFind {
			// AnalyzeAll returns results in input order.
			vr := verify.Check(jobs[i].G, res)
			for _, f := range vr.Findings {
				fmt.Printf("  FINDING %s: %s\n", f.Kind, f.Message)
			}
			findings += len(vr.Findings)
		}
		if profilers[i] != nil {
			rep := profilers[i].Report(jr.Name, sources[i])
			fmt.Printf("  profile: %d steps %.2fms stepped, %d widen failures, %d give-ups\n",
				rep.Totals.Steps, float64(rep.Totals.StepNs)/1e6, rep.Totals.WidenFailures, rep.Totals.GiveUps)
			var top strings.Builder
			rep.WriteTop(&top, 3)
			for _, line := range strings.Split(strings.TrimRight(top.String(), "\n"), "\n") {
				fmt.Printf("    %s\n", line)
			}
		}
	}
	if err := writeObsOutputs(tracer, reg, laneNames, c); err != nil {
		return err
	}
	if c.profileOut != "" {
		reps := make([]*prof.Report, 0, len(results))
		for i, jr := range results {
			if profilers[i] == nil || jr.Err != nil {
				continue
			}
			reps = append(reps, profilers[i].Report(jr.Name, sources[i]))
		}
		f, err := os.Create(c.profileOut)
		if err != nil {
			return err
		}
		if err := prof.WriteJSON(f, reps); err != nil {
			f.Close()
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
		fmt.Printf("profile: %d report(s) -> %s (render with `psdf profile %s`)\n",
			len(reps), c.profileOut, c.profileOut)
	}
	if c.httpAddr != "" && c.httpLinger {
		fmt.Fprintf(os.Stderr, "psdf-run: lingering on %s (POST /quitquitquit to exit)\n", c.httpAddr)
		<-quitCh
	}
	if failed {
		return fmt.Errorf("one or more analyses failed")
	}
	if findings > 0 {
		return fmt.Errorf("%d verification finding(s)", findings)
	}
	return nil
}

// writeObsOutputs flushes the trace and metrics artifacts selected by the
// flags.
func writeObsOutputs(tracer *obs.Tracer, reg *obs.Registry, laneNames map[int]string, c analyzeConfig) error {
	if tracer != nil {
		evs := tracer.Events()
		if c.traceOut != "" {
			f, err := os.Create(c.traceOut)
			if err != nil {
				return err
			}
			if err := obs.WriteChromeTrace(f, evs, laneNames); err != nil {
				f.Close()
				return err
			}
			if err := f.Close(); err != nil {
				return err
			}
			fmt.Printf("trace: %d events -> %s (load at https://ui.perfetto.dev or run `psdf trace %s`)\n",
				len(evs), c.traceOut, c.traceOut)
		}
		if c.traceJSONL != "" {
			f, err := os.Create(c.traceJSONL)
			if err != nil {
				return err
			}
			if err := obs.WriteJSONL(f, evs); err != nil {
				f.Close()
				return err
			}
			if err := f.Close(); err != nil {
				return err
			}
		}
	}
	if reg != nil && c.metricsOut != "" {
		f, err := os.Create(c.metricsOut)
		if err != nil {
			return err
		}
		if err := reg.WritePrometheus(f); err != nil {
			f.Close()
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
	}
	if reg != nil && c.metrics {
		if err := reg.WritePrometheus(os.Stdout); err != nil {
			return err
		}
	}
	return nil
}

// formatPhases renders a job's phase totals as "phase dur (count)" pairs,
// heaviest first, skipping the enclosing analyze span (it spans the whole
// job and would read as 100%).
func formatPhases(totals obs.PhaseTotals, wall time.Duration) string {
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

func run(path string, np int, envFlag string, rendezvous, events, failOnFind bool) error {
	env, err := parseEnv(envFlag)
	if err != nil {
		return err
	}
	g, _, err := buildCFG(path)
	if err != nil {
		return err
	}
	res, err := sim.Run(g, np, sim.Options{Env: env, Rendezvous: rendezvous})
	if err != nil {
		return err
	}
	fmt.Printf("np=%d steps=%d messages=%d\n", res.NP, res.Steps, len(res.Events))
	if events {
		for _, e := range res.Events {
			fmt.Printf("  %3d -> %3d   (send n%d -> recv n%d)\n", e.Sender, e.Receiver, e.SendNode, e.RecvNode)
		}
	}
	for _, p := range res.Prints {
		fmt.Printf("  proc %d prints %d (n%d)\n", p.Proc, p.Value, p.Node)
	}
	for _, f := range res.Failures {
		fmt.Printf("  ASSERT FAILED on proc %d at n%d: %s\n", f.Proc, f.Node, f.Cond)
	}
	for _, l := range res.Leaked {
		fmt.Printf("  LEAKED message from proc %d (send n%d, addressed to %d)\n", l.Sender, l.SendNode, l.Receiver)
	}
	if res.Deadlocked {
		return fmt.Errorf("deadlock: processes %v blocked", res.Blocked)
	}
	if failOnFind && (len(res.Leaked) > 0 || len(res.Failures) > 0) {
		return fmt.Errorf("%d leaked message(s), %d assertion failure(s)", len(res.Leaked), len(res.Failures))
	}
	return nil
}
