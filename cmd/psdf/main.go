// Command psdf runs the communication-sensitive static dataflow analysis
// on an MPL program: it parses, type-checks, builds the CFG, analyzes the
// pCFG with the chosen client analysis, and reports the communication
// topology plus any verification findings.
//
// Usage:
//
//	psdf [flags] program.mpl
//	psdf lint [-format text|json|sarif] [-strict-bounds] program.mpl ...
//	psdf trace [-top n] [-check] trace.json ...
//	psdf bench record|diff|check|report [flags]
//	psdf fuzz [-seed S] [-n N] [-np 2,3] [-shrink] [-out dir] [-gate class]
//	psdf profile [-format text|json|folded] [-top n] (report.json | program.mpl) ...
//
// The profile subcommand renders source-attributed analysis profiles:
// per-statement step time, configurations spawned, joins, widenings and
// widening failures (with the failing bound-expression pair), give-ups,
// ⊤ demotions, match-memo misses and HSM prover time, mapped back onto
// the MPL source as a heat listing, JSON report, or folded flamegraph
// stacks. It reads psdf-profile/1 JSON written by `psdf-run
// -profile-out`, or profiles .mpl programs in place.
//
// The lint subcommand runs the coded diagnostic passes (message leaks,
// deadlocks, tag mismatches, rank bounds, ⊤-blame, dead code) and exits
// nonzero when error-severity findings exist.
//
// The fuzz subcommand is the differential-soundness sweep: it generates
// deterministic random MPL programs, triages each against the
// explicit-state oracle, optionally minimizes divergences with a
// class-preserving delta-debugging shrinker, and exits nonzero when any
// finding reaches the gate class. CI runs `psdf fuzz -seed 1 -n 2000` as
// the acceptance gate: zero soundness findings allowed.
//
// The trace subcommand summarizes a span trace written by `psdf-run
// -analyze -trace` into a per-phase / per-configuration cost table, or
// validates it with -check.
//
// The bench subcommand maintains the longitudinal regression history
// (BENCH_HISTORY.jsonl): record appends a commit-anchored entry with
// multi-sample timings and per-workload precision fingerprints, diff
// statistically compares two entries (Mann–Whitney over timings, exact
// equality over fingerprints), check is the CI gate (exit nonzero on
// precision changes), and report renders the trajectory as markdown.
//
// Flags:
//
//	-client symbolic|cartesian   client analysis (default cartesian)
//	-backend array|map           constraint-graph storage (default array)
//	-dot                         print the topology as Graphviz dot
//	-cfg                         print the CFG as Graphviz dot and exit
//	-trace                       log every analysis step to stderr
//	-verify                      run the error-detection pass (default on)
//	-stats                       print analysis statistics
//	-log level                   structured engine logs on stderr (off, debug,
//	                             info, warn, error)
//	-log-format text|json        structured log encoding
package main

import (
	"flag"
	"fmt"
	"os"

	"repro/internal/cfg"
	"repro/internal/cg"
	"repro/internal/clients/cartesian"
	"repro/internal/clients/symbolic"
	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/parser"
	"repro/internal/sem"
	"repro/internal/topology"
	"repro/internal/verify"
)

func main() {
	// Subcommand dispatch: `psdf lint ...` runs the diagnostics passes; the
	// bare flag form keeps its original behavior.
	if len(os.Args) > 1 && os.Args[1] == "lint" {
		os.Exit(runLint(os.Args[2:]))
	}
	if len(os.Args) > 1 && os.Args[1] == "trace" {
		os.Exit(runTrace(os.Args[2:]))
	}
	if len(os.Args) > 1 && os.Args[1] == "bench" {
		os.Exit(runBench(os.Args[2:]))
	}
	if len(os.Args) > 1 && os.Args[1] == "fuzz" {
		os.Exit(runFuzz(os.Args[2:]))
	}
	if len(os.Args) > 1 && os.Args[1] == "profile" {
		os.Exit(runProfile(os.Args[2:]))
	}
	var (
		client   = flag.String("client", "cartesian", "client analysis: symbolic or cartesian")
		backend  = flag.String("backend", "array", "constraint-graph backend: array or map")
		dot      = flag.Bool("dot", false, "print the topology as Graphviz dot")
		cfgDot   = flag.Bool("cfg", false, "print the CFG as Graphviz dot and exit")
		trace    = flag.Bool("trace", false, "log analysis steps to stderr")
		doVerify = flag.Bool("verify", true, "run the error-detection pass")
		stats    = flag.Bool("stats", false, "print analysis statistics")
		nonBlock = flag.Bool("nonblocking", false, "non-blocking sends (Section X aggregation extension)")
		pcfgDot  = flag.Bool("pcfg", false, "print the explored pCFG as Graphviz dot")
	)
	lf := addLogFlags(flag.CommandLine)
	flag.Parse()
	if flag.NArg() != 1 {
		fmt.Fprintln(os.Stderr, "usage: psdf [flags] program.mpl")
		flag.PrintDefaults()
		os.Exit(2)
	}
	if err := run(flag.Arg(0), *client, *backend, *lf.level, *lf.format, *dot, *cfgDot, *trace, *doVerify, *stats, *nonBlock, *pcfgDot); err != nil {
		fmt.Fprintln(os.Stderr, "psdf:", err)
		os.Exit(1)
	}
}

func run(path, client, backend, logLevel, logFormat string, dot, cfgDot, trace, doVerify, stats, nonBlock, pcfgDot bool) error {
	src, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	prog, err := parser.Parse(path, string(src))
	if err != nil {
		return err
	}
	if _, err := sem.Check(prog); err != nil {
		return err
	}
	g := cfg.Build(prog)
	if cfgDot {
		fmt.Print(g.Dot(path))
		return nil
	}

	logger, err := obs.NewLogger(os.Stderr, logLevel, logFormat)
	if err != nil {
		return err
	}

	var cgStats cg.Stats
	opts := core.Options{
		CGOpts:           cg.Options{Stats: &cgStats},
		NonBlockingSends: nonBlock,
		Name:             path,
		Log:              logger,
	}
	switch backend {
	case "array":
		opts.CGOpts.Backend = cg.ArrayBackend
	case "map":
		opts.CGOpts.Backend = cg.MapBackend
	default:
		return fmt.Errorf("unknown backend %q", backend)
	}
	switch client {
	case "symbolic":
		opts.Matcher = &symbolic.Matcher{}
	case "cartesian":
		opts.Matcher = cartesian.New(core.ScanInvariants(g))
	default:
		return fmt.Errorf("unknown client %q", client)
	}
	if trace {
		opts.Trace = os.Stderr
	}

	res, err := core.Analyze(g, opts)
	if err != nil {
		return err
	}

	if pcfgDot {
		fmt.Print(res.PCFGDot(path))
		return nil
	}
	rep := topology.Build(g, res)
	if dot {
		fmt.Print(rep.Dot(path))
	} else {
		fmt.Print(rep)
	}
	for _, p := range res.Prints {
		if p.Known {
			fmt.Printf("  print at n%d on %s always outputs %d\n", p.Node, p.Range, p.Val)
		}
	}
	if doVerify {
		vr := verify.Check(g, res)
		fmt.Println(vr)
	}
	if stats {
		fmt.Printf("stats: %d pCFG nodes, %d steps, %d widenings, %d incremental closures (avg %.1f vars), %d joins\n",
			res.Configs, res.Steps, res.Widenings, cgStats.IncrClosures(), cgStats.AvgIncrVars(), cgStats.Joins())
	}
	if !res.Clean() {
		return fmt.Errorf("analysis incomplete: %v", res.TopReasons())
	}
	return nil
}
