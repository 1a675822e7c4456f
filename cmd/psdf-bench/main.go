// Command psdf-bench regenerates the paper's evaluation tables: for every
// figure and table in the CGO 2009 paper's evaluation, it runs the
// corresponding workload through the analysis (and the baselines) and
// prints the paper-reported value next to the measured one. The experiment
// ids match DESIGN.md's per-experiment index.
//
// Usage:
//
//	psdf-bench [-exp id] [-parallel n] [-bench-dir dir]
//	                            run one experiment (fig2, fig5, fig6, fig7,
//	                            table1, profile, storage, scaling,
//	                            precision, verify, stencil, aggregation,
//	                            parallel) or all (default). With
//	                            all, -parallel bounds how many experiments
//	                            run concurrently (0 = one per CPU,
//	                            1 = serial). Every spec that runs also
//	                            writes a machine-readable BENCH_<spec>.json
//	                            (wall time + obs phase breakdown) under
//	                            -bench-dir (default: current directory).
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"log/slog"
	"os"
	"path/filepath"
	"time"

	"repro/internal/benchhist"
	"repro/internal/experiments"
	"repro/internal/obs"
)

func main() {
	exp := flag.String("exp", "all", "experiment id or 'all'")
	parallel := flag.Int("parallel", 0, "worker bound for -exp all (0 = one per CPU, 1 = sequential)")
	benchDir := flag.String("bench-dir", ".", "directory for the per-spec BENCH_<spec>.json records")
	logLevel := flag.String("log", "off", "structured log level: off, debug, info, warn or error")
	logFormat := flag.String("log-format", "text", "structured log format: text or json")
	flag.Parse()

	logger, err := obs.NewLogger(os.Stderr, *logLevel, *logFormat)
	if err != nil {
		fmt.Fprintln(os.Stderr, "psdf-bench:", err)
		os.Exit(2)
	}

	if *exp == "all" {
		logStart(logger, "all")
		start := time.Now()
		tables, recs, err := experiments.RunAll(*parallel)
		if err != nil {
			fmt.Fprintln(os.Stderr, "psdf-bench:", err)
			os.Exit(1)
		}
		logDone(logger, "all", start, len(recs))
		for _, t := range tables {
			fmt.Println(t)
		}
		for _, rec := range recs {
			if err := writeBenchRecord(*benchDir, rec); err != nil {
				fmt.Fprintln(os.Stderr, "psdf-bench:", err)
				os.Exit(1)
			}
		}
		return
	}
	logStart(logger, *exp)
	start := time.Now()
	t, rec, err := experiments.RunSpec(*exp)
	if err != nil {
		fmt.Fprintln(os.Stderr, "psdf-bench:", err)
		os.Exit(1)
	}
	logDone(logger, *exp, start, 1)
	fmt.Println(t)
	if err := writeBenchRecord(*benchDir, rec); err != nil {
		fmt.Fprintln(os.Stderr, "psdf-bench:", err)
		os.Exit(1)
	}
}

// logStart / logDone bracket an experiment run in the structured log (no-ops
// when -log is off).
func logStart(lg *slog.Logger, spec string) {
	if lg != nil {
		lg.Info("experiment started", "spec", spec)
	}
}

func logDone(lg *slog.Logger, spec string, start time.Time, specs int) {
	if lg != nil {
		lg.Info("experiment finished", "spec", spec,
			"elapsed_ms", time.Since(start).Milliseconds(), "specs", specs)
	}
}

// writeBenchRecord persists one experiment's benchmark record as
// BENCH_<spec>.json: wall time plus the obs phase breakdown aggregated over
// every analysis the experiment ran. The write is atomic (temp file +
// rename) so a crashed or interrupted run never leaves a truncated record
// for downstream tooling to trip over.
func writeBenchRecord(dir string, rec *experiments.SpecResult) error {
	data, err := json.MarshalIndent(rec, "", "  ")
	if err != nil {
		return err
	}
	path := filepath.Join(dir, "BENCH_"+rec.Spec+".json")
	if err := benchhist.WriteFileAtomic(path, append(data, '\n'), 0o644); err != nil {
		return err
	}
	fmt.Printf("wrote %s (wall %dms, %d phases)\n", path, rec.WallNs/1e6, len(rec.Phases))
	return nil
}
