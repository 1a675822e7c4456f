package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"strings"

	"repro/internal/benchhist"
	"repro/internal/differ"
	"repro/internal/gen"
)

// runFuzz is the differential-soundness sweep: generate N programs from a
// fixed seed, triage each against the explicit-state oracle, optionally
// minimize every divergence, and exit nonzero when any finding reaches the
// gate class. `psdf fuzz -seed 1 -n 2000` is the CI acceptance gate.
func runFuzz(args []string) int {
	fs := flag.NewFlagSet("fuzz", flag.ExitOnError)
	var (
		seed    = fs.Int64("seed", 1, "base sweep seed (program i uses sub-seed seed+i*1000003)")
		n       = fs.Int("n", 100, "number of programs to generate and triage")
		nps     = fs.String("np", "", "comma-separated oracle process counts (default 2..6)")
		buggy   = fs.Float64("buggy", 0, "fraction of programs generated with a deliberate defect")
		shrink  = fs.Bool("shrink", false, "minimize each divergent program (class-preserving ddmin)")
		out     = fs.String("out", "", "directory to write divergent programs (and minimized repros) to")
		gate    = fs.String("gate", "error", "fail the sweep when a finding reaches this class (error|soundness|precision)")
		verbose = fs.Bool("v", false, "log every program as it is triaged")
		in      = fs.String("in", "", "triage (and with -shrink, minimize) one MPL file instead of sweeping")
		sumOut  = fs.String("summary-out", "", "write the sweep summary as JSON (benchhist.FuzzSweep) for `psdf bench record -fuzz-summary`")
		profOut = fs.String("profile-out", "", "profile every sequential reference run, print the ranked per-construct precision attribution, and write it as JSON")
	)
	lf := addLogFlags(fs)
	fs.Usage = func() {
		fmt.Fprintln(os.Stderr, "usage: psdf fuzz [-seed S] [-n N] [-np 2,3,4] [-shrink] [-out dir] [-gate class]")
		fs.PrintDefaults()
	}
	if err := fs.Parse(args); err != nil {
		return 2
	}
	gateClass, err := differ.ParseClass(*gate)
	if err != nil || gateClass <= differ.ClassSkipped {
		fmt.Fprintf(os.Stderr, "psdf fuzz: bad -gate %q (want precision, error or soundness)\n", *gate)
		return 2
	}
	do := differ.Options{}
	if do.Core.Log, err = lf.logger(); err != nil {
		fmt.Fprintf(os.Stderr, "psdf fuzz: %v\n", err)
		return 2
	}
	if do.NPs, err = parseIntList(*nps); err != nil {
		fmt.Fprintf(os.Stderr, "psdf fuzz: bad -np: %v\n", err)
		return 2
	}
	if *out != "" {
		if err := os.MkdirAll(*out, 0o755); err != nil {
			fmt.Fprintf(os.Stderr, "psdf fuzz: %v\n", err)
			return 2
		}
	}

	if *in != "" {
		src, err := os.ReadFile(*in)
		if err != nil {
			fmt.Fprintf(os.Stderr, "psdf fuzz: %v\n", err)
			return 2
		}
		f := differ.Check(string(src), do)
		fmt.Printf("%s: %s\n", *in, f)
		if *shrink && f.Class > differ.ClassSkipped {
			sr, err := differ.Shrink(string(src), differ.ShrinkOptions{Differ: do})
			if err != nil {
				fmt.Fprintf(os.Stderr, "psdf fuzz: shrink: %v\n", err)
				return 2
			}
			fmt.Printf("minimized to %d statements (%d checks), finding now: %s\n%s",
				sr.Stmts, sr.Checks, sr.Finding, sr.Src)
		}
		if f.Class >= gateClass {
			return 1
		}
		return 0
	}

	so := differ.SweepOptions{Seed: *seed, N: *n, BuggyFraction: *buggy, Differ: do, Attribute: *profOut != ""}
	if *verbose {
		so.Progress = func(i int, p gen.Program, f *differ.Finding) {
			fmt.Printf("program %4d (seed %d, %v): %s\n", i, differ.ProgramSeed(*seed, i), p.Families, f)
		}
	}
	res := differ.Sweep(so)

	failed := false
	for _, f := range res.Findings {
		if f.Finding.Class >= gateClass {
			failed = true
		}
		if f.Finding.Class >= gateClass || *out != "" {
			fmt.Printf("program %d (seed %d): %s\n", f.Index, f.Seed, f.Finding)
		}
		if *out != "" {
			base := filepath.Join(*out, fmt.Sprintf("%04d_%s", f.Index, f.Finding.Class))
			header := fmt.Sprintf("# max-class: %s\n# origin: psdf fuzz -seed %d (program %d, sub-seed %d)\n# finding: %s\n",
				f.Finding.Class, *seed, f.Index, f.Seed, f.Finding)
			if err := os.WriteFile(base+".mpl", []byte(header+f.Program.Src), 0o644); err != nil {
				fmt.Fprintf(os.Stderr, "psdf fuzz: %v\n", err)
				return 2
			}
			if *shrink {
				sr, err := differ.Shrink(f.Program.Src, differ.ShrinkOptions{Differ: do})
				if err != nil {
					fmt.Fprintf(os.Stderr, "psdf fuzz: shrink program %d: %v\n", f.Index, err)
					continue
				}
				minHeader := header + fmt.Sprintf("# minimized: %d statements, %d checks, finding now: %s\n",
					sr.Stmts, sr.Checks, sr.Finding)
				if err := os.WriteFile(base+".min.mpl", []byte(minHeader+sr.Src), 0o644); err != nil {
					fmt.Fprintf(os.Stderr, "psdf fuzz: %v\n", err)
					return 2
				}
				fmt.Printf("  minimized to %d statements (%d checks)\n", sr.Stmts, sr.Checks)
			}
		}
	}
	fmt.Printf("fuzz sweep: %d programs: ok=%d precision=%d skipped=%d soundness=%d error=%d (precision rate %.1f%%)\n",
		res.Programs, res.Count(differ.ClassOK), res.Count(differ.ClassPrecision), res.Count(differ.ClassSkipped),
		res.Count(differ.ClassSoundness), res.Count(differ.ClassError),
		100*res.PrecisionRate())
	if res.Attribution != nil {
		res.Attribution.WriteTable(os.Stdout)
		f, err := os.Create(*profOut)
		if err != nil {
			fmt.Fprintf(os.Stderr, "psdf fuzz: %v\n", err)
			return 2
		}
		if err := res.Attribution.WriteJSON(f); err != nil {
			f.Close()
			fmt.Fprintf(os.Stderr, "psdf fuzz: %v\n", err)
			return 2
		}
		if err := f.Close(); err != nil {
			fmt.Fprintf(os.Stderr, "psdf fuzz: %v\n", err)
			return 2
		}
	}
	if *sumOut != "" {
		summary := benchhist.FuzzSweep{
			Seed:      *seed,
			Programs:  res.Programs,
			OK:        res.Count(differ.ClassOK),
			Skipped:   res.Count(differ.ClassSkipped),
			Precision: res.Count(differ.ClassPrecision),
			Errors:    res.Count(differ.ClassError),
			Soundness: res.Count(differ.ClassSoundness),
		}
		if res.Attribution != nil {
			for _, cs := range res.Attribution.Rows() {
				summary.Constructs = append(summary.Constructs, benchhist.FuzzConstruct{
					Construct:     cs.Construct,
					Programs:      cs.Programs,
					WidenFailures: cs.WidenFailures,
					GiveUps:       cs.GiveUps,
					TopDemotions:  cs.TopDemotions,
					TopPair:       cs.TopPair(),
				})
			}
		}
		data, err := json.MarshalIndent(&summary, "", "  ")
		if err != nil {
			fmt.Fprintf(os.Stderr, "psdf fuzz: %v\n", err)
			return 2
		}
		if err := os.WriteFile(*sumOut, append(data, '\n'), 0o644); err != nil {
			fmt.Fprintf(os.Stderr, "psdf fuzz: %v\n", err)
			return 2
		}
	}
	if failed {
		fmt.Printf("FAIL: findings at or above class %s\n", gateClass)
		return 1
	}
	return 0
}

// parseIntList parses "2,3,4" into []int; empty input yields nil (defaults).
func parseIntList(s string) ([]int, error) {
	if s == "" {
		return nil, nil
	}
	var out []int
	for _, part := range strings.Split(s, ",") {
		v, err := strconv.Atoi(strings.TrimSpace(part))
		if err != nil {
			return nil, err
		}
		out = append(out, v)
	}
	return out, nil
}
