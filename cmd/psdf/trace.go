package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"time"

	"repro/internal/obs"
)

// runTrace implements `psdf trace`: summarize a span trace written by
// `psdf -trace` (Chrome trace-event format) or `psdf -trace-jsonl` (JSON
// lines) into a per-phase / per-configuration cost table, or validate
// it with -check.
func runTrace(args []string) int {
	fs := flag.NewFlagSet("trace", flag.ExitOnError)
	var (
		top      = fs.Int("top", 10, "hottest configurations to list (0 = none)")
		check    = fs.Bool("check", false, "validate the trace (well-formed nesting, coverage) and exit nonzero on problems")
		minCover = fs.Float64("min-coverage", 0.95, "with -check: minimum self-time coverage of the engine-lane extent")
	)
	fs.Usage = func() {
		fmt.Fprintln(os.Stderr, "usage: psdf trace [-top n] [-check [-min-coverage f]] trace.json ...")
		fs.PrintDefaults()
	}
	_ = fs.Parse(args)
	if fs.NArg() < 1 {
		fs.Usage()
		return 2
	}
	exit := 0
	for _, path := range fs.Args() {
		evs, err := readTrace(path)
		if err != nil {
			fmt.Fprintf(os.Stderr, "psdf trace: %s: %v\n", path, err)
			exit = 1
			continue
		}
		if *check {
			if probs := obs.Check(evs, *minCover); len(probs) > 0 {
				fmt.Printf("%s: INVALID (%d problem(s))\n", path, len(probs))
				for _, p := range probs {
					fmt.Printf("  %s\n", p)
				}
				exit = 1
				continue
			}
			s := obs.Summarize(evs)
			fmt.Printf("%s: ok (%d events, wall %v, coverage %.1f%%)\n",
				path, s.Events, s.Wall.Round(time.Microsecond), 100*s.Coverage)
			continue
		}
		printSummary(path, obs.Summarize(evs), *top)
	}
	return exit
}

// readTrace loads a trace in either supported format: Chrome trace-event
// JSON arrays (what -trace writes) or JSON lines (what -trace-jsonl
// writes), picked by the file's first non-space byte.
func readTrace(path string) ([]obs.Event, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var first [1]byte
	for {
		n, err := f.Read(first[:])
		if n > 0 {
			switch first[0] {
			case ' ', '\t', '\n', '\r':
				continue
			}
			break
		}
		if err == io.EOF {
			return nil, fmt.Errorf("empty trace file")
		}
		if err == nil {
			// A (0, nil) read is legal for an io.Reader; error out rather
			// than spin.
			err = io.ErrNoProgress
		}
		return nil, err
	}
	if _, err := f.Seek(0, 0); err != nil {
		return nil, err
	}
	if first[0] == '[' {
		return obs.ReadChromeTrace(f)
	}
	return obs.ReadJSONL(f)
}

func printSummary(path string, s obs.Summary, top int) {
	fmt.Printf("%s: %d events, wall %v, self-time coverage %.1f%%\n",
		filepath.Clean(path), s.Events, s.Wall.Round(time.Microsecond), 100*s.Coverage)
	fmt.Printf("  %-14s %8s %12s %12s %7s\n", "phase", "count", "self", "inclusive", "self%")
	for _, pc := range s.Phases {
		pct := 0.0
		if s.SelfSum > 0 {
			pct = 100 * float64(pc.Self) / float64(s.SelfSum)
		}
		fmt.Printf("  %-14s %8d %12v %12v %6.1f%%\n",
			pc.Phase, pc.Count, pc.Self.Round(time.Microsecond),
			pc.Inclusive.Round(time.Microsecond), pct)
	}
	if top <= 0 || len(s.HotKeys) == 0 {
		return
	}
	fmt.Printf("  hottest configurations (self time):\n")
	for i, kc := range s.HotKeys {
		if i >= top {
			fmt.Printf("    ... %d more\n", len(s.HotKeys)-top)
			break
		}
		fmt.Printf("    %2d. %10v  %5d spans  %s\n",
			i+1, kc.Self.Round(time.Microsecond), kc.Count, flattenKey(kc.Key, 100))
	}
}

// flattenKey renders a (possibly multi-line) configuration shape key on one
// line, truncated for the table.
func flattenKey(key string, max int) string {
	k := strings.Join(strings.Fields(strings.ReplaceAll(key, "\n", " ")), " ")
	if len(k) > max {
		k = k[:max-3] + "..."
	}
	return k
}
