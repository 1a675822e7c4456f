package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"runtime"
	"sort"
	"strings"
	"time"

	"repro/internal/benchhist"
	"repro/internal/experiments"
)

// runBench implements `psdf bench`: the paper tables plus the longitudinal
// regression observability workflow over BENCH_HISTORY.jsonl.
//
//	psdf bench run     run the experiments registry once and print the
//	                   paper-vs-measured tables
//	psdf bench record  measure the experiments registry (N samples per
//	                   spec) plus the per-workload precision fingerprints
//	                   and append one commit-anchored entry to the history
//	psdf bench diff    statistically compare two entries (Mann–Whitney
//	                   over timings, exact facet equality over
//	                   fingerprints)
//	psdf bench check   the CI gate: diff baseline vs latest and exit
//	                   nonzero on precision changes (and, with
//	                   -fail-on-time, on significant slowdowns)
//	psdf bench report  render the whole recorded trajectory as markdown
func runBench(args []string) int {
	if len(args) < 1 {
		benchUsage()
		return 2
	}
	switch args[0] {
	case "run":
		return benchRun(args[1:])
	case "record":
		return benchRecord(args[1:])
	case "diff":
		return benchDiff(args[1:])
	case "check":
		return benchCheck(args[1:])
	case "report":
		return benchReport(args[1:])
	case "-h", "-help", "--help", "help":
		benchUsage()
		return 0
	default:
		fmt.Fprintf(os.Stderr, "psdf bench: unknown subcommand %q\n", args[0])
		benchUsage()
		return 2
	}
}

func benchUsage() {
	fmt.Fprintln(os.Stderr, `usage: psdf bench <subcommand> [flags]

subcommands:
  run     run the experiments registry once and print the paper tables
  record  run the experiments registry -sample times, capture precision
          fingerprints, and append a commit-anchored entry to the history
  diff    statistically compare two history entries
  check   CI gate: compare baseline vs latest, exit nonzero past thresholds
  report  render the recorded trajectory as markdown

run 'psdf bench <subcommand> -h' for flags`)
}

// gitHead returns the current commit SHA, or "" when not in a git checkout
// (the entry then records "unknown" and diffs still work by index).
func gitHead() string {
	out, err := exec.Command("git", "rev-parse", "HEAD").Output()
	if err != nil {
		return ""
	}
	return strings.TrimSpace(string(out))
}

func hostFingerprint() benchhist.Host {
	return benchhist.Host{
		OS:        runtime.GOOS,
		Arch:      runtime.GOARCH,
		CPUs:      runtime.NumCPU(),
		GoVersion: runtime.Version(),
	}
}

// splitIDs parses a comma-separated -exp list (empty selects every spec).
func splitIDs(list string) []string {
	var ids []string
	for _, id := range strings.Split(list, ",") {
		if id = strings.TrimSpace(id); id != "" {
			ids = append(ids, id)
		}
	}
	return ids
}

// benchRun regenerates the paper's evaluation tables: every selected spec
// runs once and its table prints with the paper-reported value next to the
// measured one. The experiment ids match DESIGN.md's per-experiment index;
// `psdf bench record` keeps the timings.
func benchRun(args []string) int {
	fs := flag.NewFlagSet("bench run", flag.ExitOnError)
	expList := fs.String("exp", "", "comma-separated spec ids to run (default: all)")
	_ = fs.Parse(args)
	if fs.NArg() != 0 {
		fmt.Fprintln(os.Stderr, "psdf bench run: unexpected arguments", fs.Args())
		return 2
	}
	sampled, err := experiments.RunSampled(splitIDs(*expList), 1)
	if err != nil {
		fmt.Fprintln(os.Stderr, "psdf bench run:", err)
		return 1
	}
	for _, s := range sampled {
		fmt.Println(s.Table)
	}
	return 0
}

func benchRecord(args []string) int {
	fs := flag.NewFlagSet("bench record", flag.ExitOnError)
	var (
		samples = fs.Int("sample", 5, "repetitions per spec (timing samples)")
		history = fs.String("history", "BENCH_HISTORY.jsonl", "history file to append to")
		commit  = fs.String("commit", "", "commit SHA to anchor the entry to (default: git rev-parse HEAD)")
		note    = fs.String("note", "", "free-form annotation stored on the entry")
		expList = fs.String("exp", "", "comma-separated spec ids to record (default: all)")
		fuzzSum = fs.String("fuzz-summary", "", "attach a differential-fuzz sweep summary JSON (from `psdf fuzz -summary-out`) to the entry")
	)
	_ = fs.Parse(args)
	if fs.NArg() != 0 {
		fmt.Fprintln(os.Stderr, "psdf bench record: unexpected arguments", fs.Args())
		return 2
	}
	ids := splitIDs(*expList)
	sha := *commit
	if sha == "" {
		if sha = gitHead(); sha == "" {
			sha = "unknown"
		}
	}
	if min := benchhist.MinSamplesForAlpha(benchhist.DefaultThresholds().Alpha); *samples < min {
		fmt.Fprintf(os.Stderr, "psdf bench record: note: %d samples cannot reach significance at alpha %.2f (needs >= %d); timing diffs against this entry will report \"no change\"\n",
			*samples, benchhist.DefaultThresholds().Alpha, min)
	}

	start := time.Now()
	sampled, err := experiments.RunSampled(ids, *samples)
	if err != nil {
		fmt.Fprintln(os.Stderr, "psdf bench record:", err)
		return 1
	}
	fps, err := experiments.CaptureFingerprints()
	if err != nil {
		fmt.Fprintln(os.Stderr, "psdf bench record:", err)
		return 1
	}
	var fuzz *benchhist.FuzzSweep
	if *fuzzSum != "" {
		data, err := os.ReadFile(*fuzzSum)
		if err != nil {
			fmt.Fprintln(os.Stderr, "psdf bench record:", err)
			return 2
		}
		fuzz = &benchhist.FuzzSweep{}
		if err := json.Unmarshal(data, fuzz); err != nil {
			fmt.Fprintf(os.Stderr, "psdf bench record: %s: %v\n", *fuzzSum, err)
			return 2
		}
		if fuzz.Programs <= 0 {
			fmt.Fprintf(os.Stderr, "psdf bench record: %s: summary records no programs\n", *fuzzSum)
			return 2
		}
	}

	entry := &benchhist.Entry{
		SchemaVersion: benchhist.SchemaVersion,
		Commit:        sha,
		Time:          time.Now().UTC(),
		Note:          *note,
		Host:          hostFingerprint(),
		Samples:       *samples,
		Specs:         map[string]*benchhist.SpecTiming{},
		Fingerprints:  fps,
		Fuzz:          fuzz,
	}
	for _, s := range sampled {
		st := benchhist.NewSpecTiming(s.Title, s.WallNs, s.Phases)
		st.AllocsPerOp, st.BytesPerOp = s.AllocsPerOp, s.BytesPerOp
		entry.Specs[s.ID] = st
	}
	if err := benchhist.Append(*history, entry); err != nil {
		fmt.Fprintln(os.Stderr, "psdf bench record:", err)
		return 1
	}
	fmt.Printf("recorded %s entry for %s: %d specs x %d samples, %d fingerprints (%v total)\n",
		*history, entry.ShortCommit(), len(entry.Specs), *samples, len(fps), time.Since(start).Round(time.Millisecond))
	for _, s := range sampled {
		st := entry.Specs[s.ID]
		allocs := ""
		if st.HasAllocs() {
			allocs = fmt.Sprintf("  %d allocs/op  %s/op", st.AllocsPerOp, humanBytes(st.BytesPerOp))
		}
		fmt.Printf("  %-14s median %12v  stddev %10v  (%d samples)%s\n",
			s.ID, time.Duration(st.MedianNs).Round(time.Microsecond),
			time.Duration(st.StddevNs).Round(time.Microsecond), len(st.WallNs), allocs)
	}
	if fuzz != nil {
		fmt.Printf("  fuzz sweep seed %d: %d programs, ok=%d precision=%d (%.1f%%) soundness=%d error=%d\n",
			fuzz.Seed, fuzz.Programs, fuzz.OK, fuzz.Precision, 100*fuzz.PrecisionRate(),
			fuzz.Soundness, fuzz.Errors)
	}
	return 0
}

// humanBytes renders a byte count with a binary-prefix unit.
func humanBytes(n int64) string {
	switch {
	case n >= 1<<30:
		return fmt.Sprintf("%.1fGiB", float64(n)/(1<<30))
	case n >= 1<<20:
		return fmt.Sprintf("%.1fMiB", float64(n)/(1<<20))
	case n >= 1<<10:
		return fmt.Sprintf("%.1fKiB", float64(n)/(1<<10))
	}
	return fmt.Sprintf("%dB", n)
}

func benchDiff(args []string) int {
	fs := flag.NewFlagSet("bench diff", flag.ExitOnError)
	var (
		history  = fs.String("history", "BENCH_HISTORY.jsonl", "history file to read")
		oldSel   = fs.String("old", "-2", "old entry selector (index, negative from end, commit prefix, 'baseline', 'latest')")
		newSel   = fs.String("new", "latest", "new entry selector")
		alpha    = fs.Float64("alpha", 0.05, "Mann–Whitney significance level")
		minDelta = fs.Float64("min-delta", 0.05, "minimum |relative median change| to flag")
		markdown = fs.Bool("markdown", false, "render the report as markdown")
	)
	_ = fs.Parse(args)
	r, err := diffReport(*history, *oldSel, *newSel, benchhist.Thresholds{Alpha: *alpha, MinDelta: *minDelta})
	if err != nil {
		fmt.Fprintln(os.Stderr, "psdf bench diff:", err)
		return 1
	}
	if *markdown {
		fmt.Print(r.Markdown())
	} else {
		fmt.Print(r)
	}
	return 0
}

// diffReport reads the history, resolves the selectors and builds the
// statistical comparison.
func diffReport(history, oldSel, newSel string, th benchhist.Thresholds) (*benchhist.Report, error) {
	entries, err := benchhist.Read(history)
	if err != nil {
		return nil, err
	}
	if len(entries) < 2 && oldSel != newSel {
		return nil, fmt.Errorf("%s has %d entr%s; need two to diff (run `psdf bench record` on both commits)",
			history, len(entries), map[bool]string{true: "y", false: "ies"}[len(entries) == 1])
	}
	oldE, oldIdx, err := benchhist.Select(entries, oldSel)
	if err != nil {
		return nil, fmt.Errorf("old selector: %w", err)
	}
	newE, newIdx, err := benchhist.Select(entries, newSel)
	if err != nil {
		return nil, fmt.Errorf("new selector: %w", err)
	}
	r := benchhist.Diff(oldE, newE, th)
	r.OldIndex, r.NewIndex = oldIdx, newIdx
	return r, nil
}

func benchCheck(args []string) int {
	fs := flag.NewFlagSet("bench check", flag.ExitOnError)
	var (
		history      = fs.String("history", "BENCH_HISTORY.jsonl", "history file to read")
		baseline     = fs.String("baseline", "baseline", "baseline entry selector (default: the oldest entry)")
		target       = fs.String("new", "latest", "entry under test")
		alpha        = fs.Float64("alpha", 0.05, "Mann–Whitney significance level")
		minDelta     = fs.Float64("min-delta", 0.05, "minimum |relative median change| to flag")
		failOnTime   = fs.Bool("fail-on-time", false, "fail (not just warn) on significant same-host slowdowns")
		failOnAllocs = fs.Bool("fail-on-allocs", false, "fail (not just warn) on allocs/op regressions past -max-alloc-delta")
		maxAlloc     = fs.Float64("max-alloc-delta", 0.20, "relative allocs/op growth past which a spec regresses")
	)
	_ = fs.Parse(args)
	r, err := diffReport(*history, *baseline, *target,
		benchhist.Thresholds{Alpha: *alpha, MinDelta: *minDelta, MaxAllocDelta: *maxAlloc})
	if err != nil {
		fmt.Fprintln(os.Stderr, "psdf bench check:", err)
		return 1
	}
	fmt.Print(r)
	failures, warnings := r.GateWith(benchhist.GatePolicy{FailOnTime: *failOnTime, FailOnAllocs: *failOnAllocs})
	for _, w := range warnings {
		fmt.Printf("WARN: %s\n", w)
	}
	for _, f := range failures {
		fmt.Printf("FAIL: %s\n", f)
	}
	if len(failures) > 0 {
		fmt.Printf("bench check: FAILED (%d failure(s), %d warning(s))\n", len(failures), len(warnings))
		return 1
	}
	fmt.Printf("bench check: ok (%d warning(s))\n", len(warnings))
	return 0
}

func benchReport(args []string) int {
	fs := flag.NewFlagSet("bench report", flag.ExitOnError)
	var (
		history = fs.String("history", "BENCH_HISTORY.jsonl", "history file to read")
		out     = fs.String("out", "", "write the markdown report to a file instead of stdout")
	)
	_ = fs.Parse(args)
	entries, err := benchhist.Read(*history)
	if err != nil {
		fmt.Fprintln(os.Stderr, "psdf bench report:", err)
		return 1
	}
	md := trajectoryMarkdown(*history, entries)
	if *out == "" {
		fmt.Print(md)
		return 0
	}
	if err := benchhist.WriteFileAtomic(*out, []byte(md), 0o644); err != nil {
		fmt.Fprintln(os.Stderr, "psdf bench report:", err)
		return 1
	}
	fmt.Printf("wrote %s (%d entries)\n", *out, len(entries))
	return 0
}

// trajectoryMarkdown renders the full history: one row per entry per spec
// (median wall), plus the fingerprint deltas between consecutive entries.
func trajectoryMarkdown(path string, entries []*benchhist.Entry) string {
	var b strings.Builder
	fmt.Fprintf(&b, "# Bench trajectory: %s\n\n%d entries.\n\n", path, len(entries))

	// Union of spec ids across the trajectory, sorted.
	ids := map[string]bool{}
	for _, e := range entries {
		for id := range e.Specs {
			ids[id] = true
		}
	}
	sorted := make([]string, 0, len(ids))
	for id := range ids {
		sorted = append(sorted, id)
	}
	sort.Strings(sorted)

	b.WriteString("## Timing trajectory (median wall per entry)\n\n| spec |")
	for i, e := range entries {
		fmt.Fprintf(&b, " #%d `%s` |", i, e.ShortCommit())
	}
	b.WriteString("\n|---|")
	for range entries {
		b.WriteString("---:|")
	}
	b.WriteString("\n")
	for _, id := range sorted {
		fmt.Fprintf(&b, "| %s |", id)
		for _, e := range entries {
			if st := e.Specs[id]; st != nil {
				fmt.Fprintf(&b, " %v |", time.Duration(st.MedianNs).Round(time.Microsecond))
			} else {
				b.WriteString(" - |")
			}
		}
		b.WriteString("\n")
	}

	// Allocation trajectory, shown once any entry carries alloc data
	// (entries recorded before the fields existed render as "-").
	anyAllocs := false
	for _, e := range entries {
		for _, st := range e.Specs {
			if st.HasAllocs() {
				anyAllocs = true
			}
		}
	}
	if anyAllocs {
		b.WriteString("\n## Allocation trajectory (allocs/op per entry)\n\n| spec |")
		for i, e := range entries {
			fmt.Fprintf(&b, " #%d `%s` |", i, e.ShortCommit())
		}
		b.WriteString("\n|---|")
		for range entries {
			b.WriteString("---:|")
		}
		b.WriteString("\n")
		for _, id := range sorted {
			fmt.Fprintf(&b, "| %s |", id)
			for _, e := range entries {
				if st := e.Specs[id]; st.HasAllocs() {
					fmt.Fprintf(&b, " %d (%s) |", st.AllocsPerOp, humanBytes(st.BytesPerOp))
				} else {
					b.WriteString(" - |")
				}
			}
			b.WriteString("\n")
		}
	}

	// Differential-fuzz trajectory, shown once any entry carries a sweep
	// summary: the precision-loss rate over generated programs is the
	// broad-coverage drift signal the curated fingerprints cannot see.
	anyFuzz := false
	for _, e := range entries {
		if e.Fuzz != nil {
			anyFuzz = true
		}
	}
	if anyFuzz {
		b.WriteString("\n## Differential-fuzz trajectory\n\n")
		b.WriteString("| entry | seed | programs | ok | precision | rate | soundness | error | top construct |\n")
		b.WriteString("|---|---:|---:|---:|---:|---:|---:|---:|---|\n")
		for i, e := range entries {
			if e.Fuzz == nil {
				fmt.Fprintf(&b, "| #%d `%s` | - | - | - | - | - | - | - | - |\n", i, e.ShortCommit())
				continue
			}
			fz := e.Fuzz
			// The top construct is the profiler's attribution verdict for
			// this sweep: the generated source construct charged with the
			// most widening failures (from `psdf fuzz -profile-out`).
			top := "-"
			if len(fz.Constructs) > 0 {
				c := fz.Constructs[0]
				top = fmt.Sprintf("`%s` (%d fails)", c.Construct, c.WidenFailures)
			}
			fmt.Fprintf(&b, "| #%d `%s` | %d | %d | %d | %d | %.1f%% | %d | %d | %s |\n",
				i, e.ShortCommit(), fz.Seed, fz.Programs, fz.OK, fz.Precision,
				100*fz.PrecisionRate(), fz.Soundness, fz.Errors, top)
		}
	}

	b.WriteString("\n## Precision trajectory\n\n")
	anyChange := false
	for i := 1; i < len(entries); i++ {
		r := benchhist.Diff(entries[i-1], entries[i], benchhist.DefaultThresholds())
		if !r.PrecisionChanged() {
			continue
		}
		anyChange = true
		fmt.Fprintf(&b, "### #%d `%s` → #%d `%s`\n\n", i-1, entries[i-1].ShortCommit(), i, entries[i].ShortCommit())
		for _, fd := range r.Fingerprints {
			if !fd.PrecisionChanged() {
				continue
			}
			switch {
			case fd.Added:
				fmt.Fprintf(&b, "- `%s`: added\n", fd.Workload)
			case fd.Removed:
				fmt.Fprintf(&b, "- `%s`: removed\n", fd.Workload)
			default:
				fmt.Fprintf(&b, "- `%s`: %s\n", fd.Workload, strings.Join(fd.Changed, "; "))
			}
		}
		b.WriteString("\n")
	}
	if !anyChange {
		b.WriteString("No precision-fingerprint changes across the recorded trajectory.\n")
	}
	return b.String()
}
