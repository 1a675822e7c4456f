package main

import (
	"flag"
	"fmt"
	"io"
	"log/slog"
	"os"
	"strings"

	"repro/internal/clients/cartesian"
	"repro/internal/core"
	"repro/internal/prof"
)

// runProfile implements `psdf profile`: it renders source-attributed
// analysis profiles either from saved psdf-profile/1 JSON reports (as
// written by `psdf -profile-out` or `psdf profile -format json`) or
// by profiling fresh MPL programs in place.
func runProfile(args []string) int {
	fs := flag.NewFlagSet("psdf profile", flag.ExitOnError)
	var (
		format = fs.String("format", "text", "output format: text (heat listing), json (psdf-profile/1) or folded (flamegraph stacks)")
		out    = fs.String("out", "", "write output to this file instead of stdout")
		top    = fs.Int("top", 0, "with -format text, rank only the n hottest source lines instead of the full listing")
		check  = fs.Bool("check", false, "validate JSON report inputs against the psdf-profile/1 schema and exit")
	)
	lf := addLogFlags(fs)
	fs.Usage = func() {
		fmt.Fprintln(os.Stderr, "usage: psdf profile [flags] (report.json | program.mpl) ...")
		fs.PrintDefaults()
	}
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() == 0 {
		fs.Usage()
		return 2
	}

	logger, err := lf.logger()
	if err != nil {
		fmt.Fprintf(os.Stderr, "psdf profile: %v\n", err)
		return 2
	}

	var jobs []*prof.Report
	for _, path := range fs.Args() {
		if strings.HasSuffix(path, ".json") {
			f, err := os.Open(path)
			if err != nil {
				fmt.Fprintf(os.Stderr, "psdf profile: %v\n", err)
				return 2
			}
			reps, err := prof.ReadJSON(f)
			f.Close()
			if err != nil {
				fmt.Fprintf(os.Stderr, "psdf profile: %s: %v\n", path, err)
				return 2
			}
			jobs = append(jobs, reps...)
			continue
		}
		if *check {
			fmt.Fprintf(os.Stderr, "psdf profile: -check takes JSON reports, got %s\n", path)
			return 2
		}
		rep, err := profileProgram(path, logger)
		if err != nil {
			fmt.Fprintf(os.Stderr, "psdf profile: %s: %v\n", path, err)
			return 2
		}
		jobs = append(jobs, rep)
	}
	if *check {
		fmt.Printf("psdf profile: %d report(s) valid\n", len(jobs))
		return 0
	}

	w := io.Writer(os.Stdout)
	if *out != "" {
		f, err := os.Create(*out)
		if err != nil {
			fmt.Fprintf(os.Stderr, "psdf profile: %v\n", err)
			return 2
		}
		defer f.Close()
		w = f
	}
	if err := renderProfiles(w, jobs, *format, *top); err != nil {
		fmt.Fprintf(os.Stderr, "psdf profile: %v\n", err)
		return 2
	}
	return 0
}

// profileProgram analyzes one MPL source file with a profiler attached
// and returns its source-attributed report.
func profileProgram(path string, logger *slog.Logger) (*prof.Report, error) {
	p, err := loadProgram(path)
	if err != nil {
		return nil, err
	}
	pr := prof.New()
	if _, err := core.Analyze(p.g, core.Options{
		Matcher:  cartesian.New(core.ScanInvariants(p.g)),
		Name:     path,
		Log:      logger,
		Profiler: pr,
	}); err != nil {
		return nil, err
	}
	return pr.Report(path, p.src), nil
}

// renderProfiles writes the collected reports in the requested format.
func renderProfiles(w io.Writer, jobs []*prof.Report, format string, top int) error {
	switch format {
	case "json":
		return prof.WriteJSON(w, jobs)
	case "folded":
		for _, rep := range jobs {
			if err := rep.WriteFolded(w); err != nil {
				return err
			}
		}
		return nil
	case "text":
		for i, rep := range jobs {
			if i > 0 {
				fmt.Fprintln(w)
			}
			if top > 0 {
				rep.WriteTop(w, top)
				continue
			}
			if err := rep.WriteListing(w); err != nil {
				return err
			}
		}
		return nil
	default:
		return fmt.Errorf("unknown format %q (want text, json or folded)", format)
	}
}
