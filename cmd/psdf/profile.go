package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	"repro/internal/prof"
)

// runProfile implements `psdf profile`: it renders saved source-attributed
// analysis profiles, the psdf-profile/1 JSON reports that `psdf
// -profile-out` and `psdf profile -format json` write.
func runProfile(args []string) int {
	fs := flag.NewFlagSet("psdf profile", flag.ExitOnError)
	var (
		format = fs.String("format", "text", "output format: text (heat listing), json (psdf-profile/1) or folded (flamegraph stacks)")
		out    = fs.String("out", "", "write output to this file instead of stdout")
		top    = fs.Int("top", 0, "with -format text, rank only the n hottest source lines instead of the full listing")
		check  = fs.Bool("check", false, "validate the reports against the psdf-profile/1 schema and exit")
	)
	fs.Usage = func() {
		fmt.Fprintln(os.Stderr, "usage: psdf profile [flags] report.json ...")
		fs.PrintDefaults()
	}
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() == 0 {
		fs.Usage()
		return 2
	}

	var jobs []*prof.Report
	for _, path := range fs.Args() {
		reps, err := readProfile(path)
		if err != nil {
			fmt.Fprintf(os.Stderr, "psdf profile: %s: %v\n", path, err)
			fmt.Fprintln(os.Stderr, "psdf profile renders saved reports; to profile a program, run `psdf -profile-out r.json prog.mpl` or `psdf -stats prog.mpl`")
			return 2
		}
		jobs = append(jobs, reps...)
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

// readProfile reads one psdf-profile/1 JSON report file.
func readProfile(path string) ([]*prof.Report, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return prof.ReadJSON(f)
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
