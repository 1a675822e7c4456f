package main

import (
	"flag"
	"fmt"
	"os"

	"repro/internal/clients/symbolic"
	"repro/internal/core"
	"repro/internal/diag"
	"repro/internal/lint"
	"repro/internal/source"
)

// lintVersion is reported in the SARIF tool descriptor.
const lintVersion = "0.1.0"

// runLint implements the `psdf lint` subcommand: run the diagnostic passes
// over one or more MPL programs and render the findings. Exit codes: 0 no
// error-severity findings, 1 findings (or a file failed to analyze), 2 usage.
func runLint(args []string) int {
	fs := flag.NewFlagSet("psdf lint", flag.ExitOnError)
	var (
		format   = fs.String("format", "text", "output format: text, json or sarif")
		client   = fs.String("client", "cartesian", "client analysis: symbolic or cartesian")
		nonBlock = fs.Bool("nonblocking", false, "non-blocking sends (Section X aggregation extension)")
		strict   = fs.Bool("strict-bounds", false, "also report rank-bounds targets that could not be proved (PSDF-W004)")
		summary  = fs.Bool("summary", false, "print a per-file rank-bounds summary to stderr")
	)
	fs.Usage = func() {
		fmt.Fprintln(os.Stderr, "usage: psdf lint [flags] program.mpl [more.mpl ...]")
		fs.PrintDefaults()
		fmt.Fprintln(os.Stderr, "\npasses:")
		for _, p := range lint.Passes() {
			fmt.Fprintf(os.Stderr, "  %-14s %s\n", p.Name, p.Doc)
		}
	}
	fs.Parse(args)
	if fs.NArg() == 0 {
		fs.Usage()
		return 2
	}
	switch *format {
	case "text", "json", "sarif":
	default:
		fmt.Fprintf(os.Stderr, "psdf lint: unknown format %q (want text, json or sarif)\n", *format)
		return 2
	}
	if !validClient(*client) {
		fmt.Fprintf(os.Stderr, "psdf lint: unknown client %q (want symbolic or cartesian)\n", *client)
		return 2
	}

	var all []diag.Diagnostic
	files := map[string]*source.File{}
	failed := false
	for _, path := range fs.Args() {
		src, err := os.ReadFile(path)
		if err != nil {
			fmt.Fprintln(os.Stderr, "psdf lint:", err)
			failed = true
			continue
		}
		opts := core.Options{NonBlockingSends: *nonBlock}
		if *client == "symbolic" {
			opts.Matcher = &symbolic.Matcher{}
		}
		tgt, err := lint.Load(path, string(src), opts)
		if err != nil {
			fmt.Fprintf(os.Stderr, "psdf lint: %s: %v\n", path, err)
			failed = true
			continue
		}
		rep := lint.Run(tgt, lint.Options{Strict: *strict})
		all = append(all, rep.Diags...)
		files[tgt.Path] = tgt.File
		if *summary {
			s := rep.Bounds
			fmt.Fprintf(os.Stderr, "%s: bounds total=%d proven=%d proven-by-match=%d violated=%d unknown=%d non-affine=%d\n",
				path, s.Total, s.Proven, s.ProvenByMatch, s.Violated, s.Unknown, s.NonAffine)
		}
	}
	diag.Sort(all)

	var err error
	switch *format {
	case "text":
		diag.WriteText(os.Stdout, files, all)
	case "json":
		err = diag.WriteJSON(os.Stdout, all)
	case "sarif":
		err = diag.WriteSARIF(os.Stdout, lintVersion, all)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "psdf lint:", err)
		return 1
	}
	if failed || diag.HasErrors(all) {
		return 1
	}
	return 0
}
