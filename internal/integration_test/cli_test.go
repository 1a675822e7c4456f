package integration_test

import (
	"bytes"
	"encoding/json"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/diag"
	"repro/internal/lint"
)

// buildPsdf compiles the psdf command into a temp dir.
func buildPsdf(t *testing.T) string {
	t.Helper()
	bin := filepath.Join(t.TempDir(), "psdf")
	cmd := exec.Command("go", "build", "-o", bin, "./cmd/psdf")
	cmd.Dir = repoRoot(t)
	out, err := cmd.CombinedOutput()
	if err != nil {
		t.Fatalf("build psdf: %v\n%s", err, out)
	}
	return bin
}

// exitCode is the exit status of a finished command (0 on success, -1 when
// it did not run).
func exitCode(err error) int {
	if err == nil {
		return 0
	}
	if ee, ok := err.(*exec.ExitError); ok {
		return ee.ExitCode()
	}
	return -1
}

func repoRoot(t *testing.T) string {
	t.Helper()
	dir, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "go.mod")); err == nil {
			return dir
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			t.Fatal("go.mod not found above working directory")
		}
		dir = parent
	}
}

func TestCLIPsdfOnTestdata(t *testing.T) {
	if testing.Short() {
		t.Skip("CLI build skipped in -short mode")
	}
	bin := buildPsdf(t)
	root := repoRoot(t)
	cases := []struct {
		file string
		args []string
		want []string
		fail bool
	}{
		{"mdcask.mpl", nil, []string{"exchange-with-root", "lint: ok"}, false},
		{"shift1d.mpl", nil, []string{"topology: shift", "[1..np - 3]"}, false},
		{"exchange.mpl", nil, []string{"always outputs 5"}, false},
		{"fanout.mpl", []string{"-stats"}, []string{"broadcast", "stats:"}, false},
		{"nascg_square.mpl", nil, []string{"permutation"}, false},
		{"nascg_rect.mpl", nil, []string{"permutation"}, false},
		{"leaky.mpl", nil, []string{"PSDF-E001"}, true},
		{"sendfirst_shift.mpl", []string{"-nonblocking"}, []string{"topology: shift"}, false},
		{"mdcask.mpl", []string{"-client", "symbolic"}, []string{"exchange-with-root"}, false},
		{"mdcask.mpl", []string{"-backend", "map"}, []string{"exchange-with-root"}, false},
		{"mdcask.mpl", []string{"-dot"}, []string{"digraph"}, false},
		{"mdcask.mpl", []string{"-cfg"}, []string{"digraph", "send x -> i"}, false},
	}
	for _, c := range cases {
		args := append(append([]string{}, c.args...), filepath.Join(root, "testdata", c.file))
		out, err := exec.Command(bin, args...).CombinedOutput()
		if c.fail && err == nil {
			t.Errorf("psdf %v: expected nonzero exit", args)
		}
		if !c.fail && err != nil {
			t.Errorf("psdf %v: %v\n%s", args, err, out)
			continue
		}
		for _, w := range c.want {
			if !strings.Contains(string(out), w) {
				t.Errorf("psdf %v: output missing %q:\n%s", args, w, out)
			}
		}
	}
	// Several programs: one report each, under an "== path ==" header.
	a, b := filepath.Join(root, "testdata", "exchange.mpl"), filepath.Join(root, "testdata", "shift1d.mpl")
	out, err := exec.Command(bin, "-parallel", "2", a, b).CombinedOutput()
	if err != nil {
		t.Fatalf("psdf two programs: %v\n%s", err, out)
	}
	if !strings.Contains(string(out), "== "+a+" ==\n") || !strings.Contains(string(out), "== "+b+" ==\n") ||
		strings.Count(string(out), "lint: ok") != 2 {
		t.Errorf("psdf two programs output:\n%s", out)
	}
	// Unknown -client and -backend are usage errors, checked before any
	// program is read.
	missing := filepath.Join(root, "testdata", "missing.mpl")
	for _, args := range [][]string{{"-client", "bogus", missing}, {"-backend", "bogus", missing}} {
		out, err := exec.Command(bin, args...).CombinedOutput()
		if code := exitCode(err); code != 2 {
			t.Errorf("psdf %v: exit %d, want 2\n%s", args, code, out)
		}
		if !strings.Contains(string(out), "bogus") {
			t.Errorf("psdf %v: output does not name the bad value:\n%s", args, out)
		}
	}
}

// testdataPrograms returns every .mpl program under testdata/.
func testdataPrograms(t *testing.T) []string {
	t.Helper()
	root := repoRoot(t)
	var paths []string
	for _, pat := range []string{"*.mpl", "*/*.mpl"} {
		ps, err := filepath.Glob(filepath.Join(root, "testdata", pat))
		if err != nil {
			t.Fatal(err)
		}
		paths = append(paths, ps...)
	}
	if len(paths) < 20 {
		t.Fatalf("only %d testdata programs found", len(paths))
	}
	return paths
}

// TestCLIPsdfExitFollowsLint checks the bare form's exit policy on every
// testdata program: the text report and the JSON document exit alike, and
// the exit is 1 exactly when the document holds an error-severity
// diagnostic (every program here analyzes without error).
func TestCLIPsdfExitFollowsLint(t *testing.T) {
	if testing.Short() {
		t.Skip("CLI build skipped in -short mode")
	}
	bin := buildPsdf(t)
	root := repoRoot(t)
	errors := 0
	for _, path := range testdataPrograms(t) {
		var flags []string
		if filepath.Base(path) == "sendfirst_shift.mpl" {
			flags = []string{"-nonblocking"}
		}
		out, err := exec.Command(bin, append(flags, path)...).CombinedOutput()
		got := exitCode(err)
		doc, err := exec.Command(bin, append(append(flags, "-format", "json"), path)...).Output()
		if code := exitCode(err); code != got {
			t.Errorf("%s: text exit %d, json exit %d\n%s", filepath.Base(path), got, code, out)
		}
		var parsed struct {
			Diagnostics []struct{ Severity string }
		}
		if err := json.Unmarshal(doc, &parsed); err != nil {
			t.Fatalf("%s: -format json output is not JSON: %v\n%s", filepath.Base(path), err, doc)
		}
		want := 0
		for _, d := range parsed.Diagnostics {
			if d.Severity == "error" {
				want = 1
			}
		}
		errors += want
		if got != want {
			t.Errorf("%s: exit %d, want %d for the document\n%s\n%s", filepath.Base(path), got, want, out, doc)
		}
	}
	if errors == 0 {
		t.Error("no testdata program has an error-severity diagnostic")
	}
	// The tag mismatch analyzes cleanly but is an error-severity finding.
	out, err := exec.Command(bin, filepath.Join(root, "testdata", "bugs", "tag_mismatch.mpl")).CombinedOutput()
	if code := exitCode(err); code != 1 || !strings.Contains(string(out), "PSDF-E003") {
		t.Errorf("psdf tag_mismatch.mpl: exit %d, want 1 with PSDF-E003:\n%s", code, out)
	}
}

// TestCLIPsdfDiagnosticsMatchLibrary pins the CLI to the library: for each
// testdata program, `psdf -format json|sarif` prints exactly what
// diag.WriteJSON and diag.WriteSARIF render from lint.Run over lint.Load.
func TestCLIPsdfDiagnosticsMatchLibrary(t *testing.T) {
	if testing.Short() {
		t.Skip("CLI build skipped in -short mode")
	}
	bin := buildPsdf(t)
	for _, path := range testdataPrograms(t) {
		src, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		tgt, err := lint.Load(path, string(src), core.Options{})
		if err != nil {
			t.Fatalf("%s: %v", path, err)
		}
		diags := lint.Run(tgt, lint.Options{}).Diags
		var wantJSON, wantSARIF bytes.Buffer
		if err := diag.WriteJSON(&wantJSON, diags); err != nil {
			t.Fatal(err)
		}
		if err := diag.WriteSARIF(&wantSARIF, "0.1.0", diags); err != nil {
			t.Fatal(err)
		}
		for _, c := range []struct {
			format string
			want   []byte
		}{{"json", wantJSON.Bytes()}, {"sarif", wantSARIF.Bytes()}} {
			got, _ := exec.Command(bin, "-format", c.format, path).Output()
			if !bytes.Equal(got, c.want) {
				t.Errorf("psdf -format %s %s:\n got %s\nwant %s", c.format, filepath.Base(path), got, c.want)
			}
		}
	}
}

// TestCLIPsdfUsageErrors checks the bare form's usage errors, which exit 2
// before any program is read, and what -stats adds to a report.
func TestCLIPsdfUsageErrors(t *testing.T) {
	if testing.Short() {
		t.Skip("CLI build skipped in -short mode")
	}
	bin := buildPsdf(t)
	root := repoRoot(t)
	missing := filepath.Join(root, "testdata", "missing.mpl")
	cases := []struct {
		args []string
		want []string
	}{
		// Outside text mode stdout holds only the document.
		{[]string{"-format", "json", "-stats", missing}, []string{"-stats"}},
		{[]string{"-format", "sarif", "-dot", missing}, []string{"-dot"}},
		{[]string{"-format", "json", "-cfg", missing}, []string{"-cfg"}},
		// The old subcommands name their replacements.
		{[]string{"lint", "-format", "sarif", missing}, []string{"psdf [-format text|json|sarif]"}},
		{[]string{"profile", missing}, []string{"psdf -profile-out r.json prog.mpl", "psdf -stats prog.mpl"}},
	}
	for _, c := range cases {
		out, err := exec.Command(bin, c.args...).CombinedOutput()
		if code := exitCode(err); code != 2 {
			t.Errorf("psdf %v: exit %d, want 2\n%s", c.args, code, out)
		}
		for _, w := range c.want {
			if !strings.Contains(string(out), w) {
				t.Errorf("psdf %v: output missing %q:\n%s", c.args, w, out)
			}
		}
	}
	// -stats explains a give-up: the finding with its blamed line and pCFG
	// path, the phase split, the rank-bounds counts and the hottest lines.
	out, err := exec.Command(bin, "-stats", filepath.Join(root, "testdata", "bugs", "unsupported_cond.mpl")).CombinedOutput()
	if code := exitCode(err); code != 1 {
		t.Errorf("psdf -stats unsupported_cond.mpl: exit %d, want 1\n%s", code, out)
	}
	for _, w := range []string{"PSDF-E005", "note: step: start", "phases:", "  bounds: total=", "hotspots (", "steps  "} {
		if !strings.Contains(string(out), w) {
			t.Errorf("psdf -stats unsupported_cond.mpl: output missing %q:\n%s", w, out)
		}
	}
}

// TestCLIPsdfRun runs programs on the concrete simulator (`psdf sim`).
func TestCLIPsdfRun(t *testing.T) {
	if testing.Short() {
		t.Skip("CLI build skipped in -short mode")
	}
	bin := buildPsdf(t)
	root := repoRoot(t)
	out, err := exec.Command(bin, "sim", "-np", "5", filepath.Join(root, "testdata", "mdcask.mpl")).CombinedOutput()
	if err != nil {
		t.Fatalf("psdf sim: %v\n%s", err, out)
	}
	if !strings.Contains(string(out), "messages=8") {
		t.Errorf("psdf sim output:\n%s", out)
	}
	// Transpose with env bindings.
	out, err = exec.Command(bin, "sim", "-np", "9", "-env", "nrows=3",
		filepath.Join(root, "testdata", "nascg_square.mpl")).CombinedOutput()
	if err != nil {
		t.Fatalf("psdf sim transpose: %v\n%s", err, out)
	}
	if !strings.Contains(string(out), "messages=9") {
		t.Errorf("psdf sim transpose output:\n%s", out)
	}
	// The leaky program reports the leak but exits zero (no deadlock).
	out, err = exec.Command(bin, "sim", "-np", "4", filepath.Join(root, "testdata", "leaky.mpl")).CombinedOutput()
	if err != nil {
		t.Fatalf("psdf sim leaky: %v\n%s", err, out)
	}
	if !strings.Contains(string(out), "LEAKED") {
		t.Errorf("psdf sim leaky output:\n%s", out)
	}
}

func TestCLIPsdfBenchSingleExperiment(t *testing.T) {
	if testing.Short() {
		t.Skip("CLI build skipped in -short mode")
	}
	bin := buildPsdf(t)
	dir := t.TempDir()
	cmd := exec.Command(bin, "bench", "run", "-exp", "table1")
	cmd.Dir = dir
	out, err := cmd.CombinedOutput()
	if err != nil {
		t.Fatalf("psdf bench run: %v\n%s", err, out)
	}
	for _, w := range []string{"Table I", "paper", "measured", "yes"} {
		if !strings.Contains(string(out), w) {
			t.Errorf("psdf bench run output missing %q:\n%s", w, out)
		}
	}
	// The tables are the whole output: the bench history is the only
	// record, and `psdf bench record` writes it.
	written, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range written {
		t.Errorf("psdf bench run wrote %s", e.Name())
	}
	// Unknown experiment id exits nonzero.
	if _, err := exec.Command(bin, "bench", "run", "-exp", "nope").CombinedOutput(); err == nil {
		t.Error("unknown experiment accepted")
	}
}

// TestCLITraceWorkflow drives the full observability loop: psdf -trace
// writes a Chrome trace and a metrics snapshot, and `psdf trace` summarizes
// and validates the trace.
func TestCLITraceWorkflow(t *testing.T) {
	if testing.Short() {
		t.Skip("CLI build skipped in -short mode")
	}
	psdfBin := buildPsdf(t)
	root := repoRoot(t)
	dir := t.TempDir()
	trace := filepath.Join(dir, "trace.json")
	jsonl := filepath.Join(dir, "trace.jsonl")
	metrics := filepath.Join(dir, "metrics.prom")

	out, err := exec.Command(psdfBin, "-stats",
		"-trace", trace, "-trace-jsonl", jsonl, "-metrics-out", metrics,
		filepath.Join(root, "testdata", "nascg_square.mpl"),
		filepath.Join(root, "testdata", "mdcask.mpl")).CombinedOutput()
	if err != nil {
		t.Fatalf("psdf -trace: %v\n%s", err, out)
	}
	for _, w := range []string{"phases:", "canon ", "match-memo:", "hit rate"} {
		if !strings.Contains(string(out), w) {
			t.Errorf("psdf output missing %q:\n%s", w, out)
		}
	}
	prom, err := os.ReadFile(metrics)
	if err != nil {
		t.Fatalf("metrics file: %v", err)
	}
	for _, w := range []string{"psdf_engine_steps_total", "psdf_match_memo_total"} {
		if !strings.Contains(string(prom), w) {
			t.Errorf("metrics snapshot missing %s", w)
		}
	}
	// Every series is labelled with the job id, so the same program given
	// twice yields one series per job.
	same := filepath.Join(root, "testdata", "nascg_square.mpl")
	out, err = exec.Command(psdfBin, "-metrics", same, same).CombinedOutput()
	if err != nil {
		t.Fatalf("psdf -metrics: %v\n%s", err, out)
	}
	for _, w := range []string{
		`psdf_engine_steps_total{job="1"}`, `psdf_engine_steps_total{job="2"}`,
		`psdf_match_memo_total{job="1",result="hit"}`, `psdf_match_memo_total{job="2",result="hit"}`,
	} {
		if !strings.Contains(string(out), w) {
			t.Errorf("psdf -metrics output missing %s:\n%s", w, out)
		}
	}

	// Summarize both formats.
	for _, path := range []string{trace, jsonl} {
		out, err := exec.Command(psdfBin, "trace", path).CombinedOutput()
		if err != nil {
			t.Fatalf("psdf trace %s: %v\n%s", path, err, out)
		}
		for _, w := range []string{"phase", "transfer", "hottest configurations"} {
			if !strings.Contains(string(out), w) {
				t.Errorf("psdf trace %s missing %q:\n%s", path, w, out)
			}
		}
	}
	// Validation passes on a well-formed trace.
	out, err = exec.Command(psdfBin, "trace", "-check", trace).CombinedOutput()
	if err != nil {
		t.Fatalf("psdf trace -check: %v\n%s", err, out)
	}
	if !strings.Contains(string(out), "ok (") {
		t.Errorf("psdf trace -check output:\n%s", out)
	}
	// A truncated trace fails validation.
	bad := filepath.Join(dir, "bad.jsonl")
	lines := strings.SplitN(string(mustRead(t, jsonl)), "\n", 3)
	if err := os.WriteFile(bad, []byte(lines[0]+"\n{\"broken\":\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := exec.Command(psdfBin, "trace", "-check", bad).CombinedOutput(); err == nil {
		t.Error("psdf trace -check accepted a corrupt trace")
	}
}

func mustRead(t *testing.T, path string) []byte {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// TestCLIPsdfLint exercises the bare form's lint output over the
// seeded-bug corpus and the clean programs: exit codes, format selection,
// and that every seeded bug is flagged with its expected code and a
// file:line:col span.
func TestCLIPsdfLint(t *testing.T) {
	if testing.Short() {
		t.Skip("CLI build skipped in -short mode")
	}
	bin := buildPsdf(t)
	root := repoRoot(t)
	bugs := []struct {
		file string
		code string
	}{
		{"offbyone_shift.mpl", "PSDF-E004"},
		{"tag_mismatch.mpl", "PSDF-E003"},
		{"leak_extra.mpl", "PSDF-E001"},
		{"unsupported_cond.mpl", "PSDF-E005"},
	}
	for _, c := range bugs {
		path := filepath.Join(root, "testdata", "bugs", c.file)
		out, err := exec.Command(bin, path).CombinedOutput()
		if err == nil {
			t.Errorf("psdf %s: expected nonzero exit\n%s", c.file, out)
		}
		if !strings.Contains(string(out), c.code) {
			t.Errorf("psdf %s: output missing %s:\n%s", c.file, c.code, out)
		}
		if !regexp.MustCompile(regexp.QuoteMeta(c.file) + `:\d+:\d+: `).Match(out) {
			t.Errorf("psdf %s: output missing file:line:col location:\n%s", c.file, out)
		}
	}
	// The dead-branch bug is warning-only: findings print but exit is zero.
	out, err := exec.Command(bin,
		filepath.Join(root, "testdata", "bugs", "dead_branch.mpl")).CombinedOutput()
	if err != nil {
		t.Errorf("psdf dead_branch.mpl: %v\n%s", err, out)
	}
	if !strings.Contains(string(out), "PSDF-W006") {
		t.Errorf("psdf dead_branch.mpl missing PSDF-W006:\n%s", out)
	}
	// Clean programs give an empty document and exit zero.
	out, err = exec.Command(bin, "-format", "json",
		filepath.Join(root, "testdata", "shift1d.mpl"),
		filepath.Join(root, "testdata", "exchange.mpl"),
		filepath.Join(root, "testdata", "nascg_square.mpl")).CombinedOutput()
	if err != nil {
		t.Errorf("psdf -format json clean: %v\n%s", err, out)
	}
	if string(out) != "{\n  \"diagnostics\": []\n}\n" {
		t.Errorf("psdf -format json clean: unexpected output:\n%s", out)
	}
	// SARIF output identifies the tool and the rule.
	out, _ = exec.Command(bin, "-format", "sarif",
		filepath.Join(root, "testdata", "bugs", "tag_mismatch.mpl")).CombinedOutput()
	for _, w := range []string{`"psdf-lint"`, `"2.1.0"`, "PSDF-E003"} {
		if !strings.Contains(string(out), w) {
			t.Errorf("psdf -format sarif missing %s:\n%s", w, out)
		}
	}
	// JSON output carries the rule name.
	out, _ = exec.Command(bin, "-format", "json",
		filepath.Join(root, "testdata", "bugs", "offbyone_shift.mpl")).CombinedOutput()
	if !strings.Contains(string(out), `"rank-out-of-bounds"`) {
		t.Errorf("psdf -format json missing rule name:\n%s", out)
	}
	// Unknown format is a usage error (exit 2).
	out, err = exec.Command(bin, "-format", "yaml",
		filepath.Join(root, "testdata", "shift1d.mpl")).CombinedOutput()
	if code := exitCode(err); code != 2 {
		t.Errorf("psdf -format yaml: exit %d, want 2\n%s", code, out)
	}
	// So is an unknown client, whatever the files are.
	out, err = exec.Command(bin, "-format", "json", "-client", "bogus",
		filepath.Join(root, "testdata", "missing.mpl")).CombinedOutput()
	if code := exitCode(err); code != 2 || !strings.Contains(string(out), `"bogus"`) {
		t.Errorf("psdf -client bogus: exit %d, want 2 naming the client:\n%s", code, out)
	}
}

// TestCLIPsdfRunFailOnFindings covers the nonzero exits on findings: the
// simulator's flag-gated one and the analysis's lint-driven one.
func TestCLIPsdfRunFailOnFindings(t *testing.T) {
	if testing.Short() {
		t.Skip("CLI build skipped in -short mode")
	}
	bin := buildPsdf(t)
	root := repoRoot(t)
	leaky := filepath.Join(root, "testdata", "leaky.mpl")
	// Without the flag the leaky simulation exits zero...
	if out, err := exec.Command(bin, "sim", "-np", "4", leaky).CombinedOutput(); err != nil {
		t.Fatalf("psdf sim leaky: %v\n%s", err, out)
	}
	// ...with it, the leak is fatal.
	if _, err := exec.Command(bin, "sim", "-np", "4", "-fail-on-findings", leaky).CombinedOutput(); err == nil {
		t.Error("psdf sim -fail-on-findings ignored a leak")
	}
	// Analysis: clean program passes, leak fails.
	if out, err := exec.Command(bin, filepath.Join(root, "testdata", "mdcask.mpl")).CombinedOutput(); err != nil {
		t.Errorf("psdf clean: %v\n%s", err, out)
	}
	out, err := exec.Command(bin, filepath.Join(root, "testdata", "bugs", "leak_extra.mpl")).CombinedOutput()
	if err == nil {
		t.Error("psdf ignored a leak")
	}
	if !strings.Contains(string(out), "PSDF-E001") {
		t.Errorf("psdf findings not printed:\n%s", out)
	}
}

// TestCLIProfileFlow captures a source-attribution profile over two
// programs, validates it, and renders it as a listing and as folded stacks.
func TestCLIProfileFlow(t *testing.T) {
	if testing.Short() {
		t.Skip("CLI build skipped in -short mode")
	}
	bin := buildPsdf(t)
	root := repoRoot(t)
	report := filepath.Join(t.TempDir(), "p.json")
	out, err := exec.Command(bin, "-profile-out", report,
		filepath.Join(root, "testdata", "mdcask.mpl"),
		filepath.Join(root, "testdata", "nascg_square.mpl")).CombinedOutput()
	if err != nil {
		t.Fatalf("psdf -profile-out: %v\n%s", err, out)
	}
	if !strings.Contains(string(out), "profile: 2 report(s)") {
		t.Errorf("psdf -profile-out output:\n%s", out)
	}
	out, err = exec.Command(bin, "profile", "-check", report).CombinedOutput()
	if err != nil || !strings.Contains(string(out), "2 report(s) valid") {
		t.Errorf("psdf profile -check: %v\n%s", err, out)
	}
	for _, args := range [][]string{{"profile", report}, {"profile", "-format", "folded", report}} {
		out, err := exec.Command(bin, args...).Output()
		if err != nil {
			t.Errorf("psdf %v: %v", args, err)
		}
		if len(strings.TrimSpace(string(out))) == 0 {
			t.Errorf("psdf %v: empty render", args)
		}
	}
}
