package integration_test

import (
	"encoding/json"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

// runWithTimeout executes the command and fails the test if it neither
// exits nor errors within the deadline — the malformed-input contract is
// "error cleanly", never spin or hang.
func runWithTimeout(t *testing.T, d time.Duration, bin string, args ...string) (string, error) {
	t.Helper()
	cmd := exec.Command(bin, args...)
	type result struct {
		out []byte
		err error
	}
	ch := make(chan result, 1)
	go func() {
		out, err := cmd.CombinedOutput()
		ch <- result{out, err}
	}()
	select {
	case r := <-ch:
		return string(r.out), r.err
	case <-time.After(d):
		_ = cmd.Process.Kill()
		t.Fatalf("%s %v: did not terminate within %v", filepath.Base(bin), args, d)
		return "", nil
	}
}

// TestTraceCheckMalformedInput feeds psdf trace -check inputs a crashed or
// interrupted writer could leave behind. Every case must exit nonzero with
// a diagnostic — no panic, no hang, no zero exit.
func TestTraceCheckMalformedInput(t *testing.T) {
	if testing.Short() {
		t.Skip("CLI build skipped in -short mode")
	}
	bin := buildPsdf(t)
	dir := t.TempDir()
	cases := []struct {
		name string
		data []byte
	}{
		{"empty.json", nil},
		{"truncated.json", []byte(`{"traceEvents":[{"name":"analyze","ph":"B","ts":1`)},
		{"garbage.json", []byte{0x00, 0xff, 0x13, 0x37, 0x00, 0xfe, 'n', 'o', 't', ' ', 'j', 's', 'o', 'n'}},
		{"wrong_shape.json", []byte(`{"traceEvents": 42}`)},
		{"jsonl_truncated.json", []byte("{\"name\":\"a\",\"ph\":\"B\",\"ts\":1}\n{\"name\":\"a\",\"ph\":")},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			path := filepath.Join(dir, c.name)
			if err := os.WriteFile(path, c.data, 0o644); err != nil {
				t.Fatal(err)
			}
			out, err := runWithTimeout(t, 10*time.Second, bin, "trace", "-check", path)
			if err == nil {
				t.Errorf("trace -check %s: expected nonzero exit\n%s", c.name, out)
			}
			if strings.Contains(out, "panic:") || strings.Contains(out, "goroutine ") {
				t.Errorf("trace -check %s: panicked:\n%s", c.name, out)
			}
			if strings.TrimSpace(out) == "" {
				t.Errorf("trace -check %s: exited with no diagnostic", c.name)
			}
		})
	}
	// A missing file must also produce a clean diagnostic.
	out, err := runWithTimeout(t, 10*time.Second, bin, "trace", "-check", filepath.Join(dir, "nope.json"))
	if err == nil || strings.Contains(out, "panic:") {
		t.Errorf("trace -check on missing file: err=%v\n%s", err, out)
	}
}

// TestBenchHistoryCLI exercises the record -> diff -> check workflow end to
// end through the psdf binary: two identical records must diff as "no
// change" with identical fingerprints and pass the gate.
func TestBenchHistoryCLI(t *testing.T) {
	if testing.Short() {
		t.Skip("CLI build skipped in -short mode")
	}
	bin := buildPsdf(t)
	hist := filepath.Join(t.TempDir(), "hist.jsonl")

	// Two records at two "commits". -exp keeps the suite small and fast;
	// fingerprints are always captured for all workloads.
	for i, sha := range []string{"aaaaaaaaaaaaaaaaaaaa", "bbbbbbbbbbbbbbbbbbbb"} {
		out, err := runWithTimeout(t, 120*time.Second, bin, "bench", "record",
			"-history", hist, "-sample", "4", "-exp", "fig2,table1", "-commit", sha)
		if err != nil {
			t.Fatalf("record %d: %v\n%s", i, err, out)
		}
		if !strings.Contains(out, "recorded") || !strings.Contains(out, "2 specs x 4 samples") {
			t.Fatalf("record %d: unexpected output:\n%s", i, out)
		}
	}

	out, err := runWithTimeout(t, 30*time.Second, bin, "bench", "diff", "-history", hist)
	if err != nil {
		t.Fatalf("diff: %v\n%s", err, out)
	}
	for _, want := range []string{"aaaaaaaaaaaa", "bbbbbbbbbbbb", "fig2", "table1", "verdict",
		"precision fingerprints: identical"} {
		if !strings.Contains(out, want) {
			t.Errorf("diff output missing %q:\n%s", want, out)
		}
	}

	// Markdown rendering.
	out, err = runWithTimeout(t, 30*time.Second, bin, "bench", "diff", "-history", hist, "-markdown")
	if err != nil {
		t.Fatalf("diff -markdown: %v\n%s", err, out)
	}
	if !strings.Contains(out, "| spec |") {
		t.Errorf("markdown diff missing table header:\n%s", out)
	}

	// Same code at both commits: the gate must pass.
	out, err = runWithTimeout(t, 30*time.Second, bin, "bench", "check", "-history", hist)
	if err != nil {
		t.Fatalf("check: expected exit 0: %v\n%s", err, out)
	}
	if !strings.Contains(out, "bench check: ok") {
		t.Errorf("check output missing ok line:\n%s", out)
	}

	// Trajectory report over the whole history.
	out, err = runWithTimeout(t, 30*time.Second, bin, "bench", "report", "-history", hist)
	if err != nil {
		t.Fatalf("report: %v\n%s", err, out)
	}
	if !strings.Contains(out, "2 entries") || !strings.Contains(out, "No precision-fingerprint changes") {
		t.Errorf("report output unexpected:\n%s", out)
	}
}

// TestBenchHistoryCLIMalformed verifies the reader's contract through the
// CLI: truncated, empty, corrupt and future-versioned history files produce
// clean nonzero exits, never panics or hangs.
func TestBenchHistoryCLIMalformed(t *testing.T) {
	if testing.Short() {
		t.Skip("CLI build skipped in -short mode")
	}
	bin := buildPsdf(t)
	dir := t.TempDir()

	valid, err := json.Marshal(map[string]any{
		"schema_version": 1,
		"commit":         "cafebabe",
		"time":           "2026-01-01T00:00:00Z",
		"host":           map[string]any{"os": "linux", "arch": "amd64", "cpus": 1, "go": "go1.24"},
		"samples":        1,
		"specs":          map[string]any{},
		"fingerprints":   map[string]any{},
	})
	if err != nil {
		t.Fatal(err)
	}

	cases := []struct {
		name string
		data []byte
		want string
	}{
		{"empty.jsonl", nil, "empty"},
		{"truncated.jsonl", append(append([]byte{}, valid...), []byte("\n{\"schema_version\":1,\"commit\":\"dead")...), "malformed"},
		{"garbage.jsonl", []byte("\x00\xff\x13\x37 not json\n"), "malformed"},
		{"future.jsonl", []byte(`{"schema_version":9999,"commit":"cafebabe"}` + "\n"), "schema_version"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			path := filepath.Join(dir, c.name)
			if err := os.WriteFile(path, c.data, 0o644); err != nil {
				t.Fatal(err)
			}
			for _, sub := range [][]string{
				{"bench", "diff", "-history", path},
				{"bench", "check", "-history", path},
				{"bench", "report", "-history", path},
			} {
				out, err := runWithTimeout(t, 10*time.Second, bin, sub...)
				if err == nil {
					t.Errorf("%v: expected nonzero exit\n%s", sub, out)
				}
				if strings.Contains(out, "panic:") {
					t.Errorf("%v: panicked:\n%s", sub, out)
				}
				if !strings.Contains(out, c.want) {
					t.Errorf("%v: diagnostic missing %q:\n%s", sub, c.want, out)
				}
			}
		})
	}

	// One valid entry: diff needs two and must say so.
	single := filepath.Join(dir, "single.jsonl")
	if err := os.WriteFile(single, append(append([]byte{}, valid...), '\n'), 0o644); err != nil {
		t.Fatal(err)
	}
	out, err := runWithTimeout(t, 10*time.Second, bin, "bench", "diff", "-history", single)
	if err == nil {
		t.Errorf("diff on single-entry history: expected nonzero exit\n%s", out)
	}
	if !strings.Contains(out, "need two") {
		t.Errorf("diff on single-entry history: diagnostic missing:\n%s", out)
	}
}
