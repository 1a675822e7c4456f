package benchhist

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

func testEntry(commit string, wall ...int64) *Entry {
	if len(wall) == 0 {
		wall = []int64{1000, 1100, 1050}
	}
	return &Entry{
		SchemaVersion: SchemaVersion,
		Commit:        commit,
		Time:          time.Date(2026, 8, 5, 12, 0, 0, 0, time.UTC),
		Host:          Host{OS: "linux", Arch: "amd64", CPUs: 8, GoVersion: "go1.22"},
		Samples:       len(wall),
		Specs: map[string]*SpecTiming{
			"fig2": NewSpecTiming("Fig 2", wall, nil),
		},
		Fingerprints: map[string]*Fingerprint{
			"fig2_exchange": {Matches: 2, Finals: 1, Configs: 10, Topology: "[0]->[1], [1]->[0]"},
		},
	}
}

// TestFuzzSweepRoundTrip: the fuzz summary survives the history and stays
// schema-version-1-compatible — entries without one read back as nil
// ("not captured"), and PrecisionRate excludes skipped programs.
func TestFuzzSweepRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "hist.jsonl")
	plain := testEntry("aaaa1111")
	withFuzz := testEntry("bbbb2222")
	withFuzz.Fuzz = &FuzzSweep{
		Seed: 1, Programs: 2000, OK: 1160, Skipped: 100,
		Precision: 740, Errors: 0, Soundness: 0,
	}
	if err := Append(path, plain); err != nil {
		t.Fatal(err)
	}
	if err := Append(path, withFuzz); err != nil {
		t.Fatal(err)
	}
	entries, err := Read(path)
	if err != nil {
		t.Fatal(err)
	}
	if entries[0].Fuzz != nil {
		t.Errorf("entry without a sweep read back Fuzz = %+v, want nil", entries[0].Fuzz)
	}
	fz := entries[1].Fuzz
	if fz == nil || fz.Programs != 2000 || fz.Precision != 740 || fz.Skipped != 100 {
		t.Fatalf("fuzz summary did not round-trip: %+v", fz)
	}
	// 740 precision losses over 1900 triaged programs.
	if got, want := fz.PrecisionRate(), 740.0/1900.0; got != want {
		t.Errorf("PrecisionRate = %v, want %v", got, want)
	}
	if (&FuzzSweep{}).PrecisionRate() != 0 {
		t.Error("empty sweep must have zero precision rate")
	}
}

func TestAppendReadRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "hist.jsonl")
	if err := Append(path, testEntry("aaaa1111")); err != nil {
		t.Fatal(err)
	}
	if err := Append(path, testEntry("bbbb2222")); err != nil {
		t.Fatal(err)
	}
	entries, err := Read(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 2 {
		t.Fatalf("got %d entries, want 2", len(entries))
	}
	if entries[0].Commit != "aaaa1111" || entries[1].Commit != "bbbb2222" {
		t.Errorf("commit order wrong: %s, %s", entries[0].Commit, entries[1].Commit)
	}
	st := entries[0].Specs["fig2"]
	if st == nil || st.MedianNs != 1050 || st.MinNs != 1000 || st.MaxNs != 1100 {
		t.Errorf("spec timing did not round-trip: %+v", st)
	}
	fp := entries[1].Fingerprints["fig2_exchange"]
	if fp == nil || fp.Matches != 2 || fp.Topology != "[0]->[1], [1]->[0]" {
		t.Errorf("fingerprint did not round-trip: %+v", fp)
	}
	// No stray temp files left behind.
	dents, err := os.ReadDir(filepath.Dir(path))
	if err != nil {
		t.Fatal(err)
	}
	if len(dents) != 1 {
		t.Errorf("directory not clean after atomic writes: %d entries", len(dents))
	}
}

func TestAppendPreservesForeignBytes(t *testing.T) {
	// Append must not re-encode or drop existing lines it cannot parse —
	// the history is append-only even across schema evolution.
	path := filepath.Join(t.TempDir(), "hist.jsonl")
	foreign := `{"schema_version":99,"commit":"old","future_field":true}` + "\n"
	if err := os.WriteFile(path, []byte(foreign), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := Append(path, testEntry("cccc3333")); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(string(data), foreign) {
		t.Errorf("existing bytes were rewritten:\n%s", data)
	}
}

func TestAppendRepairsMissingTrailingNewline(t *testing.T) {
	path := filepath.Join(t.TempDir(), "hist.jsonl")
	if err := os.WriteFile(path, []byte(`{"schema_version":1}`), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := Append(path, testEntry("dddd4444")); err != nil {
		t.Fatal(err)
	}
	data, _ := os.ReadFile(path)
	lines := strings.Split(strings.TrimRight(string(data), "\n"), "\n")
	if len(lines) != 2 {
		t.Fatalf("got %d lines, want 2:\n%s", len(lines), data)
	}
}

func TestReadMalformedInputs(t *testing.T) {
	dir := t.TempDir()
	write := func(name, content string) string {
		p := filepath.Join(dir, name)
		if err := os.WriteFile(p, []byte(content), 0o644); err != nil {
			t.Fatal(err)
		}
		return p
	}
	good, err := json.Marshal(testEntry("eeee5555"))
	if err != nil {
		t.Fatal(err)
	}

	cases := []struct {
		name, content, wantErr string
	}{
		{"empty.jsonl", "", "empty"},
		{"blank.jsonl", "\n\n  \n", "empty"},
		{"garbage.jsonl", "not json at all\n", "malformed"},
		{"truncated.jsonl", string(good) + "\n" + string(good[:len(good)/2]), "malformed"},
		{"unknown-version.jsonl", `{"schema_version":999,"commit":"x"}` + "\n", "unsupported schema_version 999"},
		{"missing-version.jsonl", `{"commit":"x"}` + "\n", "unsupported schema_version 0"},
		{"binary.jsonl", "\x00\x01\x02\xff\xfe\n", "malformed"},
	}
	for _, c := range cases {
		done := make(chan struct{})
		var entries []*Entry
		var rerr error
		go func() {
			defer close(done)
			entries, rerr = Read(write(c.name, c.content))
		}()
		select {
		case <-done:
		case <-time.After(10 * time.Second):
			t.Fatalf("%s: Read did not terminate", c.name)
		}
		if rerr == nil {
			t.Errorf("%s: Read succeeded (%d entries), want error containing %q", c.name, len(entries), c.wantErr)
			continue
		}
		if !strings.Contains(rerr.Error(), c.wantErr) {
			t.Errorf("%s: error %q does not mention %q", c.name, rerr, c.wantErr)
		}
	}

	if _, err := Read(filepath.Join(dir, "does-not-exist.jsonl")); err == nil {
		t.Error("Read of missing file succeeded")
	}
}

func TestSelect(t *testing.T) {
	entries := []*Entry{testEntry("aaaa1111"), testEntry("bbbb2222"), testEntry("abab3333")}
	cases := []struct {
		sel     string
		wantIdx int
		wantErr bool
	}{
		{"", 2, false},
		{"latest", 2, false},
		{"baseline", 0, false},
		{"0", 0, false},
		{"1", 1, false},
		{"-1", 2, false},
		{"-3", 0, false},
		{"3", 0, true},
		{"-4", 0, true},
		{"bbbb", 1, false},
		{"a", 2, false}, // prefix: latest match wins (abab3333)
		{"zzzz", 0, true},
	}
	for _, c := range cases {
		e, idx, err := Select(entries, c.sel)
		if c.wantErr {
			if err == nil {
				t.Errorf("Select(%q): want error, got entry #%d", c.sel, idx)
			}
			continue
		}
		if err != nil {
			t.Errorf("Select(%q): %v", c.sel, err)
			continue
		}
		if idx != c.wantIdx || e != entries[c.wantIdx] {
			t.Errorf("Select(%q) = #%d, want #%d", c.sel, idx, c.wantIdx)
		}
	}
	if _, _, err := Select(nil, "latest"); err == nil {
		t.Error("Select on empty history succeeded")
	}
}

func TestWriteFileAtomicReplacesWholeFile(t *testing.T) {
	path := filepath.Join(t.TempDir(), "out.json")
	if err := WriteFileAtomic(path, []byte("first version with a long tail"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := WriteFileAtomic(path, []byte("short"), 0o644); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if string(data) != "short" {
		t.Errorf("content = %q, want %q", data, "short")
	}
}

func TestNewSpecTimingStats(t *testing.T) {
	st := NewSpecTiming("t", []int64{40, 10, 30, 20}, nil)
	if st.MinNs != 10 || st.MaxNs != 40 || st.MedianNs != 25 || st.MeanNs != 25 {
		t.Errorf("stats wrong: %+v", st)
	}
	if st.StddevNs == 0 {
		t.Error("stddev should be nonzero")
	}
	if got := NewSpecTiming("t", []int64{7}, nil); got.MedianNs != 7 || got.StddevNs != 0 {
		t.Errorf("single sample stats wrong: %+v", got)
	}
	if got := NewSpecTiming("t", nil, nil); got.MedianNs != 0 {
		t.Errorf("empty sample stats wrong: %+v", got)
	}
}
