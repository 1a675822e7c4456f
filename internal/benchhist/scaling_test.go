package benchhist

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
)

// oldScalingLine is a history line as records before the worker-scaling
// capture was dropped wrote it: it carries a "scaling" block.
const oldScalingLine = `{"schema_version":1,"commit":"a0361b5fe658cf70d2958be6752393c5229b8063",` +
	`"time":"2026-10-17T00:54:25Z","samples":5,"specs":{},"fingerprints":{},` +
	`"scaling":{"fig7_shift":{"ns_per_op":{"1":344480,"8":296952},"speedup":{"8":1.16}}},` +
	`"fuzz":{"seed":1,"programs":2000,"ok":1322,"precision":672,"errors":0,"engine":6,"soundness":0}}` + "\n"

// readOldLine reads oldScalingLine back through Read.
func readOldLine(t *testing.T) *Entry {
	t.Helper()
	path := filepath.Join(t.TempDir(), "BENCH_HISTORY.jsonl")
	if err := os.WriteFile(path, []byte(oldScalingLine), 0o644); err != nil {
		t.Fatal(err)
	}
	entries, err := Read(path)
	if err != nil {
		t.Fatalf("read: %v", err)
	}
	if len(entries) != 1 {
		t.Fatalf("entries = %d, want 1", len(entries))
	}
	return entries[0]
}

// TestWorkerScalingRoundTrip: a history line with a worker-scaling block
// (and a fuzz summary with an engine count) still reads; the block is
// ignored, and the rest of the entry survives.
func TestWorkerScalingRoundTrip(t *testing.T) {
	e := readOldLine(t)
	if e.ShortCommit() != "a0361b5fe658" || e.Samples != 5 {
		t.Fatalf("entry = %+v", e)
	}
	if e.Fuzz == nil || e.Fuzz.Programs != 2000 || e.Fuzz.Precision != 672 {
		t.Fatalf("fuzz summary = %+v", e.Fuzz)
	}
}

// TestWorkerScalingOmittedWhenAbsent: re-writing an old entry drops the
// worker-scaling block and the engine count.
func TestWorkerScalingOmittedWhenAbsent(t *testing.T) {
	data, err := json.Marshal(readOldLine(t))
	if err != nil {
		t.Fatalf("marshal: %v", err)
	}
	if jsonHasKey(data, "scaling") {
		t.Fatalf("scaling serialized: %s", data)
	}
	if bytes.Contains(data, []byte(`"engine"`)) {
		t.Fatalf("engine count serialized: %s", data)
	}
}

func jsonHasKey(data []byte, key string) bool {
	var m map[string]json.RawMessage
	if err := json.Unmarshal(data, &m); err != nil {
		return false
	}
	_, ok := m[key]
	return ok
}
