package obs

import (
	"bytes"
	"strings"
	"testing"
	"time"
)

func goldenEvents() []Event {
	ms := time.Millisecond
	return []Event{
		mkEvent(PhaseAnalyze, 1, 0, 0, 10*ms, "shift1d"),
		{Phase: PhaseStep, Pid: 1, Tid: 0, Start: 1 * ms, Dur: 3 * ms, Key: "cfg|a", Node: 5, N: 2},
		{Phase: PhaseMatch, Pid: 1, Tid: 0, Start: 2 * ms, Dur: 1 * ms, Key: "cfg|a", Detail: "matched", Node: 0, N: 1},
		mkEvent(PhaseProver, 1, ProverTid, 2*ms, 500*time.Microsecond, "cfg|a"),
	}
}

const chromeGolden = `[
{"name":"process_name","ph":"M","ts":0,"pid":1,"tid":0,"args":{"name":"shift1d"}}
,{"name":"thread_name","ph":"M","ts":0,"pid":1,"tid":0,"args":{"name":"worker 0"}}
,{"name":"thread_name","ph":"M","ts":0,"pid":1,"tid":1000,"args":{"name":"prover"}}
,{"name":"analyze","cat":"psdf","ph":"X","ts":0,"dur":10000,"pid":1,"tid":0,"args":{"key":"shift1d"}}
,{"name":"step","cat":"psdf","ph":"X","ts":1000,"dur":3000,"pid":1,"tid":0,"args":{"key":"cfg|a","n":2,"node":5}}
,{"name":"match","cat":"psdf","ph":"X","ts":2000,"dur":1000,"pid":1,"tid":0,"args":{"detail":"matched","key":"cfg|a","n":1,"node":0}}
,{"name":"prover","cat":"psdf","ph":"X","ts":2000,"dur":500,"pid":1,"tid":1000,"args":{"key":"cfg|a"}}
]
`

const jsonlGolden = `{"phase":"analyze","pid":1,"tid":0,"start_ns":0,"dur_ns":10000000,"key":"shift1d"}
{"phase":"step","pid":1,"tid":0,"start_ns":1000000,"dur_ns":3000000,"key":"cfg|a","node":5,"n":2}
{"phase":"match","pid":1,"tid":0,"start_ns":2000000,"dur_ns":1000000,"key":"cfg|a","detail":"matched","node":0,"n":1}
{"phase":"prover","pid":1,"tid":1000,"start_ns":2000000,"dur_ns":500000,"key":"cfg|a"}
`

func TestChromeTraceGolden(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteChromeTrace(&buf, goldenEvents(), map[int]string{1: "shift1d"}); err != nil {
		t.Fatal(err)
	}
	got := normalizeChromeLines(buf.String())
	want := normalizeChromeLines(chromeGolden)
	if got != want {
		t.Errorf("chrome trace mismatch:\n--- got ---\n%s\n--- want ---\n%s", got, want)
	}
	// Round-trip: parsing recovers the span events (µs precision).
	evs, err := ReadChromeTrace(strings.NewReader(buf.String()))
	if err != nil {
		t.Fatal(err)
	}
	if len(evs) != 4 {
		t.Fatalf("round-trip events = %d, want 4", len(evs))
	}
	if evs[2].Detail != "matched" || evs[2].Phase != PhaseMatch || evs[2].Node != 0 || evs[2].N != 1 {
		t.Errorf("round-trip event = %+v", evs[2])
	}
	if evs[1].Node != 5 || evs[1].N != 2 {
		t.Errorf("round-trip step event = %+v", evs[1])
	}
	if evs[3].Tid != ProverTid || evs[3].Dur != 500*time.Microsecond {
		t.Errorf("round-trip prover event = %+v", evs[3])
	}
}

// normalizeChromeLines strips the leading comma continuation style so the
// comparison is insensitive to where the separator sits.
func normalizeChromeLines(s string) string {
	lines := strings.Split(s, "\n")
	for i, l := range lines {
		lines[i] = strings.TrimSuffix(strings.TrimPrefix(l, ","), ",")
	}
	return strings.Join(lines, "\n")
}

func TestJSONLGolden(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteJSONL(&buf, goldenEvents()); err != nil {
		t.Fatal(err)
	}
	if buf.String() != jsonlGolden {
		t.Errorf("jsonl mismatch:\n--- got ---\n%s\n--- want ---\n%s", buf.String(), jsonlGolden)
	}
	evs, err := ReadJSONL(strings.NewReader(buf.String()))
	if err != nil {
		t.Fatal(err)
	}
	if len(evs) != 4 {
		t.Fatalf("round-trip events = %d", len(evs))
	}
	// JSONL keeps nanosecond precision exactly.
	want := goldenEvents()
	SortEvents(want)
	for i := range evs {
		if evs[i] != want[i] {
			t.Errorf("event %d: got %+v want %+v", i, evs[i], want[i])
		}
	}
}

func TestReadJSONLRejectsUnknownPhase(t *testing.T) {
	_, err := ReadJSONL(strings.NewReader(`{"phase":"warp","pid":0,"tid":0,"start_ns":0,"dur_ns":1}`))
	if err == nil || !strings.Contains(err.Error(), "unknown phase") {
		t.Errorf("err = %v", err)
	}
}

// TestPrometheusGolden pins the /metrics rendering of a progress snapshot:
// a finished job with cg counters, and a live job whose final-only
// families are left out.
func TestPrometheusGolden(t *testing.T) {
	tr := NewProgressTracker()
	tr.Register(2, func() Progress {
		return Progress{Job: 2, Steps: 6, Configs: 3, Widenings: 1, Pending: 2, Queued: 1,
			MemoHits: 1, MemoMisses: 2, MemoEntries: 2}
	})
	tr.Finish(1, Progress{Job: 1, Steps: 12, Configs: 5, Widenings: 2,
		MemoHits: 9, MemoMisses: 3, MemoEntries: 3,
		Finals: 1, Matches: 4, QueuedMax: 3, PendingMax: 4,
		CG: map[string]int64{"joins": 7, "closure_ns": 1500}})

	const want = `# HELP psdf_cg_closure_ns_total cg.Stats counter closure_ns
# TYPE psdf_cg_closure_ns_total counter
psdf_cg_closure_ns_total{job="1"} 1500
# HELP psdf_cg_joins_total cg.Stats counter joins
# TYPE psdf_cg_joins_total counter
psdf_cg_joins_total{job="1"} 7
# HELP psdf_engine_configs distinct pCFG configurations explored
# TYPE psdf_engine_configs gauge
psdf_engine_configs{job="1"} 5
psdf_engine_configs{job="2"} 3
# HELP psdf_engine_finals terminal all-at-exit configurations
# TYPE psdf_engine_finals gauge
psdf_engine_finals{job="1"} 1
# HELP psdf_engine_matches distinct send-receive matches in the topology
# TYPE psdf_engine_matches gauge
psdf_engine_matches{job="1"} 4
# HELP psdf_engine_steps_total propagate steps executed
# TYPE psdf_engine_steps_total counter
psdf_engine_steps_total{job="1"} 12
psdf_engine_steps_total{job="2"} 6
# HELP psdf_engine_tops give-up configurations in the result
# TYPE psdf_engine_tops gauge
psdf_engine_tops{job="1"} 0
# HELP psdf_engine_widenings_total widening events (table entry replaced by a wider state)
# TYPE psdf_engine_widenings_total counter
psdf_engine_widenings_total{job="1"} 2
psdf_engine_widenings_total{job="2"} 1
# HELP psdf_match_memo_entries match memo resident entries
# TYPE psdf_match_memo_entries gauge
psdf_match_memo_entries{job="1"} 3
psdf_match_memo_entries{job="2"} 2
# HELP psdf_match_memo_total match memo lookups
# TYPE psdf_match_memo_total counter
psdf_match_memo_total{job="1",result="hit"} 9
psdf_match_memo_total{job="1",result="miss"} 3
psdf_match_memo_total{job="2",result="hit"} 1
psdf_match_memo_total{job="2",result="miss"} 2
# HELP psdf_sched_pending configurations queued or running
# TYPE psdf_sched_pending gauge
psdf_sched_pending{job="1"} 0
psdf_sched_pending{job="2"} 2
# HELP psdf_sched_pending_max worklist pending (queued or running) high-water mark
# TYPE psdf_sched_pending_max gauge
psdf_sched_pending_max{job="1"} 4
# HELP psdf_sched_queue_depth configurations currently queued
# TYPE psdf_sched_queue_depth gauge
psdf_sched_queue_depth{job="1"} 0
psdf_sched_queue_depth{job="2"} 1
# HELP psdf_sched_queue_depth_max worklist queue depth high-water mark
# TYPE psdf_sched_queue_depth_max gauge
psdf_sched_queue_depth_max{job="1"} 3
`
	var sb strings.Builder
	if err := tr.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	if sb.String() != want {
		t.Errorf("prometheus mismatch:\n--- got ---\n%s\n--- want ---\n%s", sb.String(), want)
	}
	// Rendering is deterministic, and a nil tracker renders nothing.
	var sb2 strings.Builder
	_ = tr.WritePrometheus(&sb2)
	if sb.String() != sb2.String() {
		t.Error("render not deterministic")
	}
	var none strings.Builder
	if err := (*ProgressTracker)(nil).WritePrometheus(&none); err != nil || none.Len() != 0 {
		t.Errorf("nil tracker rendered %q, %v", none.String(), err)
	}
}
