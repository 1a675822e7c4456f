package obs

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"time"
)

// SortEvents orders events by (Pid, Tid, Start), longer spans first on
// equal starts so enclosing spans precede the spans they contain. This is
// the canonical order for export and summarization.
func SortEvents(evs []Event) {
	sort.Slice(evs, func(i, j int) bool {
		a, b := &evs[i], &evs[j]
		if a.Pid != b.Pid {
			return a.Pid < b.Pid
		}
		if a.Tid != b.Tid {
			return a.Tid < b.Tid
		}
		if a.Start != b.Start {
			return a.Start < b.Start
		}
		if a.Dur != b.Dur {
			return a.Dur > b.Dur
		}
		return a.Phase < b.Phase
	})
}

// chromeEvent is one entry in the Chrome trace-event JSON array
// (https://docs.google.com/document/d/1CvAClvFfyA5R-PhYUmn5OOQtYMH4h6I0nSsKchNAySU):
// complete events ("ph":"X") carry microsecond ts/dur; metadata events
// ("ph":"M") name the lanes. Perfetto loads this format directly.
type chromeEvent struct {
	Name string         `json:"name"`
	Cat  string         `json:"cat,omitempty"`
	Ph   string         `json:"ph"`
	Ts   float64        `json:"ts"`
	Dur  float64        `json:"dur,omitempty"`
	Pid  int            `json:"pid"`
	Tid  int            `json:"tid"`
	Args map[string]any `json:"args,omitempty"`
}

// WriteChromeTrace renders events as a Chrome trace-event JSON array.
// laneNames optionally maps a pid to a process name (e.g. the analysis job
// name) emitted as process_name metadata; thread lanes are named after
// their role (worker N / prover).
func WriteChromeTrace(w io.Writer, evs []Event, laneNames map[int]string) error {
	evs = append([]Event(nil), evs...)
	SortEvents(evs)

	type lane struct{ pid, tid int }
	seenPid := map[int]bool{}
	seenLane := map[lane]bool{}
	var out []chromeEvent
	for i := range evs {
		ev := &evs[i]
		seenPid[ev.Pid] = true
		seenLane[lane{ev.Pid, ev.Tid}] = true
		args := map[string]any{}
		if ev.Key != "" {
			args["key"] = ev.Key
		}
		if ev.Detail != "" {
			args["detail"] = ev.Detail
		}
		if ev.Phase.Attributed() {
			args["node"] = ev.Node
		}
		if ev.N != 0 {
			args["n"] = ev.N
		}
		if len(args) == 0 {
			args = nil
		}
		out = append(out, chromeEvent{
			Name: ev.Phase.String(),
			Cat:  "psdf",
			Ph:   "X",
			Ts:   float64(ev.Start) / float64(time.Microsecond),
			Dur:  float64(ev.Dur) / float64(time.Microsecond),
			Pid:  ev.Pid,
			Tid:  ev.Tid,
			Args: args,
		})
	}

	// Metadata events: deterministic order (sorted pids, then lanes).
	var meta []chromeEvent
	pids := make([]int, 0, len(seenPid))
	for p := range seenPid {
		pids = append(pids, p)
	}
	sort.Ints(pids)
	for _, p := range pids {
		name := laneNames[p]
		if name == "" {
			name = fmt.Sprintf("job %d", p)
		}
		meta = append(meta, chromeEvent{
			Name: "process_name", Ph: "M", Pid: p,
			Args: map[string]any{"name": name},
		})
	}
	lanes := make([]lane, 0, len(seenLane))
	for l := range seenLane {
		lanes = append(lanes, l)
	}
	sort.Slice(lanes, func(i, j int) bool {
		if lanes[i].pid != lanes[j].pid {
			return lanes[i].pid < lanes[j].pid
		}
		return lanes[i].tid < lanes[j].tid
	})
	for _, l := range lanes {
		name := fmt.Sprintf("worker %d", l.tid)
		if l.tid >= ProverTid {
			name = "prover"
		}
		meta = append(meta, chromeEvent{
			Name: "thread_name", Ph: "M", Pid: l.pid, Tid: l.tid,
			Args: map[string]any{"name": name},
		})
	}

	// Hand-rolled array: one compact line per event keeps diffs and goldens
	// stable across encoder versions.
	bw := bufio.NewWriter(w)
	if _, err := bw.WriteString("[\n"); err != nil {
		return err
	}
	all := append(meta, out...)
	for i, ce := range all {
		b, err := json.Marshal(ce)
		if err != nil {
			return err
		}
		if _, err := bw.Write(b); err != nil {
			return err
		}
		if i < len(all)-1 {
			if err := bw.WriteByte(','); err != nil {
				return err
			}
		}
		if err := bw.WriteByte('\n'); err != nil {
			return err
		}
	}
	if _, err := bw.WriteString("]\n"); err != nil {
		return err
	}
	return bw.Flush()
}

// jsonlEvent is the line schema for WriteJSONL/ReadJSONL. Node is written
// for the attributed phases only.
type jsonlEvent struct {
	Phase   string `json:"phase"`
	Pid     int    `json:"pid"`
	Tid     int    `json:"tid"`
	StartNs int64  `json:"start_ns"`
	DurNs   int64  `json:"dur_ns"`
	Key     string `json:"key,omitempty"`
	Detail  string `json:"detail,omitempty"`
	Node    *int   `json:"node,omitempty"`
	N       int64  `json:"n,omitempty"`
}

// WriteJSONL renders events one JSON object per line (machine-friendly
// alternative to the Chrome format; nanosecond precision).
func WriteJSONL(w io.Writer, evs []Event) error {
	evs = append([]Event(nil), evs...)
	SortEvents(evs)
	bw := bufio.NewWriter(w)
	for i := range evs {
		ev := &evs[i]
		je := jsonlEvent{
			Phase: ev.Phase.String(), Pid: ev.Pid, Tid: ev.Tid,
			StartNs: int64(ev.Start), DurNs: int64(ev.Dur),
			Key: ev.Key, Detail: ev.Detail, N: ev.N,
		}
		if ev.Phase.Attributed() {
			je.Node = &ev.Node
		}
		b, err := json.Marshal(je)
		if err != nil {
			return err
		}
		if _, err := bw.Write(b); err != nil {
			return err
		}
		if err := bw.WriteByte('\n'); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// ReadJSONL parses a JSONL trace back into events. Lines with unknown
// phases are rejected so schema drift surfaces loudly.
func ReadJSONL(r io.Reader) ([]Event, error) {
	var out []Event
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 16*1024*1024)
	line := 0
	for sc.Scan() {
		line++
		raw := sc.Bytes()
		if len(raw) == 0 {
			continue
		}
		var je jsonlEvent
		if err := json.Unmarshal(raw, &je); err != nil {
			return nil, fmt.Errorf("jsonl line %d: %w", line, err)
		}
		ph, ok := PhaseFromName(je.Phase)
		if !ok {
			return nil, fmt.Errorf("jsonl line %d: unknown phase %q", line, je.Phase)
		}
		ev := Event{
			Phase: ph, Pid: je.Pid, Tid: je.Tid,
			Start: time.Duration(je.StartNs), Dur: time.Duration(je.DurNs),
			Key: je.Key, Detail: je.Detail, N: je.N,
		}
		if je.Node != nil {
			ev.Node = *je.Node
		}
		out = append(out, ev)
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	SortEvents(out)
	return out, nil
}

// ReadChromeTrace parses a Chrome trace-event JSON array (as written by
// WriteChromeTrace) back into events; metadata events are skipped and
// unknown span names rejected.
func ReadChromeTrace(r io.Reader) ([]Event, error) {
	var raw []chromeEvent
	dec := json.NewDecoder(r)
	if err := dec.Decode(&raw); err != nil {
		return nil, fmt.Errorf("chrome trace: %w", err)
	}
	var out []Event
	for i := range raw {
		ce := &raw[i]
		if ce.Ph != "X" {
			continue
		}
		ph, ok := PhaseFromName(ce.Name)
		if !ok {
			return nil, fmt.Errorf("chrome trace event %d: unknown phase %q", i, ce.Name)
		}
		ev := Event{
			Phase: ph, Pid: ce.Pid, Tid: ce.Tid,
			Start: time.Duration(ce.Ts * float64(time.Microsecond)),
			Dur:   time.Duration(ce.Dur * float64(time.Microsecond)),
		}
		if s, ok := ce.Args["key"].(string); ok {
			ev.Key = s
		}
		if s, ok := ce.Args["detail"].(string); ok {
			ev.Detail = s
		}
		if f, ok := ce.Args["node"].(float64); ok {
			ev.Node = int(f)
		}
		if f, ok := ce.Args["n"].(float64); ok {
			ev.N = int64(f)
		}
		out = append(out, ev)
	}
	SortEvents(out)
	return out, nil
}
