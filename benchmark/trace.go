package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/ast"
	"repro/internal/clients/cartesian"
	"repro/internal/core"
)

// Layer names of the benchmark's spans. Each span wraps one call into a
// layer; verdict is the root span of one program's source-to-verdict run.
const (
	layerVerdict = "verdict"
	layerParse   = "parser.parse"
	layerSem     = "sem.check"
	layerCFG     = "cfg.build"
	layerSetup   = "cartesian.setup"
	layerAnalyze = "core.analyze"
	layerMatch   = "cartesian.match"
	layerLint    = "lint.run"
)

// span is one recorded layer call.
type span struct {
	Visit  int    `json:"visit"`  // timed verdict the span belongs to
	Input  int    `json:"input"`  // pool index of the program
	ID     int    `json:"id"`     // index in the trace
	Parent int    `json:"parent"` // -1 for a verdict span
	Layer  string `json:"layer"`
	Start  int64  `json:"start_ns"` // since the tracer's epoch
	End    int64  `json:"end_ns"`
}

// tracer keeps spans in memory until the run ends. A nil *tracer records
// nothing. Safe for concurrent use: paper-par's two engine workers record
// match spans at once.
type tracer struct {
	epoch time.Time
	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

// begin opens a span and returns its id (-1 on a nil tracer).
func (t *tracer) begin(visit, input, parent int, layer string) int {
	if t == nil {
		return -1
	}
	now := time.Since(t.epoch).Nanoseconds()
	t.mu.Lock()
	defer t.mu.Unlock()
	id := len(t.spans)
	t.spans = append(t.spans, span{Visit: visit, Input: input, ID: id, Parent: parent, Layer: layer, Start: now})
	return id
}

// end closes span id.
func (t *tracer) end(id int) {
	if t == nil {
		return
	}
	now := time.Since(t.epoch).Nanoseconds()
	t.mu.Lock()
	t.spans[id].End = now
	t.mu.Unlock()
}

// selfTimes returns each layer's total span time and total self time: a
// span's duration minus the part of it that its children's union covers.
func (t *tracer) selfTimes() (total, self map[string]int64) {
	children := make([][]int, len(t.spans))
	for _, s := range t.spans {
		if s.Parent >= 0 {
			children[s.Parent] = append(children[s.Parent], s.ID)
		}
	}
	total, self = map[string]int64{}, map[string]int64{}
	for _, s := range t.spans {
		total[s.Layer] += s.End - s.Start
		self[s.Layer] += s.End - s.Start - covered(t.spans, children[s.ID])
	}
	return total, self
}

// covered is the length of the union of the given spans' intervals.
func covered(spans []span, ids []int) int64 {
	if len(ids) == 0 {
		return 0
	}
	iv := make([][2]int64, len(ids))
	for i, id := range ids {
		iv[i] = [2]int64{spans[id].Start, spans[id].End}
	}
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	var sum int64
	cur := iv[0]
	for _, v := range iv[1:] {
		if v[0] > cur[1] {
			sum += cur[1] - cur[0]
			cur = v
		} else if v[1] > cur[1] {
			cur[1] = v[1]
		}
	}
	return sum + cur[1] - cur[0]
}

// writeJSONL writes one span per line.
func (t *tracer) writeJSONL(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return fmt.Errorf("write %s: %w", path, err)
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return fmt.Errorf("write %s: %w", path, err)
	}
	return f.Close()
}

// countingMatcher wraps the cartesian client to count match calls and, when
// tracing, record a span per call. Embedding forwards Memo(), Prover(),
// ProverSearches() and ProverSearchNs(), so the engine's interface
// assertions on its matcher still hold.
type countingMatcher struct {
	*cartesian.Matcher
	tr            *tracer
	visit, input  int
	parent        int
	calls, proved atomic.Int64
}

func (m *countingMatcher) Match(st *core.State, sender *core.ProcSet, dest ast.Expr, receiver *core.ProcSet, src ast.Expr) (*core.MatchPlan, bool) {
	sp := m.tr.begin(m.visit, m.input, m.parent, layerMatch)
	plan, ok := m.Matcher.Match(st, sender, dest, receiver, src)
	m.tr.end(sp)
	m.count(ok)
	return plan, ok
}

func (m *countingMatcher) SelfMatch(st *core.State, ps *core.ProcSet, dest, src ast.Expr) bool {
	sp := m.tr.begin(m.visit, m.input, m.parent, layerMatch)
	ok := m.Matcher.SelfMatch(st, ps, dest, src)
	m.tr.end(sp)
	m.count(ok)
	return ok
}

func (m *countingMatcher) count(ok bool) {
	m.calls.Add(1)
	if ok {
		m.proved.Add(1)
	}
}
