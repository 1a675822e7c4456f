package prof

import (
	"bytes"
	"strings"
	"sync"
	"testing"

	"repro/internal/ast"
	"repro/internal/cfg"
	"repro/internal/obs"
	"repro/internal/source"
)

func testGraph() *cfg.Graph {
	span := func(line int) source.Span {
		return source.Span{Start: source.Pos{Line: line, Col: 1}, End: source.Pos{Line: line, Col: 10}}
	}
	return &cfg.Graph{Nodes: []*cfg.Node{
		{ID: 0, Kind: cfg.Entry},
		{ID: 1, Kind: cfg.Assign, AssignName: "x", AssignRhs: &ast.IntLit{Value: 1}, Span: span(1)},
		{ID: 2, Kind: cfg.Send, Value: &ast.Ident{Name: "x"}, Dest: &ast.IntLit{Value: 1}, Span: span(2)},
		{ID: 3, Kind: cfg.Recv, RecvName: "x", Src: &ast.IntLit{Value: 0}, Span: span(3), Synthetic: true},
	}}
}

// attached returns a profiler attached to a fresh tracer for job 1 over
// testGraph, and the tracer.
func attached() (*Profiler, *obs.Tracer) {
	tr := obs.NewAggregate()
	p := New()
	p.Attach(tr, 1, testGraph())
	return p, tr
}

// folded returns a profiler over testGraph that has folded evs (job 1
// unless an event says otherwise).
func folded(evs ...obs.Event) *Profiler {
	p, _ := attached()
	for i := range evs {
		if evs[i].Pid == 0 {
			evs[i].Pid = 1
		}
		p.fold(evs[i])
	}
	return p
}

func TestFoldAttributesEvents(t *testing.T) {
	p := folded(
		obs.Event{Phase: obs.PhaseStep, Node: 1, Dur: 100, N: 2},
		obs.Event{Phase: obs.PhaseStep, Node: 1, Dur: 50, N: 1},
		// The prover spans inside a matcher call are charged to it.
		obs.Event{Phase: obs.PhaseProver, Tid: obs.ProverTid, Dur: 120},
		obs.Event{Phase: obs.PhaseMatch, Node: 2, Dur: 300, N: 2, Detail: "matched"},
		obs.Event{Phase: obs.PhaseMatch, Node: 2, Dur: 10, Detail: "unmatched"},
		obs.Event{Phase: obs.PhaseJoin, Node: 2},
		obs.Event{Phase: obs.PhaseWiden, Node: 2},
		obs.Event{Phase: obs.PhaseWidenFail, Node: 2, Key: "np - 2", Detail: "np - 3"},
		obs.Event{Phase: obs.PhaseWidenFail, Node: 2, Key: "np - 2", Detail: "np - 3"},
		obs.Event{Phase: obs.PhaseGiveup, Node: 3},
		obs.Event{Phase: obs.PhaseDemote, Node: 3},
		// Another job's events, the step budget's unattributed give-up and
		// phases the profile has no column for are not counted.
		obs.Event{Phase: obs.PhaseStep, Pid: 2, Node: 1, Dur: 7, N: 1},
		obs.Event{Phase: obs.PhaseGiveup, Node: -1},
		obs.Event{Phase: obs.PhaseCommit, Dur: 99},
	)

	r := p.Report("test.mpl", "a\nb\nc\n")
	if r.Totals.Steps != 2 || r.Totals.StepNs != 150 || r.Totals.Spawned != 3 {
		t.Errorf("step totals = %+v", r.Totals)
	}
	if r.Totals.Matches != 2 || r.Totals.Matched != 1 || r.Totals.MatchNs != 310 ||
		r.Totals.MemoMisses != 2 || r.Totals.ProverSearches != 1 || r.Totals.ProverNs != 120 {
		t.Errorf("match totals = %+v", r.Totals)
	}
	if r.Totals.Joins != 1 || r.Totals.Widenings != 1 || r.Totals.WidenFailures != 2 {
		t.Errorf("combine totals = %+v", r.Totals)
	}
	if r.Totals.GiveUps != 1 || r.Totals.TopDemotions != 1 {
		t.Errorf("top totals = %+v", r.Totals)
	}
	if len(r.WidenFailures) != 1 {
		t.Fatalf("widen failures = %+v, want one deduped row", r.WidenFailures)
	}
	wf := r.WidenFailures[0]
	if wf.Count != 2 || wf.Node != 2 || wf.Line != 2 || wf.OldBound != "np - 2" || wf.NewBound != "np - 3" {
		t.Errorf("widen failure row = %+v", wf)
	}
	// Node resolution: node 1 resolves to line 1, kind Assign.
	var n1 *NodeProfile
	for i := range r.Nodes {
		if r.Nodes[i].Node == 1 {
			n1 = &r.Nodes[i]
		}
	}
	if n1 == nil || n1.Line != 1 || n1.Kind != "assign" {
		t.Errorf("node 1 profile = %+v", n1)
	}
}

// TestAttachFoldsTracerEvents: an attached profiler sees what its job
// records on the tracer, spans and marks alike, with no retained events.
func TestAttachFoldsTracerEvents(t *testing.T) {
	p, tr := attached()
	tr.Begin(1, 0, obs.PhaseStep, "k").EndAt(2, 3, "")
	tr.Mark(1, 0, obs.PhaseMatch, 2, "k", "matched")
	tr.Mark(2, 0, obs.PhaseGiveup, 2, "k", "another job")
	r := p.Report("x.mpl", "")
	if r.Totals.Steps != 1 || r.Totals.Spawned != 3 || r.Totals.Matched != 1 || r.Totals.GiveUps != 0 {
		t.Errorf("totals = %+v", r.Totals)
	}
	if len(tr.Events()) != 0 {
		t.Errorf("aggregate tracer retained %d events", len(tr.Events()))
	}
	// Folding allocates nothing per event.
	allocs := testing.AllocsPerRun(1000, func() {
		tr.Begin(1, 0, obs.PhaseStep, "k").EndAt(2, 1, "")
		tr.Mark(1, 0, obs.PhaseMatch, 2, "k", "matched")
	})
	if allocs != 0 {
		t.Errorf("profiled recording allocates %v per op, want 0", allocs)
	}
}

// TestFoldConcurrentJobs: jobs that share one tracer record from their
// own goroutines, and each job's profiler counts only its own events.
func TestFoldConcurrentJobs(t *testing.T) {
	tr := obs.NewAggregate()
	profs := []*Profiler{New(), New()}
	for i, p := range profs {
		p.Attach(tr, i+1, testGraph())
	}
	const steps = 500
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(pid int) {
			defer wg.Done()
			for i := 0; i < steps; i++ {
				tr.Begin(pid, 0, obs.PhaseStep, "k").EndAt(1, 1, "")
			}
		}(w%2 + 1)
	}
	wg.Wait()
	for i, p := range profs {
		if got := p.Report("x.mpl", "").Totals.Steps; got != 2*steps {
			t.Errorf("job %d: steps = %d, want %d", i+1, got, 2*steps)
		}
	}
}

func TestFoldOutOfRangeSafe(t *testing.T) {
	// Out-of-range nodes must be dropped, not panic.
	r := folded(
		obs.Event{Phase: obs.PhaseStep, Node: -1, N: 1},
		obs.Event{Phase: obs.PhaseStep, Node: 99, N: 1},
		obs.Event{Phase: obs.PhaseWidenFail, Node: 7, Key: "a", Detail: "b"},
	).Report("x.mpl", "")
	if len(r.Nodes) != 0 || len(r.WidenFailures) != 0 {
		t.Errorf("out-of-range events counted: %+v", r)
	}
}

func TestReportJSONRoundTrip(t *testing.T) {
	rep := folded(
		obs.Event{Phase: obs.PhaseStep, Node: 2, Dur: 1500, N: 1},
		obs.Event{Phase: obs.PhaseWidenFail, Node: 2, Key: "a", Detail: "b"},
	).Report("rt.mpl", "line one\nline two\n")

	var buf bytes.Buffer
	if err := WriteJSON(&buf, []*Report{rep}); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), `"schema": "psdf-profile/1"`) {
		t.Errorf("missing schema marker:\n%s", buf.String())
	}
	jobs, err := ReadJSON(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(jobs) != 1 || jobs[0].Name != "rt.mpl" || jobs[0].Totals.Steps != 1 {
		t.Errorf("round trip = %+v", jobs[0])
	}
	if jobs[0].Source != "line one\nline two\n" {
		t.Errorf("source not embedded: %q", jobs[0].Source)
	}
}

func TestReadJSONRejects(t *testing.T) {
	cases := []string{
		`{"schema":"other/9","jobs":[]}`,
		`{"jobs":[]}`,
		`{"schema":"psdf-profile/1","jobs":[{"name":""}]}`,
		`{"schema":"psdf-profile/1","jobs":[{"name":"x","nodes":[{"node":-4}]}]}`,
		`not json`,
	}
	for _, c := range cases {
		if _, err := ReadJSON(strings.NewReader(c)); err == nil {
			t.Errorf("ReadJSON(%q) accepted", c)
		}
	}
}

func TestListingAndFolded(t *testing.T) {
	rep := folded(
		obs.Event{Phase: obs.PhaseStep, Node: 1, Dur: 2000, N: 1},
		obs.Event{Phase: obs.PhaseStep, Node: 2, Dur: 9000, N: 2},
		obs.Event{Phase: obs.PhaseProver, Tid: obs.ProverTid, Dur: 300},
		obs.Event{Phase: obs.PhaseMatch, Node: 2, Dur: 700, N: 1, Detail: "matched"},
		obs.Event{Phase: obs.PhaseGiveup, Node: 3},
	).Report("x.mpl", "x = 1\nsend x\nrecv y\n")

	var lst bytes.Buffer
	if err := rep.WriteListing(&lst); err != nil {
		t.Fatal(err)
	}
	out := lst.String()
	for _, want := range []string{"send x", "recv y", "totals:", "2 steps"} {
		if !strings.Contains(out, want) {
			t.Errorf("listing missing %q:\n%s", want, out)
		}
	}

	var fold bytes.Buffer
	if err := rep.WriteFolded(&fold); err != nil {
		t.Fatal(err)
	}
	fout := fold.String()
	if !strings.Contains(fout, "x.mpl;L2 send n2;step 9") {
		t.Errorf("folded missing step frame:\n%s", fout)
	}
	for _, line := range strings.Split(strings.TrimSpace(fout), "\n") {
		fields := strings.Fields(line)
		if len(fields) < 2 {
			t.Errorf("folded line %q not `stack value`", line)
		}
	}

	var top bytes.Buffer
	rep.WriteTop(&top, 1)
	if !strings.Contains(top.String(), "L2") {
		t.Errorf("top-1 should rank line 2 first:\n%s", top.String())
	}
}

func TestSweepAttribution(t *testing.T) {
	a := NewSweepAttribution()
	rep := &Report{
		Name: "p0",
		Nodes: []NodeProfile{
			{Node: 2, Line: 5, Counters: Counters{WidenFailures: 3}},
			{Node: 3, Line: 9, Counters: Counters{GiveUps: 1}},
			{Node: 4, Line: 0, Counters: Counters{TopDemotions: 1}},
		},
		WidenFailures: []WidenFailure{{Node: 2, Line: 5, OldBound: "np - 2", NewBound: "np - 3", Count: 3}},
	}
	ranges := []LineRange{{Label: "shift", Start: 4, End: 6}, {Label: "ring", Start: 8, End: 10}}
	a.Add(rep, ranges, "decor")
	a.Add(rep, ranges, "decor")

	rows := a.Rows()
	if len(rows) != 3 {
		t.Fatalf("rows = %+v", rows)
	}
	if rows[0].Construct != "shift" || rows[0].WidenFailures != 6 || rows[0].Programs != 2 {
		t.Errorf("top row = %+v", rows[0])
	}
	if rows[0].TopPair() != "np - 2 vs np - 3" {
		t.Errorf("top pair = %q", rows[0].TopPair())
	}
	if rows[1].Construct != "ring" || rows[1].GiveUps != 2 {
		t.Errorf("second row = %+v", rows[1])
	}
	if rows[2].Construct != "decor" || rows[2].TopDemotions != 2 {
		t.Errorf("decor row = %+v", rows[2])
	}

	var tbl bytes.Buffer
	a.WriteTable(&tbl)
	if !strings.Contains(tbl.String(), "shift") || !strings.Contains(tbl.String(), "np - 2 vs np - 3") {
		t.Errorf("table:\n%s", tbl.String())
	}
	var js bytes.Buffer
	if err := a.WriteJSON(&js); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(js.String(), AttrSchema) {
		t.Errorf("attribution json missing schema:\n%s", js.String())
	}
}
