package prof

import (
	"bytes"
	"strings"
	"testing"

	"repro/internal/cfg"
	"repro/internal/source"
)

func testGraph() *cfg.Graph {
	span := func(line int) source.Span {
		return source.Span{Start: source.Pos{Line: line, Col: 1}, End: source.Pos{Line: line, Col: 10}}
	}
	return &cfg.Graph{Nodes: []*cfg.Node{
		{ID: 0, Kind: cfg.Entry},
		{ID: 1, Kind: cfg.Assign, AssignName: "x", Span: span(1)},
		{ID: 2, Kind: cfg.Send, Span: span(2)},
		{ID: 3, Kind: cfg.Recv, Span: span(3), Synthetic: true},
	}}
}

func TestCommitMergesLanes(t *testing.T) {
	p := New()
	// Two analyses' lanes hitting the same node: totals must sum.
	l, l2 := p.NewLane(4), p.NewLane(4)
	l.Step(1, 100, 2)
	l2.Step(1, 50, 1)
	l.Match(2, 300, 2, 1, 120, true)
	l.Combine(2, false)
	l2.Combine(2, true)
	l2.WidenFail(2, "np - 2", "np - 3")
	l.WidenFail(2, "np - 2", "np - 3")
	l.GiveUp(3)
	l.TopDemotion(3)
	p.Commit(testGraph(), l)
	p.Commit(testGraph(), l2)

	r := p.Report("test.mpl", "a\nb\nc\n")
	if r.Totals.Steps != 2 || r.Totals.StepNs != 150 || r.Totals.Spawned != 3 {
		t.Errorf("step totals = %+v", r.Totals)
	}
	if r.Totals.Matches != 1 || r.Totals.MemoMisses != 2 || r.Totals.ProverSearches != 1 || r.Totals.ProverNs != 120 {
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
	if wf.Count != 2 || wf.Node != 2 || wf.Line != 2 || wf.OldBound != "np - 2" {
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

func TestLanesOutOfRangeSafe(t *testing.T) {
	l := New().NewLane(2)
	// Out-of-range nodes must be dropped, not panic.
	l.Step(-1, 1, 1)
	l.Step(99, 1, 1)
	l.GiveUp(7)
}

func TestReportJSONRoundTrip(t *testing.T) {
	p := New()
	l := p.NewLane(4)
	l.Step(2, 1500, 1)
	l.WidenFail(2, "a", "b")
	p.Commit(testGraph(), l)
	rep := p.Report("rt.mpl", "line one\nline two\n")

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
	p := New()
	l := p.NewLane(4)
	l.Step(1, 2000, 1)
	l.Step(2, 9000, 2)
	l.Match(2, 700, 1, 1, 300, true)
	l.GiveUp(3)
	p.Commit(testGraph(), l)
	rep := p.Report("x.mpl", "x = 1\nsend x\nrecv y\n")

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
