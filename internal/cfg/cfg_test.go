package cfg

import (
	"strings"
	"testing"

	"repro/internal/parser"
)

func build(t *testing.T, src string) *Graph {
	t.Helper()
	prog, err := parser.Parse("t.mpl", src)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	return Build(prog)
}

func TestStraightLine(t *testing.T) {
	g := build(t, "x := 1\ny := 2\nprint y")
	// entry -> assign -> assign -> print -> exit
	n := g.Entry.SuccSeq()
	if n.Kind != Assign || n.AssignName != "x" {
		t.Fatalf("first = %v", n)
	}
	n = n.SuccSeq()
	if n.Kind != Assign || n.AssignName != "y" {
		t.Fatalf("second = %v", n)
	}
	n = n.SuccSeq()
	if n.Kind != Print {
		t.Fatalf("third = %v", n)
	}
	if n.SuccSeq() != g.Exit {
		t.Fatalf("print successor = %v, want exit", n.SuccSeq())
	}
}

func TestIfBothBranchesReachExit(t *testing.T) {
	g := build(t, "if id == 0 then x := 1 else x := 2 end\nprint x")
	br := g.Entry.SuccSeq()
	if br.Kind != Branch {
		t.Fatalf("first = %v", br)
	}
	tN, fN := br.SuccBranch()
	if tN == nil || fN == nil {
		t.Fatal("branch missing true/false successors")
	}
	// Both branches converge at print.
	join1 := tN.SuccSeq()
	join2 := fN.SuccSeq()
	if join1 != join2 || join1.Kind != Print {
		t.Errorf("branches do not join at print: %v vs %v", join1, join2)
	}
}

func TestIfWithoutElse(t *testing.T) {
	g := build(t, "if id == 0 then x := 1 end\nprint x")
	br := g.Entry.SuccSeq()
	tN, fN := br.SuccBranch()
	if fN.Kind != Print {
		t.Errorf("false edge should skip to print, got %v", fN)
	}
	if tN.SuccSeq() != fN {
		t.Errorf("then branch should rejoin at print")
	}
}

func TestWhileLoopShape(t *testing.T) {
	g := build(t, "while i < np do i := i + 1 end\nprint i")
	br := g.Entry.SuccSeq()
	if br.Kind != Branch {
		t.Fatalf("loop head = %v", br)
	}
	body, exit := br.SuccBranch()
	if body.Kind != Assign {
		t.Fatalf("body = %v", body)
	}
	if body.SuccSeq() != br {
		t.Error("body does not loop back to head")
	}
	if exit.Kind != Print {
		t.Errorf("exit = %v", exit)
	}
}

func TestForDesugar(t *testing.T) {
	g := build(t, "for i := 1 to np - 1 do send x -> i end")
	init := g.Entry.SuccSeq()
	if init.Kind != Assign || init.AssignName != "i" || !init.Synthetic {
		t.Fatalf("init = %v synthetic=%v", init, init.Synthetic)
	}
	br := init.SuccSeq()
	if br.Kind != Branch || br.Cond.String() != "i <= np - 1" {
		t.Fatalf("loop head = %v", br)
	}
	body, exit := br.SuccBranch()
	if body.Kind != Send {
		t.Fatalf("body = %v", body)
	}
	inc := body.SuccSeq()
	if inc.Kind != Assign || inc.AssignRhs.String() != "i + 1" || !inc.Synthetic {
		t.Fatalf("inc = %v", inc)
	}
	if inc.SuccSeq() != br {
		t.Error("increment does not loop back")
	}
	if exit != g.Exit {
		t.Errorf("false edge = %v, want exit", exit)
	}
}

func TestCommNodes(t *testing.T) {
	g := build(t, "send x -> 1\nrecv y <- 0\nsendrecv x -> 1, y <- 1\nprint x")
	comm := g.CommNodes()
	if len(comm) != 3 {
		t.Fatalf("CommNodes = %d, want 3", len(comm))
	}
	if comm[0].Kind != Send || comm[1].Kind != Recv || comm[2].Kind != SendRecv {
		t.Errorf("kinds = %v %v %v", comm[0].Kind, comm[1].Kind, comm[2].Kind)
	}
	for _, n := range comm {
		if !n.IsComm() {
			t.Errorf("%v IsComm = false", n)
		}
	}
	if g.Entry.IsComm() {
		t.Error("entry IsComm = true")
	}
}

func TestTagsOnNodes(t *testing.T) {
	g := build(t, "send x -> 1 : halo")
	n := g.Entry.SuccSeq()
	if n.Tag != "halo" {
		t.Errorf("tag = %q", n.Tag)
	}
}

func TestVarDeclAndSkipProduceNoNodes(t *testing.T) {
	g := build(t, "var a, b\nskip\nx := 1")
	n := g.Entry.SuccSeq()
	if n.Kind != Assign {
		t.Errorf("first real node = %v, want assign", n)
	}
}

func TestReachability(t *testing.T) {
	g := build(t, "if id == 0 then send x -> 1 else recv x <- 0 end")
	seen := map[int]bool{}
	for stack := []*Node{g.Entry}; len(stack) > 0; {
		n := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		if seen[n.ID] {
			continue
		}
		seen[n.ID] = true
		for _, e := range n.Succs {
			stack = append(stack, e.To)
		}
	}
	if len(seen) != len(g.Nodes) {
		t.Errorf("reachable %d of %d nodes", len(seen), len(g.Nodes))
	}
}

func TestDotOutput(t *testing.T) {
	g := build(t, "if id == 0 then send x -> 1 end")
	dot := g.Dot("test")
	for _, want := range []string{"digraph", "send x -> 1", "true", "false"} {
		if !strings.Contains(dot, want) {
			t.Errorf("dot output missing %q:\n%s", want, dot)
		}
	}
}

func TestNodeLabels(t *testing.T) {
	g := build(t, "x := 5\nsend x -> id + 1\nrecv y <- 0\nprint y\nassume np >= 2\nassert y == 5")
	var labels []string
	for n := g.Entry.SuccSeq(); n != nil && n.Kind != Exit; n = n.SuccSeq() {
		labels = append(labels, n.Label())
	}
	want := []string{"x := 5", "send x -> id + 1", "recv y <- 0", "print y", "assume np >= 2", "assert y == 5"}
	if len(labels) != len(want) {
		t.Fatalf("labels = %v", labels)
	}
	for i := range want {
		if labels[i] != want[i] {
			t.Errorf("label[%d] = %q, want %q", i, labels[i], want[i])
		}
	}
}

func TestPredEdges(t *testing.T) {
	g := build(t, "if id == 0 then x := 1 else x := 2 end\nprint x")
	var printNode *Node
	for _, n := range g.Nodes {
		if n.Kind == Print {
			printNode = n
		}
	}
	if printNode == nil || len(printNode.Preds) != 2 {
		t.Fatalf("print preds = %v", printNode)
	}
}
