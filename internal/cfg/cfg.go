// Package cfg builds control-flow graphs for MPL programs.
//
// Each CFG node holds at most one atomic action: an assignment, a branch
// condition, a communication operation, a print, or an assume/assert.
// For-loops are desugared into an initialization, a branch and an increment,
// so downstream analyses only see assignments and branches. The parallel
// dataflow framework (internal/core) runs over tuples of positions in this
// graph — the pCFG of Section V of the paper.
package cfg

import (
	"fmt"
	"sort"
	"strconv"
	"strings"

	"repro/internal/ast"
	"repro/internal/source"
)

// NodeKind classifies CFG nodes.
type NodeKind int

// Node kinds.
const (
	Entry NodeKind = iota
	Exit
	Assign   // x := e
	Branch   // two successors: true / false
	Send     // send value -> dest
	Recv     // recv x <- src
	SendRecv // combined exchange
	Print
	Assume
	Assert
	Skip
)

func (k NodeKind) String() string {
	switch k {
	case Entry:
		return "entry"
	case Exit:
		return "exit"
	case Assign:
		return "assign"
	case Branch:
		return "branch"
	case Send:
		return "send"
	case Recv:
		return "recv"
	case SendRecv:
		return "sendrecv"
	case Print:
		return "print"
	case Assume:
		return "assume"
	case Assert:
		return "assert"
	case Skip:
		return "skip"
	}
	return fmt.Sprintf("kind(%d)", int(k))
}

// EdgeKind classifies CFG edges.
type EdgeKind int

// Edge kinds. Branch nodes have one True and one False successor; all other
// nodes have at most one Seq successor.
const (
	Seq EdgeKind = iota
	True
	False
)

func (k EdgeKind) String() string {
	switch k {
	case Seq:
		return "seq"
	case True:
		return "true"
	case False:
		return "false"
	}
	return fmt.Sprintf("edge(%d)", int(k))
}

// Edge is a directed CFG edge.
type Edge struct {
	From, To *Node
	Kind     EdgeKind
}

// Node is a single CFG node.
type Node struct {
	ID   int
	Kind NodeKind

	// Populated according to Kind:
	AssignName string   // Assign: target variable
	AssignRhs  ast.Expr // Assign: right-hand side
	Cond       ast.Expr // Branch / Assume / Assert: the condition
	Value      ast.Expr // Send/SendRecv: payload expression
	Dest       ast.Expr // Send/SendRecv: destination process expression
	RecvName   string   // Recv/SendRecv: target variable
	Src        ast.Expr // Recv/SendRecv: source process expression
	Arg        ast.Expr // Print: argument
	Tag        string   // Send/Recv/SendRecv: message type tag

	// Synthetic marks nodes created by desugaring (e.g. for-loop
	// initialization and increment) rather than written by the user.
	Synthetic bool

	Span  source.Span
	Succs []*Edge
	Preds []*Edge
}

// IsComm reports whether the node is a communication operation — the
// paper's isCommOp predicate.
func (n *Node) IsComm() bool {
	return n.Kind == Send || n.Kind == Recv || n.Kind == SendRecv
}

// SuccSeq returns the unique sequential successor of a non-branch node, or
// nil for Exit.
func (n *Node) SuccSeq() *Node {
	for _, e := range n.Succs {
		if e.Kind == Seq {
			return e.To
		}
	}
	return nil
}

// SuccBranch returns the True and False successors of a Branch node.
func (n *Node) SuccBranch() (t, f *Node) {
	for _, e := range n.Succs {
		switch e.Kind {
		case True:
			t = e.To
		case False:
			f = e.To
		}
	}
	return t, f
}

// Label renders a short human-readable description of the node's action.
func (n *Node) Label() string {
	var buf [64]byte
	return string(n.appendLabel(buf[:0]))
}

func (n *Node) String() string {
	var buf [64]byte
	b := strconv.AppendInt(append(buf[:0], 'n'), int64(n.ID), 10)
	return string(append(n.appendLabel(append(b, '[')), ']'))
}

// appendLabel appends the node's Label to dst.
func (n *Node) appendLabel(dst []byte) []byte {
	switch n.Kind {
	case Assign:
		dst = append(append(dst, n.AssignName...), " := "...)
		return ast.AppendExpr(dst, n.AssignRhs)
	case Branch:
		return ast.AppendExpr(append(dst, "if "...), n.Cond)
	case Send:
		dst = ast.AppendExpr(append(dst, "send "...), n.Value)
		return ast.AppendExpr(append(dst, " -> "...), n.Dest)
	case Recv:
		dst = append(append(dst, "recv "...), n.RecvName...)
		return ast.AppendExpr(append(dst, " <- "...), n.Src)
	case SendRecv:
		dst = ast.AppendExpr(append(dst, "sendrecv "...), n.Value)
		dst = ast.AppendExpr(append(dst, " -> "...), n.Dest)
		dst = append(append(append(dst, ", "...), n.RecvName...), " <- "...)
		return ast.AppendExpr(dst, n.Src)
	case Print:
		return ast.AppendExpr(append(dst, "print "...), n.Arg)
	case Assume:
		return ast.AppendExpr(append(dst, "assume "...), n.Cond)
	case Assert:
		return ast.AppendExpr(append(dst, "assert "...), n.Cond)
	}
	return append(dst, n.Kind.String()...)
}

// Graph is a control-flow graph with unique Entry and Exit nodes.
type Graph struct {
	Nodes []*Node
	Entry *Node
	Exit  *Node
}

// Node returns the node with the given ID, or nil.
func (g *Graph) Node(id int) *Node {
	if id >= 0 && id < len(g.Nodes) {
		return g.Nodes[id]
	}
	return nil
}

// CommNodes returns all communication nodes in ID order.
func (g *Graph) CommNodes() []*Node {
	var out []*Node
	for _, n := range g.Nodes {
		if n.IsComm() {
			out = append(out, n)
		}
	}
	return out
}

// Build constructs the CFG for a program.
func Build(prog *ast.Program) *Graph {
	b := &builder{}
	b.g = &Graph{}
	b.g.Entry = b.newNode(Entry, source.Span{})
	exitNode := b.newNode(Exit, source.Span{})
	b.g.Exit = exitNode
	last := b.buildStmts(prog.Stmts, []*pending{{b.g.Entry, Seq}})
	b.connect(last, exitNode)
	return b.g
}

// pending is a dangling edge waiting for its target node.
type pending struct {
	from *Node
	kind EdgeKind
}

type builder struct {
	g *Graph
}

func (b *builder) newNode(kind NodeKind, sp source.Span) *Node {
	n := &Node{ID: len(b.g.Nodes), Kind: kind, Span: sp}
	b.g.Nodes = append(b.g.Nodes, n)
	return n
}

func (b *builder) connect(pendings []*pending, to *Node) {
	for _, p := range pendings {
		e := &Edge{From: p.from, To: to, Kind: p.kind}
		p.from.Succs = append(p.from.Succs, e)
		to.Preds = append(to.Preds, e)
	}
}

// buildStmts threads the statement list, returning the dangling edges that
// should connect to whatever follows.
func (b *builder) buildStmts(stmts []ast.Stmt, in []*pending) []*pending {
	cur := in
	for _, s := range stmts {
		cur = b.buildStmt(s, cur)
	}
	return cur
}

func (b *builder) buildStmt(s ast.Stmt, in []*pending) []*pending {
	switch x := s.(type) {
	case *ast.VarDecl:
		// Declarations have no runtime effect (variables start at 0).
		return in
	case *ast.Skip:
		return in
	case *ast.Assign:
		n := b.newNode(Assign, x.Sp)
		n.AssignName, n.AssignRhs = x.Name, x.Rhs
		b.connect(in, n)
		return []*pending{{n, Seq}}
	case *ast.Print:
		n := b.newNode(Print, x.Sp)
		n.Arg = x.Arg
		b.connect(in, n)
		return []*pending{{n, Seq}}
	case *ast.Assume:
		n := b.newNode(Assume, x.Sp)
		n.Cond = x.Cond
		b.connect(in, n)
		return []*pending{{n, Seq}}
	case *ast.Assert:
		n := b.newNode(Assert, x.Sp)
		n.Cond = x.Cond
		b.connect(in, n)
		return []*pending{{n, Seq}}
	case *ast.Send:
		n := b.newNode(Send, x.Sp)
		n.Value, n.Dest, n.Tag = x.Value, x.Dest, x.Tag
		b.connect(in, n)
		return []*pending{{n, Seq}}
	case *ast.Recv:
		n := b.newNode(Recv, x.Sp)
		n.RecvName, n.Src, n.Tag = x.Name, x.Src, x.Tag
		b.connect(in, n)
		return []*pending{{n, Seq}}
	case *ast.SendRecv:
		n := b.newNode(SendRecv, x.Sp)
		n.Value, n.Dest, n.RecvName, n.Src, n.Tag = x.Value, x.Dest, x.Name, x.Src, x.Tag
		b.connect(in, n)
		return []*pending{{n, Seq}}
	case *ast.If:
		br := b.newNode(Branch, x.Sp)
		br.Cond = x.Cond
		b.connect(in, br)
		thenOut := b.buildStmts(x.Then, []*pending{{br, True}})
		elseOut := b.buildStmts(x.Else, []*pending{{br, False}})
		return append(thenOut, elseOut...)
	case *ast.While:
		br := b.newNode(Branch, x.Sp)
		br.Cond = x.Cond
		b.connect(in, br)
		bodyOut := b.buildStmts(x.Body, []*pending{{br, True}})
		b.connect(bodyOut, br) // back edge
		return []*pending{{br, False}}
	case *ast.For:
		// for i := lo to hi do B end
		//   ==>  i := lo; while i <= hi do B; i := i + 1 end
		initN := b.newNode(Assign, x.Sp)
		initN.AssignName, initN.AssignRhs = x.Var, x.Lo
		initN.Synthetic = true
		b.connect(in, initN)

		br := b.newNode(Branch, x.Sp)
		br.Cond = &ast.Binary{
			Op: ast.Le,
			L:  &ast.Ident{Name: x.Var, Sp: x.Sp},
			R:  x.Hi,
			Sp: x.Sp,
		}
		b.connect([]*pending{{initN, Seq}}, br)

		bodyOut := b.buildStmts(x.Body, []*pending{{br, True}})

		inc := b.newNode(Assign, x.Sp)
		inc.AssignName = x.Var
		inc.AssignRhs = &ast.Binary{
			Op: ast.Add,
			L:  &ast.Ident{Name: x.Var, Sp: x.Sp},
			R:  &ast.IntLit{Value: 1, Sp: x.Sp},
			Sp: x.Sp,
		}
		inc.Synthetic = true
		b.connect(bodyOut, inc)
		b.connect([]*pending{{inc, Seq}}, br) // back edge
		return []*pending{{br, False}}
	}
	panic(fmt.Sprintf("cfg: unhandled statement %T", s))
}

// Dot renders the graph in Graphviz dot syntax.
func (g *Graph) Dot(name string) string {
	var b strings.Builder
	fmt.Fprintf(&b, "digraph %q {\n", name)
	b.WriteString("  node [shape=box, fontname=\"monospace\"];\n")
	for _, n := range g.Nodes {
		shape := ""
		if n.Kind == Branch {
			shape = ", shape=diamond"
		}
		if n.IsComm() {
			shape = ", style=bold"
		}
		fmt.Fprintf(&b, "  n%d [label=%q%s];\n", n.ID, fmt.Sprintf("%d: %s", n.ID, n.Label()), shape)
	}
	for _, n := range g.Nodes {
		edges := append([]*Edge(nil), n.Succs...)
		sort.Slice(edges, func(i, j int) bool { return edges[i].To.ID < edges[j].To.ID })
		for _, e := range edges {
			lbl := ""
			if e.Kind != Seq {
				lbl = fmt.Sprintf(" [label=%q]", e.Kind)
			}
			fmt.Fprintf(&b, "  n%d -> n%d%s;\n", e.From.ID, e.To.ID, lbl)
		}
	}
	b.WriteString("}\n")
	return b.String()
}
