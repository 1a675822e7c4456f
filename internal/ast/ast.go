// Package ast defines the abstract syntax tree for MPL, the small
// message-passing language over which the parallel dataflow analysis runs.
//
// MPL programs execute on an unbounded number of processes 0..np-1 (the
// paper's execution model, Section III). The builtins np and id are ordinary
// integer expressions; send/recv statements name their partner with an
// arithmetic expression over process-local state.
package ast

import (
	"fmt"
	"strconv"
	"strings"

	"repro/internal/source"
)

// Node is the interface shared by all AST nodes.
type Node interface {
	Span() source.Span
}

// ---------------------------------------------------------------------------
// Expressions

// Expr is an MPL expression.
type Expr interface {
	Node
	exprNode()
	// String renders the expression in MPL syntax.
	String() string
}

// IntLit is an integer literal.
type IntLit struct {
	Value int64
	Sp    source.Span
}

// BoolLit is a boolean literal (true/false).
type BoolLit struct {
	Value bool
	Sp    source.Span
}

// Ident is a variable reference, including the builtins "np" and "id".
type Ident struct {
	Name string
	Sp   source.Span
}

// UnaryOp enumerates unary operators.
type UnaryOp int

// Unary operators.
const (
	Neg  UnaryOp = iota // -x
	LNot                // !x
)

func (op UnaryOp) String() string {
	switch op {
	case Neg:
		return "-"
	case LNot:
		return "!"
	}
	return fmt.Sprintf("unop(%d)", int(op))
}

// Unary is a unary operation.
type Unary struct {
	Op UnaryOp
	X  Expr
	Sp source.Span
}

// BinOp enumerates binary operators.
type BinOp int

// Binary operators.
const (
	Add BinOp = iota
	Sub
	Mul
	Div // integer division, truncating toward zero on nonnegative operands
	Mod
	Eq
	Neq
	Lt
	Le
	Gt
	Ge
	LAnd
	LOr
)

func (op BinOp) String() string {
	switch op {
	case Add:
		return "+"
	case Sub:
		return "-"
	case Mul:
		return "*"
	case Div:
		return "/"
	case Mod:
		return "%"
	case Eq:
		return "=="
	case Neq:
		return "!="
	case Lt:
		return "<"
	case Le:
		return "<="
	case Gt:
		return ">"
	case Ge:
		return ">="
	case LAnd:
		return "&&"
	case LOr:
		return "||"
	}
	return fmt.Sprintf("binop(%d)", int(op))
}

// IsComparison reports whether op yields a boolean from two integers.
func (op BinOp) IsComparison() bool { return op >= Eq && op <= Ge }

// IsArith reports whether op is an integer arithmetic operator.
func (op BinOp) IsArith() bool { return op >= Add && op <= Mod }

// IsLogical reports whether op combines two booleans.
func (op BinOp) IsLogical() bool { return op == LAnd || op == LOr }

// Binary is a binary operation.
type Binary struct {
	Op   BinOp
	L, R Expr
	Sp   source.Span
}

func (e *IntLit) Span() source.Span  { return e.Sp }
func (e *BoolLit) Span() source.Span { return e.Sp }
func (e *Ident) Span() source.Span   { return e.Sp }
func (e *Unary) Span() source.Span   { return e.Sp }
func (e *Binary) Span() source.Span  { return e.Sp }

func (*IntLit) exprNode()  {}
func (*BoolLit) exprNode() {}
func (*Ident) exprNode()   {}
func (*Unary) exprNode()   {}
func (*Binary) exprNode()  {}

func (e *IntLit) String() string  { return strconv.FormatInt(e.Value, 10) }
func (e *BoolLit) String() string { return strconv.FormatBool(e.Value) }
func (e *Ident) String() string   { return e.Name }
func (e *Unary) String() string   { return exprString(e) }
func (e *Binary) String() string  { return exprString(e) }

// exprString renders e through AppendExpr, on the stack up to 64 bytes.
func exprString(e Expr) string {
	var buf [64]byte
	return string(AppendExpr(buf[:0], e))
}

// AppendExpr appends e's rendering, the text e.String() returns, to dst:
// binary operands are parenthesized where precedence requires it, and a
// unary operand whenever it is binary.
func AppendExpr(dst []byte, e Expr) []byte {
	switch e := e.(type) {
	case *IntLit:
		return strconv.AppendInt(dst, e.Value, 10)
	case *Unary:
		_, paren := e.X.(*Binary)
		dst = openParen(append(dst, e.Op.String()...), paren)
		return closeParen(AppendExpr(dst, e.X), paren)
	case *Binary:
		paren := bindsLooser(e.L, e.Op, false)
		dst = closeParen(AppendExpr(openParen(dst, paren), e.L), paren)
		dst = append(append(append(dst, ' '), e.Op.String()...), ' ')
		paren = bindsLooser(e.R, e.Op, true)
		return closeParen(AppendExpr(openParen(dst, paren), e.R), paren)
	}
	return append(dst, e.String()...)
}

// openParen and closeParen append the parentheses around an operand when
// paren is set. AppendExpr recurses only into itself, so its buffer does
// not escape.
func openParen(dst []byte, paren bool) []byte {
	if paren {
		return append(dst, '(')
	}
	return dst
}

func closeParen(dst []byte, paren bool) []byte {
	if paren {
		return append(dst, ')')
	}
	return dst
}

// bindsLooser reports whether operand x of a binary op needs parentheses:
// it is binary and binds looser than op, or as loosely when it is the
// right operand (the operators associate to the left).
func bindsLooser(x Expr, op BinOp, right bool) bool {
	b, ok := x.(*Binary)
	if !ok {
		return false
	}
	if right {
		return precedence(b.Op) <= precedence(op)
	}
	return precedence(b.Op) < precedence(op)
}

func precedence(op BinOp) int {
	switch op {
	case LOr:
		return 1
	case LAnd:
		return 2
	case Eq, Neq, Lt, Le, Gt, Ge:
		return 3
	case Add, Sub:
		return 4
	case Mul, Div, Mod:
		return 5
	}
	return 0
}

// ---------------------------------------------------------------------------
// Statements

// Stmt is an MPL statement.
type Stmt interface {
	Node
	stmtNode()
}

// VarDecl declares one or more integer variables (initialized to 0).
type VarDecl struct {
	Names []string
	Sp    source.Span
}

// Assign is "x := e".
type Assign struct {
	Name string
	Rhs  Expr
	Sp   source.Span
}

// If is a conditional with an optional else branch. elif chains are
// desugared by the parser into nested If statements.
type If struct {
	Cond Expr
	Then []Stmt
	Else []Stmt // nil when absent
	Sp   source.Span
}

// While is "while cond do body end".
type While struct {
	Cond Expr
	Body []Stmt
	Sp   source.Span
}

// For is "for i := lo to hi do body end"; inclusive bounds, step 1.
// The CFG builder desugars it to an initialization plus a While.
type For struct {
	Var    string
	Lo, Hi Expr
	Body   []Stmt
	Sp     source.Span
}

// Send is "send value -> dest [: tag]". The tag is an optional message-type
// label used by the type-mismatch detector.
type Send struct {
	Value Expr
	Dest  Expr
	Tag   string
	Sp    source.Span
}

// Recv is "recv x <- src [: tag]".
type Recv struct {
	Name string
	Src  Expr
	Tag  string
	Sp   source.Span
}

// SendRecv is the combined exchange "sendrecv value -> dest, x <- src",
// modeling MPI_Sendrecv: the send and receive proceed concurrently, so a
// set of processes can exchange data among themselves without deadlock.
type SendRecv struct {
	Value Expr
	Dest  Expr
	Name  string
	Src   Expr
	Tag   string
	Sp    source.Span
}

// Print is "print e".
type Print struct {
	Arg Expr
	Sp  source.Span
}

// Assume is "assume cond": a fact the analysis may rely on (e.g. np >= 2 or
// np == nrows * ncols). At runtime it is checked like an assert.
type Assume struct {
	Cond Expr
	Sp   source.Span
}

// Assert is "assert cond": checked at runtime; the analysis may verify it.
type Assert struct {
	Cond Expr
	Sp   source.Span
}

// Skip is the empty statement.
type Skip struct {
	Sp source.Span
}

func (s *VarDecl) Span() source.Span  { return s.Sp }
func (s *Assign) Span() source.Span   { return s.Sp }
func (s *If) Span() source.Span       { return s.Sp }
func (s *While) Span() source.Span    { return s.Sp }
func (s *For) Span() source.Span      { return s.Sp }
func (s *Send) Span() source.Span     { return s.Sp }
func (s *Recv) Span() source.Span     { return s.Sp }
func (s *SendRecv) Span() source.Span { return s.Sp }
func (s *Print) Span() source.Span    { return s.Sp }
func (s *Assume) Span() source.Span   { return s.Sp }
func (s *Assert) Span() source.Span   { return s.Sp }
func (s *Skip) Span() source.Span     { return s.Sp }

func (*VarDecl) stmtNode()  {}
func (*Assign) stmtNode()   {}
func (*If) stmtNode()       {}
func (*While) stmtNode()    {}
func (*For) stmtNode()      {}
func (*Send) stmtNode()     {}
func (*Recv) stmtNode()     {}
func (*SendRecv) stmtNode() {}
func (*Print) stmtNode()    {}
func (*Assume) stmtNode()   {}
func (*Assert) stmtNode()   {}
func (*Skip) stmtNode()     {}

// Program is a parsed MPL compilation unit.
type Program struct {
	Stmts []Stmt
	File  *source.File
}

// ---------------------------------------------------------------------------
// Utilities

// Walk applies fn to every expression in the subtree rooted at e, parents
// before children. If fn returns false, children of that node are skipped.
func Walk(e Expr, fn func(Expr) bool) {
	if e == nil || !fn(e) {
		return
	}
	switch x := e.(type) {
	case *Unary:
		Walk(x.X, fn)
	case *Binary:
		Walk(x.L, fn)
		Walk(x.R, fn)
	}
}

// WalkStmts applies fn to every statement in the list, recursing into
// control-flow bodies. If fn returns false, the statement's children are
// skipped.
func WalkStmts(stmts []Stmt, fn func(Stmt) bool) {
	for _, s := range stmts {
		if !fn(s) {
			continue
		}
		switch x := s.(type) {
		case *If:
			WalkStmts(x.Then, fn)
			WalkStmts(x.Else, fn)
		case *While:
			WalkStmts(x.Body, fn)
		case *For:
			WalkStmts(x.Body, fn)
		}
	}
}

// UsesIdent reports whether e references name.
func UsesIdent(e Expr, name string) bool {
	found := false
	Walk(e, func(x Expr) bool {
		if id, ok := x.(*Ident); ok && id.Name == name {
			found = true
		}
		return !found
	})
	return found
}

// Format renders stmts as indented MPL source.
func Format(stmts []Stmt) string {
	var b strings.Builder
	formatStmts(&b, stmts, 0)
	return b.String()
}

func formatStmts(b *strings.Builder, stmts []Stmt, depth int) {
	ind := strings.Repeat("  ", depth)
	for _, s := range stmts {
		switch x := s.(type) {
		case *VarDecl:
			fmt.Fprintf(b, "%svar %s\n", ind, strings.Join(x.Names, ", "))
		case *Assign:
			fmt.Fprintf(b, "%s%s := %s\n", ind, x.Name, x.Rhs)
		case *If:
			fmt.Fprintf(b, "%sif %s then\n", ind, x.Cond)
			formatStmts(b, x.Then, depth+1)
			if x.Else != nil {
				fmt.Fprintf(b, "%selse\n", ind)
				formatStmts(b, x.Else, depth+1)
			}
			fmt.Fprintf(b, "%send\n", ind)
		case *While:
			fmt.Fprintf(b, "%swhile %s do\n", ind, x.Cond)
			formatStmts(b, x.Body, depth+1)
			fmt.Fprintf(b, "%send\n", ind)
		case *For:
			fmt.Fprintf(b, "%sfor %s := %s to %s do\n", ind, x.Var, x.Lo, x.Hi)
			formatStmts(b, x.Body, depth+1)
			fmt.Fprintf(b, "%send\n", ind)
		case *Send:
			fmt.Fprintf(b, "%ssend %s -> %s%s\n", ind, x.Value, x.Dest, tagSuffix(x.Tag))
		case *Recv:
			fmt.Fprintf(b, "%srecv %s <- %s%s\n", ind, x.Name, x.Src, tagSuffix(x.Tag))
		case *SendRecv:
			fmt.Fprintf(b, "%ssendrecv %s -> %s, %s <- %s%s\n", ind, x.Value, x.Dest, x.Name, x.Src, tagSuffix(x.Tag))
		case *Print:
			fmt.Fprintf(b, "%sprint %s\n", ind, x.Arg)
		case *Assume:
			fmt.Fprintf(b, "%sassume %s\n", ind, x.Cond)
		case *Assert:
			fmt.Fprintf(b, "%sassert %s\n", ind, x.Cond)
		case *Skip:
			fmt.Fprintf(b, "%sskip\n", ind)
		}
	}
}

func tagSuffix(tag string) string {
	if tag == "" {
		return ""
	}
	return " : " + tag
}
