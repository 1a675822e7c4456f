// Package sem implements semantic checking for MPL programs: typing of
// expressions (int vs bool), write-protection of the builtins id and np,
// and collection of program metadata (variables, message tags, whether the
// program reads id — i.e. whether processes can diverge at all).
package sem

import (
	"slices"
	"sort"

	"repro/internal/ast"
	"repro/internal/source"
)

// Builtin variable names of the execution model (Section III).
const (
	IDVar = "id" // this process's rank, in [0 .. np-1]
	NPVar = "np" // total number of processes
)

// Type is the type of an MPL expression.
type Type int

// MPL has just two expression types.
const (
	Int Type = iota
	Bool
	Invalid
)

func (t Type) String() string {
	switch t {
	case Int:
		return "int"
	case Bool:
		return "bool"
	}
	return "invalid"
}

// Info holds the results of checking a program.
type Info struct {
	// Vars is the sorted list of all integer variables assigned, declared or
	// received into anywhere in the program (excluding builtins).
	Vars []string
	// Tags is the sorted list of message tags appearing on communication
	// statements. The empty tag is not listed.
	Tags []string
	// UsesID reports whether any expression references the builtin id.
	UsesID bool
	// CommCount is the number of communication statements (send, recv,
	// sendrecv each count once).
	CommCount int
}

// IsHelperName reports whether name has the form ^(wp|fz|k|f)[0-9]+$ of
// the helper variables the analysis mints: widening parameters (wp<n>,
// canonically k<n>) and frozen-value twins (fz<n>, canonically f<n>). A
// program may use such a name only for a variable it writes, since the
// analysis keeps a never-written variable under its own name.
func IsHelperName(name string) bool {
	digits := 0 // where the digits start
	switch {
	case len(name) > 2 && (name[:2] == "wp" || name[:2] == "fz"):
		digits = 2
	case len(name) > 1 && (name[0] == 'k' || name[0] == 'f'):
		digits = 1
	default:
		return false
	}
	for i := digits; i < len(name); i++ {
		if name[i] < '0' || name[i] > '9' {
			return false
		}
	}
	return true
}

// Check validates the program and returns its Info. All problems found are
// reported together via the returned error.
func Check(prog *ast.Program) (*Info, error) {
	c := &checker{
		vars:    map[string]bool{},
		written: map[string]bool{},
		tags:    map[string]bool{},
	}
	c.checkStmts(prog.Stmts)
	for _, id := range c.helperReads {
		if !c.written[id.Name] {
			c.diags.Errorf(id.Sp, "%q is never written, and names of the form wp<n>, fz<n>, k<n> and f<n> are reserved for the analysis's helper variables", id.Name)
		}
	}
	info := &Info{UsesID: c.usesID, CommCount: c.commCount}
	for v := range c.vars {
		info.Vars = append(info.Vars, v)
	}
	sort.Strings(info.Vars)
	for t := range c.tags {
		info.Tags = append(info.Tags, t)
	}
	sort.Strings(info.Tags)
	return info, c.diags.Err()
}

type checker struct {
	diags source.DiagList
	vars  map[string]bool
	// written holds the variables defineVar marked written; helperReads
	// the first read of each helper-form name.
	written     map[string]bool
	helperReads []*ast.Ident
	tags        map[string]bool
	usesID      bool
	commCount   int
}

// defineVar records a declared variable, and written marks one the
// program assigns, receives into or uses as a for variable.
func (c *checker) defineVar(name string, sp source.Span, written bool) {
	if name == IDVar || name == NPVar {
		c.diags.Errorf(sp, "cannot assign to builtin %q", name)
		return
	}
	c.vars[name] = true
	c.written[name] = c.written[name] || written
}

func (c *checker) checkStmts(stmts []ast.Stmt) {
	for _, s := range stmts {
		c.checkStmt(s)
	}
}

func (c *checker) checkStmt(s ast.Stmt) {
	switch x := s.(type) {
	case *ast.VarDecl:
		for _, n := range x.Names {
			c.defineVar(n, x.Sp, false)
		}
	case *ast.Assign:
		c.defineVar(x.Name, x.Sp, true)
		c.wantType(x.Rhs, Int)
	case *ast.If:
		c.wantType(x.Cond, Bool)
		c.checkStmts(x.Then)
		c.checkStmts(x.Else)
	case *ast.While:
		c.wantType(x.Cond, Bool)
		c.checkStmts(x.Body)
	case *ast.For:
		c.defineVar(x.Var, x.Sp, true)
		c.wantType(x.Lo, Int)
		c.wantType(x.Hi, Int)
		c.checkStmts(x.Body)
	case *ast.Send:
		c.commCount++
		c.wantType(x.Value, Int)
		c.wantType(x.Dest, Int)
		c.noteTag(x.Tag)
	case *ast.Recv:
		c.commCount++
		c.defineVar(x.Name, x.Sp, true)
		c.wantType(x.Src, Int)
		c.noteTag(x.Tag)
	case *ast.SendRecv:
		c.commCount++
		c.defineVar(x.Name, x.Sp, true)
		c.wantType(x.Value, Int)
		c.wantType(x.Dest, Int)
		c.wantType(x.Src, Int)
		c.noteTag(x.Tag)
	case *ast.Print:
		c.wantType(x.Arg, Int)
	case *ast.Assume:
		c.wantType(x.Cond, Bool)
	case *ast.Assert:
		c.wantType(x.Cond, Bool)
	case *ast.Skip:
		// nothing to check
	}
}

func (c *checker) noteTag(tag string) {
	if tag != "" {
		c.tags[tag] = true
	}
}

// wantType type-checks e and reports an error unless it has type want.
func (c *checker) wantType(e ast.Expr, want Type) {
	got := c.typeOf(e)
	if got != Invalid && got != want {
		c.diags.Errorf(e.Span(), "expression %s has type %s, want %s", e, got, want)
	}
}

func (c *checker) typeOf(e ast.Expr) Type {
	switch x := e.(type) {
	case *ast.IntLit:
		return Int
	case *ast.BoolLit:
		return Bool
	case *ast.Ident:
		if x.Name == IDVar {
			c.usesID = true
		}
		if IsHelperName(x.Name) && !slices.ContainsFunc(c.helperReads, func(r *ast.Ident) bool { return r.Name == x.Name }) {
			c.helperReads = append(c.helperReads, x)
		}
		// All variables are integers; referencing an unassigned variable is
		// allowed (it reads 0), matching the paper's untyped pseudocode.
		return Int
	case *ast.Unary:
		switch x.Op {
		case ast.Neg:
			c.wantType(x.X, Int)
			return Int
		case ast.LNot:
			c.wantType(x.X, Bool)
			return Bool
		}
	case *ast.Binary:
		switch {
		case x.Op.IsArith():
			c.wantType(x.L, Int)
			c.wantType(x.R, Int)
			return Int
		case x.Op.IsComparison():
			c.wantType(x.L, Int)
			c.wantType(x.R, Int)
			return Bool
		case x.Op.IsLogical():
			c.wantType(x.L, Bool)
			c.wantType(x.R, Bool)
			return Bool
		}
	}
	return Invalid
}
