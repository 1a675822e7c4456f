// Delta-debugging shrinker: given a program with a divergence finding,
// minimize it while preserving the finding's class. The shrinker works on
// the AST in two alternating passes until a fixpoint:
//
//   - statement-level: remove contiguous statement chunks (halving chunk
//     sizes, classic ddmin) from every block, and hoist control-flow
//     bodies over their headers (if/while/for → body);
//   - expression-level: replace expressions with strictly smaller ones
//     (a subexpression, or the literals 0 and 1).
//
// Every candidate is re-checked with the differential harness and kept
// only when the triage class is unchanged, so a minimized soundness
// repro still demonstrates a soundness bug, not some easier-to-trigger
// precision loss. Semantic breakage self-rejects: deleting a VarDecl
// whose variable is still used flips the class to ClassError and the
// candidate is discarded.
package differ

import (
	"fmt"

	"repro/internal/ast"
	"repro/internal/parser"
)

// ShrinkOptions configures a minimization run.
type ShrinkOptions struct {
	// Differ configures the class-preservation oracle.
	Differ Options
	// MaxChecks caps the number of differential checks spent (0 = 800).
	// When the budget runs out the best program found so far is returned.
	MaxChecks int
	// Keep, when non-nil, replaces the default acceptance predicate
	// (class equality). Class-preserving ddmin can "slip" onto an easier
	// finding of the same class; a Keep that also pins part of the
	// finding detail keeps the minimized repro demonstrating the same
	// bug shape. Keep must accept the original program's finding.
	Keep func(*Finding) bool
}

// ShrinkResult is the outcome of a minimization.
type ShrinkResult struct {
	// Src is the minimized program.
	Src string
	// Finding is the (re-checked) finding of the minimized program; its
	// Class equals the original program's class.
	Finding *Finding
	// Stmts counts statements in the minimized program.
	Stmts int
	// Checks is how many differential checks the minimization spent.
	Checks int
}

// CountStmts counts every statement in src, at any nesting depth.
// It returns 0 for unparsable input.
func CountStmts(src string) int {
	prog, err := parser.Parse("count.mpl", src)
	if err != nil {
		return 0
	}
	n := 0
	ast.WalkStmts(prog.Stmts, func(ast.Stmt) bool { n++; return true })
	return n
}

// Shrink minimizes src while preserving its triage class. It returns an
// error when src has no finding to preserve (ClassOK / ClassSkipped) or
// does not parse.
func Shrink(src string, o ShrinkOptions) (*ShrinkResult, error) {
	orig := Check(src, o.Differ)
	if orig.Class <= ClassSkipped {
		return nil, fmt.Errorf("differ: nothing to shrink: program triages %s", orig.Class)
	}
	keep := o.Keep
	if keep == nil {
		class := orig.Class
		keep = func(f *Finding) bool { return f.Class == class }
	} else if !keep(orig) {
		return nil, fmt.Errorf("differ: Keep rejects the original finding %s", orig)
	}
	s := &shrinker{opts: o.Differ, keep: keep, max: o.MaxChecks}
	if s.max <= 0 {
		s.max = 800
	}
	prog, err := parser.Parse("shrink.mpl", src)
	if err != nil {
		return nil, fmt.Errorf("differ: shrink parse: %v", err)
	}
	for {
		changed := s.stmtPass(prog)
		changed = s.exprPass(prog) || changed
		if !changed || s.checks >= s.max {
			break
		}
	}
	out := ast.Format(prog.Stmts)
	return &ShrinkResult{
		Src:     out,
		Finding: Check(out, o.Differ),
		Stmts:   CountStmts(out),
		Checks:  s.checks,
	}, nil
}

type shrinker struct {
	opts   Options
	keep   func(*Finding) bool
	checks int
	max    int
}

// keeps reports whether the candidate program still satisfies the
// acceptance predicate (and burns one check from the budget).
func (s *shrinker) keeps(prog *ast.Program) bool {
	if s.checks >= s.max {
		return false
	}
	s.checks++
	return s.keep(Check(ast.Format(prog.Stmts), s.opts))
}

// blocks returns a pointer to every statement list in the program, outer
// blocks first, recomputed fresh each pass because accepted mutations
// replace slice headers.
func blocks(prog *ast.Program) []*[]ast.Stmt {
	out := []*[]ast.Stmt{&prog.Stmts}
	for i := 0; i < len(out); i++ {
		for _, st := range *out[i] {
			switch x := st.(type) {
			case *ast.If:
				out = append(out, &x.Then)
				if x.Else != nil {
					out = append(out, &x.Else)
				}
			case *ast.While:
				out = append(out, &x.Body)
			case *ast.For:
				out = append(out, &x.Body)
			}
		}
	}
	return out
}

// stmtPass runs chunked removal and body-hoisting over every block until
// neither makes progress. Returns whether anything was removed.
func (s *shrinker) stmtPass(prog *ast.Program) bool {
	any := false
	for {
		changed := false
		for _, blk := range blocks(prog) {
			// ddmin-style chunk removal: large chunks first so one check
			// can delete a whole irrelevant region.
			for size := len(*blk); size >= 1; size /= 2 {
				for i := 0; i+size <= len(*blk); {
					old := *blk
					cand := make([]ast.Stmt, 0, len(old)-size)
					cand = append(cand, old[:i]...)
					cand = append(cand, old[i+size:]...)
					*blk = cand
					if s.keeps(prog) {
						changed, any = true, true
						// Stay at i: the next chunk shifted into place.
					} else {
						*blk = old
						i++
					}
					if s.checks >= s.max {
						return any
					}
				}
			}
			// Hoisting: replace a control statement with its body. This
			// both deletes the header and un-nests the interesting part so
			// later removal rounds see it at top level.
			for i := 0; i < len(*blk); i++ {
				var body []ast.Stmt
				switch x := (*blk)[i].(type) {
				case *ast.If:
					body = x.Then
				case *ast.While:
					body = x.Body
				case *ast.For:
					body = x.Body
				default:
					continue
				}
				old := *blk
				cand := make([]ast.Stmt, 0, len(old)-1+len(body))
				cand = append(cand, old[:i]...)
				cand = append(cand, body...)
				cand = append(cand, old[i+1:]...)
				*blk = cand
				if s.keeps(prog) {
					changed, any = true, true
				} else {
					*blk = old
				}
				if s.checks >= s.max {
					return any
				}
			}
		}
		if !changed {
			return any
		}
	}
}

// exprSite is one mutable expression slot in the AST.
type exprSite struct {
	get func() ast.Expr
	set func(ast.Expr)
}

// exprSites enumerates every expression slot in the program.
func exprSites(prog *ast.Program) []exprSite {
	var out []exprSite
	slot := func(get func() ast.Expr, set func(ast.Expr)) {
		out = append(out, exprSite{get, set})
	}
	ast.WalkStmts(prog.Stmts, func(st ast.Stmt) bool {
		switch x := st.(type) {
		case *ast.Assign:
			slot(func() ast.Expr { return x.Rhs }, func(e ast.Expr) { x.Rhs = e })
		case *ast.If:
			slot(func() ast.Expr { return x.Cond }, func(e ast.Expr) { x.Cond = e })
		case *ast.While:
			slot(func() ast.Expr { return x.Cond }, func(e ast.Expr) { x.Cond = e })
		case *ast.For:
			slot(func() ast.Expr { return x.Lo }, func(e ast.Expr) { x.Lo = e })
			slot(func() ast.Expr { return x.Hi }, func(e ast.Expr) { x.Hi = e })
		case *ast.Send:
			slot(func() ast.Expr { return x.Value }, func(e ast.Expr) { x.Value = e })
			slot(func() ast.Expr { return x.Dest }, func(e ast.Expr) { x.Dest = e })
		case *ast.Recv:
			slot(func() ast.Expr { return x.Src }, func(e ast.Expr) { x.Src = e })
		case *ast.SendRecv:
			slot(func() ast.Expr { return x.Value }, func(e ast.Expr) { x.Value = e })
			slot(func() ast.Expr { return x.Dest }, func(e ast.Expr) { x.Dest = e })
			slot(func() ast.Expr { return x.Src }, func(e ast.Expr) { x.Src = e })
		case *ast.Print:
			slot(func() ast.Expr { return x.Arg }, func(e ast.Expr) { x.Arg = e })
		case *ast.Assume:
			slot(func() ast.Expr { return x.Cond }, func(e ast.Expr) { x.Cond = e })
		case *ast.Assert:
			slot(func() ast.Expr { return x.Cond }, func(e ast.Expr) { x.Cond = e })
		}
		return true
	})
	return out
}

// exprSize counts nodes, the strictly-decreasing measure of the
// expression pass.
func exprSize(e ast.Expr) int {
	n := 0
	ast.Walk(e, func(ast.Expr) bool { n++; return true })
	return n
}

// exprPass tries to replace every expression with a strictly smaller
// one: a direct subexpression, then the literals 0 and 1. Returns
// whether anything shrank.
func (s *shrinker) exprPass(prog *ast.Program) bool {
	any := false
	for {
		changed := false
		for _, site := range exprSites(prog) {
			cur := site.get()
			var cands []ast.Expr
			switch x := cur.(type) {
			case *ast.Binary:
				cands = append(cands, x.L, x.R)
			case *ast.Unary:
				cands = append(cands, x.X)
			}
			if exprSize(cur) > 1 {
				cands = append(cands,
					&ast.IntLit{Value: 0, Sp: cur.Span()},
					&ast.IntLit{Value: 1, Sp: cur.Span()})
			}
			for _, cand := range cands {
				if exprSize(cand) >= exprSize(cur) {
					continue
				}
				site.set(cand)
				if s.keeps(prog) {
					changed, any = true, true
					cur = cand
				} else {
					site.set(cur)
				}
				if s.checks >= s.max {
					return any
				}
			}
		}
		if !changed {
			return any
		}
	}
}
