// Package parser builds MPL abstract syntax trees from source text.
//
// The grammar (EBNF, ignoring whitespace and comments):
//
//	program  = { stmt } .
//	stmt     = "var" ident { "," ident }
//	         | ident ":=" expr
//	         | "if" expr "then" block { "elif" expr "then" block } [ "else" block ] "end"
//	         | "while" expr "do" block "end"
//	         | "for" ident ":=" expr "to" expr "do" block "end"
//	         | "send" expr "->" expr [ ":" ident ]
//	         | "recv" ident "<-" expr [ ":" ident ]
//	         | "sendrecv" expr "->" expr "," ident "<-" expr [ ":" ident ]
//	         | "print" expr | "assume" expr | "assert" expr | "skip" | ";" .
//	expr     = or ;  or = and { "||" and } ;  and = cmp { "&&" cmp } .
//	cmp      = sum [ ("=="|"!="|"<"|"<="|">"|">=") sum ] .
//	sum      = term { ("+"|"-") term } ;  term = unary { ("*"|"/"|"%") unary } .
//	unary    = [ "-" | "!" ] primary ;  primary = int | "true" | "false" | ident | "(" expr ")" .
package parser

import (
	"repro/internal/ast"
	"repro/internal/lexer"
	"repro/internal/source"
	"repro/internal/token"
)

// Parse parses src (named name in diagnostics) into a Program. The returned
// error summarizes all lexical and syntactic diagnostics, if any.
func Parse(name, src string) (*ast.Program, error) {
	file := source.NewFile(name, src)
	var diags source.DiagList
	toks := lexer.ScanAll(file, &diags)
	p := &parser{toks: toks, diags: &diags}
	stmts := p.parseBlock(token.EOF)
	prog := &ast.Program{Stmts: stmts, File: file}
	return prog, diags.Err()
}

// MustParse is Parse for known-good embedded programs; it panics on error.
func MustParse(name, src string) *ast.Program {
	prog, err := Parse(name, src)
	if err != nil {
		panic("parser.MustParse(" + name + "): " + err.Error())
	}
	return prog
}

type parser struct {
	toks  []lexer.Token
	pos   int
	prev  lexer.Token // last consumed token, for full-extent statement spans
	diags *source.DiagList
}

func (p *parser) cur() lexer.Token { return p.toks[p.pos] }

func (p *parser) advance() lexer.Token {
	t := p.toks[p.pos]
	if p.pos < len(p.toks)-1 {
		p.pos++
	}
	p.prev = t
	return t
}

// spanTo extends a span from the given start to the end of the last consumed
// token, so statements and operator expressions cover their full source
// extent (diagnostics underline the whole construct, not just its keyword).
func (p *parser) spanTo(start source.Span) source.Span {
	return joinSpans(start, p.prev.Span)
}

// joinSpans covers everything from a's start to b's end.
func joinSpans(a, b source.Span) source.Span {
	if !a.IsValid() {
		return b
	}
	if !b.IsValid() || b.End.Before(a.End) {
		return a
	}
	return source.Span{Start: a.Start, End: b.End}
}

func (p *parser) at(k token.Kind) bool { return p.cur().Kind == k }

func (p *parser) accept(k token.Kind) bool {
	if p.at(k) {
		p.advance()
		return true
	}
	return false
}

func (p *parser) expect(k token.Kind) lexer.Token {
	if p.at(k) {
		return p.advance()
	}
	p.diags.Errorf(p.cur().Span, "expected %s, found %s", k, p.cur())
	return lexer.Token{Kind: k, Span: p.cur().Span}
}

// blockEnders lists tokens that terminate a statement block.
func isBlockEnd(k token.Kind) bool {
	switch k {
	case token.EOF, token.KwEnd, token.KwElse, token.KwElif:
		return true
	}
	return false
}

func (p *parser) parseBlock(until token.Kind) []ast.Stmt {
	var stmts []ast.Stmt
	for !p.at(until) && !isBlockEnd(p.cur().Kind) {
		before := p.pos
		s := p.parseStmt()
		if s != nil {
			stmts = append(stmts, s)
		}
		if p.pos == before {
			// Error recovery: ensure forward progress.
			p.advance()
		}
	}
	return stmts
}

func (p *parser) parseStmt() ast.Stmt {
	t := p.cur()
	switch t.Kind {
	case token.Semicolon:
		p.advance()
		return nil
	case token.KwSkip:
		p.advance()
		return &ast.Skip{Sp: t.Span}
	case token.KwVar:
		return p.parseVarDecl()
	case token.Ident:
		return p.parseAssign()
	case token.KwIf:
		return p.parseIf()
	case token.KwWhile:
		return p.parseWhile()
	case token.KwFor:
		return p.parseFor()
	case token.KwSend:
		return p.parseSend()
	case token.KwRecv:
		return p.parseRecv()
	case token.KwSendrecv:
		return p.parseSendRecv()
	case token.KwPrint:
		p.advance()
		return &ast.Print{Arg: p.parseExpr(), Sp: p.spanTo(t.Span)}
	case token.KwAssume:
		p.advance()
		return &ast.Assume{Cond: p.parseExpr(), Sp: p.spanTo(t.Span)}
	case token.KwAssert:
		p.advance()
		return &ast.Assert{Cond: p.parseExpr(), Sp: p.spanTo(t.Span)}
	}
	p.diags.Errorf(t.Span, "expected statement, found %s", t)
	return nil
}

func (p *parser) parseVarDecl() ast.Stmt {
	start := p.expect(token.KwVar)
	var names []string
	names = append(names, p.expect(token.Ident).Lit)
	for p.accept(token.Comma) {
		names = append(names, p.expect(token.Ident).Lit)
	}
	return &ast.VarDecl{Names: names, Sp: p.spanTo(start.Span)}
}

func (p *parser) parseAssign() ast.Stmt {
	name := p.expect(token.Ident)
	p.expect(token.Assign)
	rhs := p.parseExpr()
	return &ast.Assign{Name: name.Lit, Rhs: rhs, Sp: p.spanTo(name.Span)}
}

func (p *parser) parseIf() ast.Stmt {
	start := p.expect(token.KwIf)
	cond := p.parseExpr()
	p.expect(token.KwThen)
	then := p.parseBlock(token.KwEnd)
	var els []ast.Stmt
	switch {
	case p.at(token.KwElif):
		// Desugar "elif" into a nested if that shares the final "end".
		elifTok := p.cur()
		p.advance()
		inner := p.parseIfTail(elifTok.Span)
		els = []ast.Stmt{inner}
		return &ast.If{Cond: cond, Then: then, Else: els, Sp: p.spanTo(start.Span)}
	case p.accept(token.KwElse):
		els = p.parseBlock(token.KwEnd)
	}
	p.expect(token.KwEnd)
	return &ast.If{Cond: cond, Then: then, Else: els, Sp: p.spanTo(start.Span)}
}

// parseIfTail parses "expr then block (elif...|else...)? end" after an elif.
func (p *parser) parseIfTail(sp source.Span) ast.Stmt {
	cond := p.parseExpr()
	p.expect(token.KwThen)
	then := p.parseBlock(token.KwEnd)
	var els []ast.Stmt
	switch {
	case p.at(token.KwElif):
		elifTok := p.cur()
		p.advance()
		els = []ast.Stmt{p.parseIfTail(elifTok.Span)}
		return &ast.If{Cond: cond, Then: then, Else: els, Sp: p.spanTo(sp)}
	case p.accept(token.KwElse):
		els = p.parseBlock(token.KwEnd)
	}
	p.expect(token.KwEnd)
	return &ast.If{Cond: cond, Then: then, Else: els, Sp: p.spanTo(sp)}
}

func (p *parser) parseWhile() ast.Stmt {
	start := p.expect(token.KwWhile)
	cond := p.parseExpr()
	p.expect(token.KwDo)
	body := p.parseBlock(token.KwEnd)
	p.expect(token.KwEnd)
	return &ast.While{Cond: cond, Body: body, Sp: p.spanTo(start.Span)}
}

func (p *parser) parseFor() ast.Stmt {
	start := p.expect(token.KwFor)
	name := p.expect(token.Ident)
	p.expect(token.Assign)
	lo := p.parseExpr()
	p.expect(token.KwTo)
	hi := p.parseExpr()
	p.expect(token.KwDo)
	body := p.parseBlock(token.KwEnd)
	p.expect(token.KwEnd)
	return &ast.For{Var: name.Lit, Lo: lo, Hi: hi, Body: body, Sp: p.spanTo(start.Span)}
}

func (p *parser) parseTag() string {
	if p.accept(token.Colon) {
		return p.expect(token.Ident).Lit
	}
	return ""
}

func (p *parser) parseSend() ast.Stmt {
	start := p.expect(token.KwSend)
	val := p.parseExpr()
	p.expect(token.Arrow)
	dest := p.parseExpr()
	return &ast.Send{Value: val, Dest: dest, Tag: p.parseTag(), Sp: p.spanTo(start.Span)}
}

func (p *parser) parseRecv() ast.Stmt {
	start := p.expect(token.KwRecv)
	name := p.expect(token.Ident)
	p.expect(token.LArrow)
	src := p.parseExpr()
	return &ast.Recv{Name: name.Lit, Src: src, Tag: p.parseTag(), Sp: p.spanTo(start.Span)}
}

func (p *parser) parseSendRecv() ast.Stmt {
	start := p.expect(token.KwSendrecv)
	val := p.parseExpr()
	p.expect(token.Arrow)
	dest := p.parseExpr()
	p.expect(token.Comma)
	name := p.expect(token.Ident)
	p.expect(token.LArrow)
	src := p.parseExpr()
	return &ast.SendRecv{Value: val, Dest: dest, Name: name.Lit, Src: src, Tag: p.parseTag(), Sp: p.spanTo(start.Span)}
}

// ---------------------------------------------------------------------------
// Expressions (precedence climbing by explicit levels)

func (p *parser) parseExpr() ast.Expr { return p.parseOr() }

func (p *parser) parseOr() ast.Expr {
	l := p.parseAnd()
	for p.at(token.OrOr) {
		p.advance()
		r := p.parseAnd()
		l = &ast.Binary{Op: ast.LOr, L: l, R: r, Sp: joinSpans(l.Span(), r.Span())}
	}
	return l
}

func (p *parser) parseAnd() ast.Expr {
	l := p.parseCmp()
	for p.at(token.AndAnd) {
		p.advance()
		r := p.parseCmp()
		l = &ast.Binary{Op: ast.LAnd, L: l, R: r, Sp: joinSpans(l.Span(), r.Span())}
	}
	return l
}

var cmpOps = map[token.Kind]ast.BinOp{
	token.Eq:  ast.Eq,
	token.Neq: ast.Neq,
	token.Lt:  ast.Lt,
	token.Le:  ast.Le,
	token.Gt:  ast.Gt,
	token.Ge:  ast.Ge,
}

func (p *parser) parseCmp() ast.Expr {
	l := p.parseSum()
	if op, ok := cmpOps[p.cur().Kind]; ok {
		p.advance()
		r := p.parseSum()
		return &ast.Binary{Op: op, L: l, R: r, Sp: joinSpans(l.Span(), r.Span())}
	}
	return l
}

func (p *parser) parseSum() ast.Expr {
	l := p.parseTerm()
	for p.at(token.Plus) || p.at(token.Minus) {
		t := p.advance()
		op := ast.Add
		if t.Kind == token.Minus {
			op = ast.Sub
		}
		r := p.parseTerm()
		l = &ast.Binary{Op: op, L: l, R: r, Sp: joinSpans(l.Span(), r.Span())}
	}
	return l
}

func (p *parser) parseTerm() ast.Expr {
	l := p.parseUnary()
	for p.at(token.Star) || p.at(token.Slash) || p.at(token.Percent) {
		t := p.advance()
		var op ast.BinOp
		switch t.Kind {
		case token.Star:
			op = ast.Mul
		case token.Slash:
			op = ast.Div
		default:
			op = ast.Mod
		}
		r := p.parseUnary()
		l = &ast.Binary{Op: op, L: l, R: r, Sp: joinSpans(l.Span(), r.Span())}
	}
	return l
}

func (p *parser) parseUnary() ast.Expr {
	switch p.cur().Kind {
	case token.Minus:
		t := p.advance()
		x := p.parseUnary()
		return &ast.Unary{Op: ast.Neg, X: x, Sp: joinSpans(t.Span, x.Span())}
	case token.Not:
		t := p.advance()
		x := p.parseUnary()
		return &ast.Unary{Op: ast.LNot, X: x, Sp: joinSpans(t.Span, x.Span())}
	}
	return p.parsePrimary()
}

func (p *parser) parsePrimary() ast.Expr {
	t := p.cur()
	switch t.Kind {
	case token.Int:
		p.advance()
		var v int64
		for _, c := range t.Lit {
			v = v*10 + int64(c-'0')
		}
		return &ast.IntLit{Value: v, Sp: t.Span}
	case token.KwTrue:
		p.advance()
		return &ast.BoolLit{Value: true, Sp: t.Span}
	case token.KwFalse:
		p.advance()
		return &ast.BoolLit{Value: false, Sp: t.Span}
	case token.Ident:
		p.advance()
		return &ast.Ident{Name: t.Lit, Sp: t.Span}
	case token.LParen:
		p.advance()
		e := p.parseExpr()
		p.expect(token.RParen)
		return e
	}
	p.diags.Errorf(t.Span, "expected expression, found %s", t)
	p.advance()
	return &ast.IntLit{Value: 0, Sp: t.Span}
}
