// Package lexer converts MPL source text into a token stream.
//
// The scanner is a straightforward byte-at-a-time loop. Comments run from
// '#' or "//" to end of line. Both newlines and semicolons are insignificant
// (MPL statements are keyword-delimited), so the lexer drops all whitespace.
package lexer

import (
	"repro/internal/source"
	"repro/internal/token"
)

// Token is a lexed token with its kind, literal text and source span.
type Token struct {
	Kind token.Kind
	Lit  string
	Span source.Span
}

func (t Token) String() string {
	if t.Kind == token.Ident || t.Kind == token.Int || t.Kind == token.Illegal {
		return t.Kind.String() + "(" + t.Lit + ")"
	}
	return t.Kind.String()
}

// Lexer scans a single source file.
type Lexer struct {
	file  *source.File
	src   string
	pos   int // next byte to read
	diags *source.DiagList
}

// New returns a Lexer over the file, reporting errors to diags.
func New(file *source.File, diags *source.DiagList) *Lexer {
	return &Lexer{file: file, src: file.Content, diags: diags}
}

// ScanAll lexes the file and returns all tokens, ending with an EOF token.
func ScanAll(file *source.File, diags *source.DiagList) []Token {
	lx := New(file, diags)
	var toks []Token
	for {
		t := lx.Next()
		toks = append(toks, t)
		if t.Kind == token.EOF {
			return toks
		}
	}
}

func (l *Lexer) spanFrom(start int) source.Span {
	return source.Span{Start: l.file.PosFor(start), End: l.file.PosFor(l.pos)}
}

func (l *Lexer) peekAt(off int) byte {
	if l.pos+off < len(l.src) {
		return l.src[l.pos+off]
	}
	return 0
}

func isSpace(c byte) bool  { return c == ' ' || c == '\t' || c == '\r' || c == '\n' }
func isDigit(c byte) bool  { return '0' <= c && c <= '9' }
func isLetter(c byte) bool { return 'a' <= c && c <= 'z' || 'A' <= c && c <= 'Z' || c == '_' }

func (l *Lexer) skipSpaceAndComments() {
	for l.pos < len(l.src) {
		c := l.src[l.pos]
		switch {
		case isSpace(c):
			l.pos++
		case c == '#', c == '/' && l.peekAt(1) == '/':
			for l.pos < len(l.src) && l.src[l.pos] != '\n' {
				l.pos++
			}
		default:
			return
		}
	}
}

// Next returns the next token, producing EOF forever once input is consumed.
func (l *Lexer) Next() Token {
	l.skipSpaceAndComments()
	start := l.pos
	if l.pos >= len(l.src) {
		return Token{Kind: token.EOF, Span: l.spanFrom(start)}
	}
	c := l.src[l.pos]
	switch {
	case isDigit(c):
		for l.pos < len(l.src) && isDigit(l.src[l.pos]) {
			l.pos++
		}
		return Token{Kind: token.Int, Lit: l.src[start:l.pos], Span: l.spanFrom(start)}
	case isLetter(c):
		for l.pos < len(l.src) && (isLetter(l.src[l.pos]) || isDigit(l.src[l.pos])) {
			l.pos++
		}
		lit := l.src[start:l.pos]
		return Token{Kind: token.Lookup(lit), Lit: lit, Span: l.spanFrom(start)}
	}
	// Operators.
	two := func(k token.Kind) Token {
		l.pos += 2
		return Token{Kind: k, Lit: l.src[start:l.pos], Span: l.spanFrom(start)}
	}
	one := func(k token.Kind) Token {
		l.pos++
		return Token{Kind: k, Lit: l.src[start:l.pos], Span: l.spanFrom(start)}
	}
	switch c {
	case ':':
		if l.peekAt(1) == '=' {
			return two(token.Assign)
		}
		return one(token.Colon)
	case '-':
		if l.peekAt(1) == '>' {
			return two(token.Arrow)
		}
		return one(token.Minus)
	case '<':
		switch l.peekAt(1) {
		case '-':
			return two(token.LArrow)
		case '=':
			return two(token.Le)
		}
		return one(token.Lt)
	case '>':
		if l.peekAt(1) == '=' {
			return two(token.Ge)
		}
		return one(token.Gt)
	case '=':
		if l.peekAt(1) == '=' {
			return two(token.Eq)
		}
		l.pos++
		l.diags.Errorf(l.spanFrom(start), "unexpected '='; use ':=' for assignment or '==' for comparison")
		return Token{Kind: token.Illegal, Lit: "=", Span: l.spanFrom(start)}
	case '!':
		if l.peekAt(1) == '=' {
			return two(token.Neq)
		}
		return one(token.Not)
	case '&':
		if l.peekAt(1) == '&' {
			return two(token.AndAnd)
		}
	case '|':
		if l.peekAt(1) == '|' {
			return two(token.OrOr)
		}
	case '+':
		return one(token.Plus)
	case '*':
		return one(token.Star)
	case '/':
		return one(token.Slash)
	case '%':
		return one(token.Percent)
	case '(':
		return one(token.LParen)
	case ')':
		return one(token.RParen)
	case ',':
		return one(token.Comma)
	case ';':
		return one(token.Semicolon)
	}
	l.pos++
	l.diags.Errorf(l.spanFrom(start), "unexpected character %q", string(c))
	return Token{Kind: token.Illegal, Lit: l.src[start:l.pos], Span: l.spanFrom(start)}
}
