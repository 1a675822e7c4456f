// Package token defines the lexical token kinds of MPL, the small
// message-passing language analyzed by this library. MPL mirrors the
// pseudocode used throughout the CGO 2009 paper: integer variables, the
// builtins np and id, structured control flow, and send/receive statements
// whose partner is named by an arithmetic expression.
package token

import "fmt"

// Kind identifies a lexical token class.
type Kind int

// Token kinds.
const (
	Illegal Kind = iota
	EOF

	// Literals and identifiers.
	Ident // x, nrows
	Int   // 42

	// Operators and punctuation.
	Assign    // :=
	Arrow     // ->
	LArrow    // <-
	Plus      // +
	Minus     // -
	Star      // *
	Slash     // /
	Percent   // %
	Eq        // ==
	Neq       // !=
	Lt        // <
	Le        // <=
	Gt        // >
	Ge        // >=
	AndAnd    // &&
	OrOr      // ||
	Not       // !
	LParen    // (
	RParen    // )
	Comma     // ,
	Semicolon // ;
	Colon     // :

	// Keywords.
	KwVar
	KwIf
	KwThen
	KwElif
	KwElse
	KwEnd
	KwWhile
	KwDo
	KwFor
	KwTo
	KwSend
	KwRecv
	KwSendrecv
	KwPrint
	KwAssume
	KwAssert
	KwSkip
	KwTrue
	KwFalse

	numKinds
)

var kindNames = [...]string{
	Illegal:    "illegal",
	EOF:        "eof",
	Ident:      "ident",
	Int:        "int",
	Assign:     ":=",
	Arrow:      "->",
	LArrow:     "<-",
	Plus:       "+",
	Minus:      "-",
	Star:       "*",
	Slash:      "/",
	Percent:    "%",
	Eq:         "==",
	Neq:        "!=",
	Lt:         "<",
	Le:         "<=",
	Gt:         ">",
	Ge:         ">=",
	AndAnd:     "&&",
	OrOr:       "||",
	Not:        "!",
	LParen:     "(",
	RParen:     ")",
	Comma:      ",",
	Semicolon:  ";",
	Colon:      ":",
	KwVar:      "var",
	KwIf:       "if",
	KwThen:     "then",
	KwElif:     "elif",
	KwElse:     "else",
	KwEnd:      "end",
	KwWhile:    "while",
	KwDo:       "do",
	KwFor:      "for",
	KwTo:       "to",
	KwSend:     "send",
	KwRecv:     "recv",
	KwSendrecv: "sendrecv",
	KwPrint:    "print",
	KwAssume:   "assume",
	KwAssert:   "assert",
	KwSkip:     "skip",
	KwTrue:     "true",
	KwFalse:    "false",
}

func (k Kind) String() string {
	if k >= 0 && int(k) < len(kindNames) && kindNames[k] != "" {
		return kindNames[k]
	}
	return fmt.Sprintf("kind(%d)", int(k))
}

// keywords maps identifier spellings to keyword kinds.
var keywords = map[string]Kind{
	"var":      KwVar,
	"if":       KwIf,
	"then":     KwThen,
	"elif":     KwElif,
	"else":     KwElse,
	"end":      KwEnd,
	"while":    KwWhile,
	"do":       KwDo,
	"for":      KwFor,
	"to":       KwTo,
	"send":     KwSend,
	"recv":     KwRecv,
	"receive":  KwRecv, // accepted alias, matching the paper's pseudocode
	"sendrecv": KwSendrecv,
	"print":    KwPrint,
	"assume":   KwAssume,
	"assert":   KwAssert,
	"skip":     KwSkip,
	"true":     KwTrue,
	"false":    KwFalse,
}

// Lookup returns the keyword kind for an identifier spelling, or Ident.
func Lookup(name string) Kind {
	if k, ok := keywords[name]; ok {
		return k
	}
	return Ident
}
