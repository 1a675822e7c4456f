// Package source provides source-file positions, spans and diagnostics
// shared by the MPL frontend (lexer, parser, semantic checker) and by the
// analysis passes that report findings back against program text.
package source

import (
	"fmt"
	"sort"
	"strings"
)

// Pos is a position within a source file, 1-based for both line and column.
// The zero Pos is "no position".
type Pos struct {
	Line int
	Col  int
}

// IsValid reports whether p refers to an actual location.
func (p Pos) IsValid() bool { return p.Line > 0 }

// Before reports whether p precedes q in the file.
func (p Pos) Before(q Pos) bool {
	if p.Line != q.Line {
		return p.Line < q.Line
	}
	return p.Col < q.Col
}

func (p Pos) String() string {
	if !p.IsValid() {
		return "-"
	}
	return fmt.Sprintf("%d:%d", p.Line, p.Col)
}

// Span is a half-open region of source text [Start, End).
type Span struct {
	Start Pos
	End   Pos
}

// IsValid reports whether the span has a valid start position.
func (s Span) IsValid() bool { return s.Start.IsValid() }

func (s Span) String() string {
	if !s.IsValid() {
		return "-"
	}
	if s.End.IsValid() && s.End != s.Start {
		return fmt.Sprintf("%s-%s", s.Start, s.End)
	}
	return s.Start.String()
}

// Severity classifies a diagnostic.
type Severity int

const (
	// Error marks a diagnostic that prevents further processing.
	Error Severity = iota
	// Warning marks a suspicious but non-fatal condition.
	Warning
	// Note attaches supplementary information to a prior diagnostic.
	Note
)

func (s Severity) String() string {
	switch s {
	case Error:
		return "error"
	case Warning:
		return "warning"
	case Note:
		return "note"
	}
	return fmt.Sprintf("severity(%d)", int(s))
}

// Diagnostic is a single message tied to a source location.
type Diagnostic struct {
	Severity Severity
	Span     Span
	Message  string
}

func (d Diagnostic) String() string {
	return fmt.Sprintf("%s: %s: %s", d.Span, d.Severity, d.Message)
}

// Error makes Diagnostic satisfy the error interface so a single diagnostic
// can be returned directly where an error is expected.
func (d Diagnostic) Error() string { return d.String() }

// DiagList collects diagnostics produced by a pass.
type DiagList struct {
	diags []Diagnostic
}

// Errorf appends an error diagnostic at span.
func (l *DiagList) Errorf(span Span, format string, args ...any) {
	l.diags = append(l.diags, Diagnostic{Error, span, fmt.Sprintf(format, args...)})
}

// Add appends an already-built diagnostic.
func (l *DiagList) Add(d Diagnostic) { l.diags = append(l.diags, d) }

// All returns the diagnostics in source order (stable for equal positions).
func (l *DiagList) All() []Diagnostic {
	out := make([]Diagnostic, len(l.diags))
	copy(out, l.diags)
	sort.SliceStable(out, func(i, j int) bool {
		return out[i].Span.Start.Before(out[j].Span.Start)
	})
	return out
}

// HasErrors reports whether any diagnostic has severity Error.
func (l *DiagList) HasErrors() bool {
	for _, d := range l.diags {
		if d.Severity == Error {
			return true
		}
	}
	return false
}

// Len returns the number of collected diagnostics.
func (l *DiagList) Len() int { return len(l.diags) }

// Err returns an error summarizing all error diagnostics, or nil when there
// are none. Useful for passes exposing an (T, error) API.
func (l *DiagList) Err() error {
	if !l.HasErrors() {
		return nil
	}
	var b strings.Builder
	n := 0
	for _, d := range l.All() {
		if d.Severity != Error {
			continue
		}
		if n > 0 {
			b.WriteString("; ")
		}
		b.WriteString(d.String())
		n++
	}
	return fmt.Errorf("%s", b.String())
}

// File pairs a file name with its content and precomputed line offsets so
// byte offsets can be translated to positions.
type File struct {
	Name    string
	Content string
	lines   []int // byte offset of the start of each line
}

// NewFile builds a File, indexing line starts.
func NewFile(name, content string) *File {
	f := &File{Name: name, Content: content}
	f.lines = append(f.lines, 0)
	for i := 0; i < len(content); i++ {
		if content[i] == '\n' {
			f.lines = append(f.lines, i+1)
		}
	}
	return f
}

// PosFor converts a byte offset into a Pos. Offsets past the end of the file
// map to a position just past the last byte.
func (f *File) PosFor(offset int) Pos {
	if offset < 0 {
		return Pos{}
	}
	if offset > len(f.Content) {
		offset = len(f.Content)
	}
	// Binary search for the line containing offset.
	lo, hi := 0, len(f.lines)-1
	for lo < hi {
		mid := (lo + hi + 1) / 2
		if f.lines[mid] <= offset {
			lo = mid
		} else {
			hi = mid - 1
		}
	}
	return Pos{Line: lo + 1, Col: offset - f.lines[lo] + 1}
}

// Line returns the text of the 1-based line number, without the newline.
func (f *File) Line(n int) string {
	if n < 1 || n > len(f.lines) {
		return ""
	}
	start := f.lines[n-1]
	end := len(f.Content)
	if n < len(f.lines) {
		end = f.lines[n] - 1
	}
	if end < start {
		end = start
	}
	return f.Content[start:end]
}

// NumLines returns the number of lines in the file.
func (f *File) NumLines() int { return len(f.lines) }
