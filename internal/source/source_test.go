package source

import "testing"

func TestPosForLinesAndCols(t *testing.T) {
	f := NewFile("t.mpl", "ab\ncd\n\nxyz")
	cases := []struct {
		off  int
		line int
		col  int
	}{
		{0, 1, 1}, {1, 1, 2}, {2, 1, 3}, // '\n' belongs to line 1
		{3, 2, 1}, {5, 2, 3},
		{6, 3, 1},
		{7, 4, 1}, {9, 4, 3}, {10, 4, 4},
	}
	for _, c := range cases {
		p := f.PosFor(c.off)
		if p.Line != c.line || p.Col != c.col {
			t.Errorf("PosFor(%d) = %v, want %d:%d", c.off, p, c.line, c.col)
		}
	}
}

func TestPosForOutOfRange(t *testing.T) {
	f := NewFile("t.mpl", "ab")
	if p := f.PosFor(-1); p.IsValid() {
		t.Errorf("PosFor(-1) = %v, want invalid", p)
	}
	if p := f.PosFor(100); p.Line != 1 || p.Col != 3 {
		t.Errorf("PosFor(100) = %v, want clamped 1:3", p)
	}
}

func TestLine(t *testing.T) {
	f := NewFile("t.mpl", "first\nsecond\nthird")
	if got := f.Line(2); got != "second" {
		t.Errorf("Line(2) = %q, want %q", got, "second")
	}
	if got := f.Line(3); got != "third" {
		t.Errorf("Line(3) = %q, want %q", got, "third")
	}
	if got := f.Line(0); got != "" {
		t.Errorf("Line(0) = %q, want empty", got)
	}
	if got := f.Line(4); got != "" {
		t.Errorf("Line(4) = %q, want empty", got)
	}
	if f.NumLines() != 3 {
		t.Errorf("NumLines = %d, want 3", f.NumLines())
	}
}

func TestPosBefore(t *testing.T) {
	a := Pos{1, 5}
	b := Pos{2, 1}
	c := Pos{1, 6}
	if !a.Before(b) || !a.Before(c) || b.Before(a) {
		t.Errorf("Before ordering wrong: a=%v b=%v c=%v", a, b, c)
	}
}

func TestDiagList(t *testing.T) {
	var l DiagList
	sp := func(line int) Span { return Span{Start: Pos{line, 1}} }
	l.Add(Diagnostic{Severity: Warning, Span: sp(3), Message: "later warning"})
	l.Errorf(sp(1), "first error")
	l.Add(Diagnostic{Severity: Note, Span: sp(2), Message: "a note"})

	if !l.HasErrors() {
		t.Fatal("HasErrors = false, want true")
	}
	all := l.All()
	if len(all) != 3 {
		t.Fatalf("len(All) = %d, want 3", len(all))
	}
	if all[0].Message != "first error" || all[2].Message != "later warning" {
		t.Errorf("All not sorted by position: %v", all)
	}
	if err := l.Err(); err == nil {
		t.Error("Err = nil, want error")
	}

	var clean DiagList
	if err := clean.Err(); err != nil {
		t.Errorf("empty DiagList Err = %v, want nil", err)
	}
}

func TestSeverityAndSpanStrings(t *testing.T) {
	if Error.String() != "error" || Warning.String() != "warning" || Note.String() != "note" {
		t.Error("severity strings wrong")
	}
	s := Span{Start: Pos{1, 2}, End: Pos{1, 5}}
	if s.String() != "1:2-1:5" {
		t.Errorf("span string = %q", s.String())
	}
	var zero Span
	if zero.String() != "-" {
		t.Errorf("zero span string = %q", zero.String())
	}
}
