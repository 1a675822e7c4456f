package sem

import (
	"reflect"
	"strconv"
	"strings"
	"testing"

	"repro/internal/parser"
)

func check(t *testing.T, src string) (*Info, error) {
	t.Helper()
	prog, err := parser.Parse("t.mpl", src)
	if err != nil {
		t.Fatalf("parse error: %v", err)
	}
	return Check(prog)
}

func TestVarsCollected(t *testing.T) {
	info, err := check(t, "var a\nb := 1\nrecv c <- 0\nfor d := 1 to 3 do skip end")
	if err != nil {
		t.Fatal(err)
	}
	want := []string{"a", "b", "c", "d"}
	if !reflect.DeepEqual(info.Vars, want) {
		t.Errorf("Vars = %v, want %v", info.Vars, want)
	}
}

func TestBuiltinsNotAssignable(t *testing.T) {
	for _, src := range []string{"id := 1", "np := 4", "recv id <- 0", "var np", "for id := 1 to 3 do skip end"} {
		if _, err := check(t, src); err == nil {
			t.Errorf("Check(%q) succeeded, want error", src)
		}
	}
}

func TestTypeErrors(t *testing.T) {
	bad := []string{
		"x := 1 < 2",         // bool assigned to int var
		"if 5 then skip end", // int condition
		"print 1 == 2",       // bool print
		"x := (1 < 2) + 3",   // bool in arithmetic
		"if !(x + 1) then skip end",
		"while x do skip end",
		"assume x + 1",
		"send 1 < 2 -> 0",
	}
	for _, src := range bad {
		if _, err := check(t, src); err == nil {
			t.Errorf("Check(%q) succeeded, want type error", src)
		}
	}
}

func TestWellTyped(t *testing.T) {
	good := []string{
		"x := 1 + 2 * np",
		"if id == 0 && np > 1 then send x -> 1 else recv x <- 0 end",
		"assume np >= 2 && np % 2 == 0",
		"assert x == 5 || x > 10",
		"if true then skip end",
	}
	for _, src := range good {
		if _, err := check(t, src); err != nil {
			t.Errorf("Check(%q) error: %v", src, err)
		}
	}
}

func TestUsesID(t *testing.T) {
	info, err := check(t, "x := 1")
	if err != nil {
		t.Fatal(err)
	}
	if info.UsesID {
		t.Error("UsesID = true for id-free program")
	}
	info, err = check(t, "if id == 0 then skip end")
	if err != nil {
		t.Fatal(err)
	}
	if !info.UsesID {
		t.Error("UsesID = false for id-using program")
	}
}

func TestTagsAndCommCount(t *testing.T) {
	info, err := check(t, `
send x -> 1 : halo
recv y <- 0 : halo
send x -> 2 : boundary
sendrecv x -> 1, y <- 1`)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(info.Tags, []string{"boundary", "halo"}) {
		t.Errorf("Tags = %v", info.Tags)
	}
	if info.CommCount != 4 {
		t.Errorf("CommCount = %d, want 4", info.CommCount)
	}
}

func TestReadingUndeclaredIsAllowed(t *testing.T) {
	// MPL mirrors the paper's untyped pseudocode: variables default to 0.
	if _, err := check(t, "x := undeclared + 1"); err != nil {
		t.Errorf("reading undeclared variable should be allowed: %v", err)
	}
}

// reservedRepro is a program whose never-written symbol q1 bounds the
// receivers; spelled like a helper variable, the symbol would be taken
// for one by the analysis.
const reservedRepro = `assume np >= 4
assume q1 >= 1
assume q1 <= np - 2
if id == 0 then
  x := 42
  for i := 1 to q1 do
    send x -> i
  end
elif id <= q1 + 1 then
  recv y <- 0
end
`

// TestHelperNamesReserved checks that a never-written identifier of the
// helper form wp<n>, fz<n>, k<n> or f<n> is rejected at its first read,
// while a written one (assigned, received into or a for variable) and
// any other never-written name stay legal.
func TestHelperNamesReserved(t *testing.T) {
	if _, err := check(t, reservedRepro); err != nil {
		t.Fatalf("q1 rejected: %v", err)
	}
	for _, name := range []string{"k1", "f1", "k0", "wp3", "fz12"} {
		_, err := check(t, strings.ReplaceAll(reservedRepro, "q1", name))
		if err == nil || !strings.Contains(err.Error(), "2:8") || !strings.Contains(err.Error(), strconv.Quote(name)) {
			t.Errorf("%s: err = %v, want one diagnostic at its first read, 2:8", name, err)
		} else if n := strings.Count(err.Error(), "reserved"); n != 1 {
			t.Errorf("%s: %d diagnostics, want 1: %v", name, n, err)
		}
	}
	for _, src := range []string{
		"for k1 := 1 to 3 do x := k1 end",
		"x := f0 + 1\nf0 := 2",
		"recv wp1 <- 0\nprint wp1",
		"sendrecv 1 -> 0, fz2 <- 0\nprint fz2",
		"x := kk1 + k + f1x + wp",
	} {
		if _, err := check(t, src); err != nil {
			t.Errorf("Check(%q) = %v, want ok", src, err)
		}
	}
	if _, err := check(t, "var k1\nprint k1"); err == nil {
		t.Error("a declared but never written k1 was accepted")
	}
}
