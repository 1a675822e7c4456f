package token

import "testing"

func TestLookup(t *testing.T) {
	cases := map[string]Kind{
		"if":       KwIf,
		"recv":     KwRecv,
		"receive":  KwRecv,
		"sendrecv": KwSendrecv,
		"assume":   KwAssume,
		"true":     KwTrue,
		"foo":      Ident,
		"Send":     Ident, // keywords are case-sensitive
	}
	for lit, want := range cases {
		if got := Lookup(lit); got != want {
			t.Errorf("Lookup(%q) = %v, want %v", lit, got, want)
		}
	}
}

// TestIsKeyword checks that Lookup recognizes every keyword kind by its
// spelling and no other kind's spelling as a keyword.
func TestIsKeyword(t *testing.T) {
	for k := KwVar; k < numKinds; k++ {
		if got := Lookup(k.String()); got != k {
			t.Errorf("Lookup(%q) = %v, want keyword %v", k.String(), got, k)
		}
	}
	for _, k := range []Kind{Ident, Int, Plus, EOF, Illegal} {
		if got := Lookup(k.String()); got != Ident {
			t.Errorf("%v wrongly a keyword: Lookup(%q) = %v", k, k.String(), got)
		}
	}
}

func TestStrings(t *testing.T) {
	if Arrow.String() != "->" || LArrow.String() != "<-" || Assign.String() != ":=" {
		t.Error("operator strings wrong")
	}
	if Kind(999).String() == "" {
		t.Error("out-of-range kind has empty string")
	}
}
