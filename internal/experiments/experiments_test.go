package experiments

import (
	"strings"
	"testing"
)

func TestAllExperimentsSucceed(t *testing.T) {
	ss, err := RunSampled(nil, 1, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(ss) != 13 {
		t.Fatalf("tables = %d, want 13", len(ss))
	}
	for _, s := range ss {
		tb := s.Table
		if len(tb.Rows) == 0 {
			t.Errorf("%s: empty table", tb.ID)
		}
		s := tb.String()
		if !strings.Contains(s, "paper") || !strings.Contains(s, "measured") {
			t.Errorf("%s: malformed rendering:\n%s", tb.ID, s)
		}
		// No row may report a failed reproduction.
		for _, r := range tb.Rows {
			if strings.HasPrefix(r.Measured, "NO") {
				t.Errorf("%s: row %q failed: %s", tb.ID, r.Name, r.Measured)
			}
		}
	}
}

// An unknown spec id is reported in argument order with the known ids
// listed, however many unknown ids there are.
func TestUnknownSpecErrorDeterministic(t *testing.T) {
	for i := 0; i < 20; i++ {
		_, err := RunSampled([]string{"fig2", "nopeA", "nopeB", "nopeC"}, 1, 1)
		if err == nil {
			t.Fatal("unknown spec ids accepted")
		}
		want := `unknown experiment "nopeA" (have ` + strings.Join(SpecIDs(), ", ") + ")"
		if err.Error() != want {
			t.Fatalf("error = %q, want %q", err, want)
		}
	}
}
