package experiments

import (
	"strings"
	"testing"
)

func TestAllExperimentsSucceed(t *testing.T) {
	tables, err := All()
	if err != nil {
		t.Fatal(err)
	}
	if len(tables) != 13 {
		t.Fatalf("tables = %d, want 13", len(tables))
	}
	for _, tb := range tables {
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
