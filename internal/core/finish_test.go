package core

import (
	"strconv"
	"strings"
	"testing"
)

// TestTopsOrderIndependentOfTable: ⊤ states that share a reason come out of
// finish in one order, whichever order the configuration table yields them.
func TestTopsOrderIndependentOfTable(t *testing.T) {
	const why = "no send-receive match possible"
	tops := func() []*State {
		return []*State{
			{Top: true, TopWhy: why, TopKey: "n5|n9", TopNode: 9},
			{Top: true, TopWhy: why, TopKey: "n5|n9", TopNode: 5},
			{Top: true, TopWhy: why, TopKey: "n3|n9", TopNode: 9},
			{Top: true, TopWhy: "widening did not converge at n4", TopKey: "n4", TopNode: 4},
		}
	}
	const want = "no send-receive match possible n3|n9 9; no send-receive match possible n5|n9 5; " +
		"no send-receive match possible n5|n9 9; widening did not converge at n4 n4 4"
	for _, perm := range [][]int{{0, 1, 2, 3}, {3, 2, 1, 0}, {1, 3, 0, 2}, {2, 0, 3, 1}} {
		// finish walks the table in id order, so perm is the order the
		// table yields the ⊤ states in.
		e := newReplayEngine(Options{})
		sts := tops()
		for i, p := range perm {
			e.setEntry(uint64(i), &tableEntry{st: sts[p]})
		}
		e.finish()
		var got []string
		for _, st := range e.res.Tops {
			got = append(got, st.TopWhy+" "+st.TopKey+" "+strconv.Itoa(st.TopNode))
		}
		if g := strings.Join(got, "; "); g != want {
			t.Errorf("table order %v:\n got: %s\nwant: %s", perm, g, want)
		}
	}
}
