package core_test

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"repro/internal/bench"
	"repro/internal/cfg"
	"repro/internal/core"
	"repro/internal/parser"
	"repro/internal/prof"
	"repro/internal/sem"
)

var updateProfile = flag.Bool("update-profile", false, "rewrite the per-node profile golden")

const profileGoldenPath = "../../testdata/golden/profile.txt"

// TestProfileGolden pins the deterministic per-node profile counters of
// every paper workload and every testdata program, with blocking and with
// non-blocking sends: steps, spawned successors, matcher calls and their
// plans, memo misses, prover searches, joins, widenings, widening failures
// with their bound pairs, give-ups and ⊤ demotions. Timings are left out.
//
// Under non-blocking sends stale_witness_paramnp.mpl is left out: before
// pending sends counted against MaxSets it ran until the step budget.
func TestProfileGolden(t *testing.T) {
	var paths []string
	for _, pat := range []string{"../../testdata/*.mpl", "../../testdata/*/*.mpl"} {
		m, err := filepath.Glob(pat)
		if err != nil {
			t.Fatal(err)
		}
		paths = append(paths, m...)
	}
	sort.Strings(paths)
	var b strings.Builder
	for _, nb := range []bool{false, true} {
		suffix := ""
		if nb {
			suffix = " (nonblocking)"
		}
		opts := core.Options{RecordCommBounds: true, NonBlockingSends: nb}
		for _, w := range bench.All() {
			_, g := w.Parse()
			_, rep := profiled(t, g, opts)
			writeProfileCounters(&b, w.Name+suffix, rep)
		}
		for _, path := range paths {
			name := strings.TrimPrefix(path, "../../")
			if nb && name == "testdata/diffbugs/stale_witness_paramnp.mpl" {
				continue
			}
			_, rep := profiled(t, loadGraph(t, path), opts)
			writeProfileCounters(&b, name+suffix, rep)
		}
	}
	got := b.String()
	if *updateProfile {
		if err := os.WriteFile(profileGoldenPath, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(profileGoldenPath)
	if err != nil {
		t.Fatalf("missing golden (run with -update-profile): %v", err)
	}
	if got != string(want) {
		t.Errorf("profile counters differ from %s:\n%s", profileGoldenPath, firstDiff(got, string(want)))
	}
}

// loadGraph reads, parses and checks one program and builds its CFG.
func loadGraph(t *testing.T, path string) *cfg.Graph {
	t.Helper()
	src, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	prog, err := parser.Parse(path, string(src))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sem.Check(prog); err != nil {
		t.Fatal(err)
	}
	return cfg.Build(prog)
}

// writeProfileCounters renders a report's deterministic counters, one line
// per node and one per distinct widening failure.
func writeProfileCounters(b *strings.Builder, name string, r *prof.Report) {
	fmt.Fprintf(b, "== %s\n", name)
	for _, n := range r.Nodes {
		c := n.Counters
		fmt.Fprintf(b, "n%d %s L%d: steps=%d spawned=%d matches=%d matched=%d memo_misses=%d prover_searches=%d joins=%d widenings=%d widen_failures=%d give_ups=%d top_demotions=%d\n",
			n.Node, n.Kind, n.Line, c.Steps, c.Spawned, c.Matches, c.Matched, c.MemoMisses, c.ProverSearches,
			c.Joins, c.Widenings, c.WidenFailures, c.GiveUps, c.TopDemotions)
	}
	for _, f := range r.WidenFailures {
		fmt.Fprintf(b, "widen-fail n%d L%d x%d: %q vs %q\n", f.Node, f.Line, f.Count, f.OldBound, f.NewBound)
	}
}

// firstDiff reports the first line where got and want differ.
func firstDiff(got, want string) string {
	g, w := strings.Split(got, "\n"), strings.Split(want, "\n")
	for i := 0; i < len(g) || i < len(w); i++ {
		var gl, wl string
		if i < len(g) {
			gl = g[i]
		}
		if i < len(w) {
			wl = w[i]
		}
		if gl != wl {
			return fmt.Sprintf("line %d:\n got: %s\nwant: %s", i+1, gl, wl)
		}
	}
	return "(no line differs)"
}
