// External test package: building real matchers requires the client
// packages, which import core.
package core_test

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/bench"
	"repro/internal/cfg"
	"repro/internal/clients/cartesian"
	"repro/internal/core"
	"repro/internal/procset"
)

// boundTableSignature renders what the bound table must not change: the
// work counts and every final and ⊤ configuration's FullKey and identity.
func boundTableSignature(res *core.Result) string {
	var b strings.Builder
	fmt.Fprintf(&b, "steps=%d widenings=%d configs=%d\n", res.Steps, res.Widenings, res.Configs)
	for _, st := range res.Finals {
		fmt.Fprintf(&b, "final %s %x\n", st.FullKey(), core.Identity(st))
	}
	for _, st := range res.Tops {
		fmt.Fprintf(&b, "top %s %x\n", st.FullKey(), core.Identity(st))
	}
	return b.String()
}

// analyzeWithMemo analyzes g and returns the result with the analysis's
// memo, taken from the states the table receives.
func analyzeWithMemo(t *testing.T, name string, g *cfg.Graph, opts core.Options) (*core.Result, *procset.Memo) {
	t.Helper()
	var memo *procset.Memo
	opts = core.WithRevisionHook(opts, func(_ string, st *core.State) { memo = core.Memo(st) })
	opts.Matcher = cartesian.New(core.ScanInvariants(g))
	res, err := core.Analyze(g, opts)
	if err != nil {
		t.Fatalf("%s: analyze: %v", name, err)
	}
	return res, memo
}

// boundTableModes returns the option sets a program runs under: blocking
// sends, and for the paper programs also non-blocking ones.
func boundTableModes(p identityProgram) []core.Options {
	if p.paper {
		return []core.Options{{}, {NonBlockingSends: true}}
	}
	return []core.Options{{}}
}

// TestBoundTableChangesNoResult analyzes the paper programs (blocking and
// non-blocking) and 40 generated programs of pool 1 (safe and buggy) with
// the analysis memo's bound table and with it turned off: the steps,
// widenings, configurations and the final and ⊤ FullKeys and identities
// must be the same, since the table decides only which array holds a
// bound.
func TestBoundTableChangesNoResult(t *testing.T) {
	runs := 0
	for _, p := range identityPrograms(t, 40) {
		for _, opts := range boundTableModes(p) {
			on := analyzeWith(t, p.g, opts)
			off := analyzeWith(t, p.g, core.WithoutBoundTable(opts))
			if a, b := boundTableSignature(on), boundTableSignature(off); a != b {
				t.Fatalf("%s (non-blocking %v): with the bound table\n%s\nwithout it\n%s", p.name, opts.NonBlockingSends, a, b)
			}
			runs++
		}
	}
	t.Logf("%d analyses agree with the table on and off", runs)
}

// TestBoundTableSlicesKeepTheirContent checks, after each analysis of the
// same programs, that every bound the memo's table holds still hashes to
// the key it was cached under: nothing wrote through Bound.Atoms into a
// slice that other states share.
func TestBoundTableSlicesKeepTheirContent(t *testing.T) {
	total := 0
	for _, p := range identityPrograms(t, 40) {
		for _, opts := range boundTableModes(p) {
			_, memo := analyzeWithMemo(t, p.name, p.g, opts)
			if memo == nil {
				t.Fatalf("%s: no state reached the table", p.name)
			}
			cached, err := memo.CheckBounds()
			if err != nil {
				t.Fatalf("%s (non-blocking %v): %v", p.name, opts.NonBlockingSends, err)
			}
			total += cached
		}
	}
	if total == 0 {
		t.Fatal("no analysis cached a bound")
	}
	t.Logf("%d cached bounds checked", total)
}

// TestAnalyzeAllJobsOwnTheirBoundTables runs the paper workloads as
// concurrent AnalyzeAll jobs: every state of a job belongs to one memo,
// and no two jobs share one, so no bound table is written from two
// goroutines (the race detector checks the same from the other side).
func TestAnalyzeAllJobsOwnTheirBoundTables(t *testing.T) {
	ws := bench.All()
	jobs, _, _ := suiteJobs(ws)
	seen := make([]map[*procset.Memo]bool, len(jobs))
	for i := range jobs {
		seen[i] = map[*procset.Memo]bool{}
		jobs[i].Opts = core.WithRevisionHook(jobs[i].Opts, func(_ string, st *core.State) { seen[i][core.Memo(st)] = true })
	}
	for _, jr := range core.AnalyzeAll(jobs, 4) {
		if jr.Err != nil {
			t.Fatalf("%s: %v", jr.Name, jr.Err)
		}
	}
	owner := map[*procset.Memo]string{}
	for i, memos := range seen {
		if len(memos) != 1 {
			t.Fatalf("%s: states of %d memos reached the table, want 1", jobs[i].Name, len(memos))
		}
		for m := range memos {
			if m == nil {
				t.Fatalf("%s: a state without a memo reached the table", jobs[i].Name)
			}
			if other, ok := owner[m]; ok {
				t.Fatalf("%s and %s share one memo", other, jobs[i].Name)
			}
			owner[m] = jobs[i].Name
			if _, err := m.CheckBounds(); err != nil {
				t.Fatalf("%s: %v", jobs[i].Name, err)
			}
		}
	}
}
