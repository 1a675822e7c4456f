// External test package: building real matchers requires the client
// packages, which import core.
package core_test

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/bench"
	"repro/internal/cfg"
	"repro/internal/cg"
	"repro/internal/clients/cartesian"
	"repro/internal/core"
	"repro/internal/parser"
)

// countedSignature renders the analysis outcome and its work counts:
// cleanliness, steps, widenings and configurations, terminal
// configurations, give-up reasons and the communication topology.
func countedSignature(res *core.Result) string {
	var b strings.Builder
	fmt.Fprintf(&b, "clean=%v steps=%d widenings=%d configs=%d\n", res.Clean(), res.Steps, res.Widenings, res.Configs)
	for _, f := range res.Finals {
		fmt.Fprintf(&b, "final %s\n", f.FullKey())
	}
	for _, t := range res.Tops {
		fmt.Fprintf(&b, "top %s\n", t.TopWhy)
	}
	for _, m := range res.Matches {
		fmt.Fprintf(&b, "match %s\n", m.String())
	}
	return b.String()
}

func analyzeWith(t *testing.T, g *cfg.Graph, opts core.Options) *core.Result {
	t.Helper()
	opts.Matcher = cartesian.New(core.ScanInvariants(g))
	res, err := core.Analyze(g, opts)
	if err != nil {
		t.Fatalf("analyze: %v", err)
	}
	return res
}

// analyzeConcurrently runs n copies of one analysis at once on the
// AnalyzeAll pool, every copy with its own graph and matcher and all of
// them sharing one stats record, and returns the results.
func analyzeConcurrently(t *testing.T, n int, parse func() *cfg.Graph, opts core.Options, stats *cg.Stats) []*core.Result {
	t.Helper()
	jobs := make([]core.Job, n)
	for i := range jobs {
		g := parse()
		o := opts
		o.Matcher = cartesian.New(core.ScanInvariants(g))
		o.CGOpts.Stats = stats
		jobs[i] = core.Job{Name: fmt.Sprintf("copy-%d", i), G: g, Opts: o}
	}
	var out []*core.Result
	for _, jr := range core.AnalyzeAll(jobs, n) {
		if jr.Err != nil {
			t.Fatalf("%s: %v", jr.Name, jr.Err)
		}
		out = append(out, jr.Res)
	}
	return out
}

// TestParallelEquivalenceWorkloads: the parallelism the engine offers is
// across analyses. Copies of one analysis running concurrently on the
// AnalyzeAll pool, sharing the process-wide atom table and a stats record,
// must each give byte-identical results and counts to the analysis run
// alone, on every paper workload.
func TestParallelEquivalenceWorkloads(t *testing.T) {
	for _, w := range bench.All() {
		w := w
		t.Run(w.Name, func(t *testing.T) {
			_, g := w.Parse()
			want := countedSignature(analyzeWith(t, g, core.Options{}))
			parse := func() *cfg.Graph { _, g := w.Parse(); return g }
			for i, res := range analyzeConcurrently(t, 4, parse, core.Options{}, &cg.Stats{}) {
				if got := countedSignature(res); got != want {
					t.Errorf("concurrent copy %d diverged:\n got: %s\nwant: %s", i, got, want)
				}
			}
		})
	}
}

// testdataPrograms loads every program under testdata/ with the analysis
// mode the integration suite uses for it.
func testdataPrograms(t *testing.T) map[string]core.Options {
	t.Helper()
	modes := map[string]core.Options{
		"sendfirst_shift.mpl": {NonBlockingSends: true},
	}
	files, err := filepath.Glob(filepath.Join("..", "..", "testdata", "*.mpl"))
	if err != nil || len(files) == 0 {
		t.Fatalf("testdata glob: %v (%d files)", err, len(files))
	}
	out := map[string]core.Options{}
	for _, f := range files {
		out[f] = modes[filepath.Base(f)]
	}
	return out
}

func parseFile(t *testing.T, path string) *cfg.Graph {
	t.Helper()
	src, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("read %s: %v", path, err)
	}
	prog, err := parser.Parse(filepath.Base(path), string(src))
	if err != nil {
		t.Fatalf("parse %s: %v", path, err)
	}
	return cfg.Build(prog)
}

// TestParallelEquivalenceTestdata extends the concurrent-analysis check to
// the repository's example programs, including the non-blocking-send mode.
func TestParallelEquivalenceTestdata(t *testing.T) {
	for path, opts := range testdataPrograms(t) {
		path, opts := path, opts
		t.Run(filepath.Base(path), func(t *testing.T) {
			want := countedSignature(analyzeWith(t, parseFile(t, path), opts))
			parse := func() *cfg.Graph { return parseFile(t, path) }
			for i, res := range analyzeConcurrently(t, 4, parse, opts, &cg.Stats{}) {
				if got := countedSignature(res); got != want {
					t.Errorf("concurrent copy %d diverged:\n got: %s\nwant: %s", i, got, want)
				}
			}
		})
	}
}

// TestParallelStatsPlumbed: concurrent analyses sharing one stats record
// all reach it. The key-cache and worklist-coalescing counters of four
// concurrent copies sum to four times those of one run.
func TestParallelStatsPlumbed(t *testing.T) {
	_, g := bench.Stencil1D().Parse()
	one := &cg.Stats{}
	if res := analyzeWith(t, g, core.Options{CGOpts: cg.Options{Stats: one}}); !res.Clean() {
		t.Fatalf("stencil not clean: %v", res.TopReasons())
	}
	if one.KeyCacheHits() == 0 || one.SchedCoalesced() == 0 {
		t.Fatalf("counters never touched: key-cache hits %d, coalesced %d", one.KeyCacheHits(), one.SchedCoalesced())
	}
	shared := &cg.Stats{}
	parse := func() *cfg.Graph { _, g := bench.Stencil1D().Parse(); return g }
	analyzeConcurrently(t, 4, parse, core.Options{}, shared)
	if shared.KeyCacheHits() != 4*one.KeyCacheHits() || shared.KeyCacheMisses() != 4*one.KeyCacheMisses() ||
		shared.SchedCoalesced() != 4*one.SchedCoalesced() {
		t.Errorf("shared stats (hits %d, misses %d, coalesced %d) are not 4x one run's (%d, %d, %d)",
			shared.KeyCacheHits(), shared.KeyCacheMisses(), shared.SchedCoalesced(),
			one.KeyCacheHits(), one.KeyCacheMisses(), one.SchedCoalesced())
	}
}
