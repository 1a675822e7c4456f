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

// signature renders everything the analysis promises to keep
// interleaving-independent: terminal configurations, give-up reasons, the
// communication topology and cleanliness.
func signature(res *core.Result) string {
	var b strings.Builder
	fmt.Fprintf(&b, "clean=%v configs=%d\n", res.Clean(), res.Configs)
	for _, f := range res.Finals {
		fmt.Fprintf(&b, "final %s\n", f.FullKey())
	}
	b.WriteString(topoSignature(res))
	return b.String()
}

// topoSignature is the schedule-independent part: a non-default schedule
// reorders the join/widen ladder and may converge to a syntactically
// different (equally sound) final constraint graph, but cleanliness, the
// give-up set and the communication topology must not move.
func topoSignature(res *core.Result) string {
	var b strings.Builder
	fmt.Fprintf(&b, "clean=%v\n", res.Clean())
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

// TestParallelEquivalenceWorkloads checks that every worker count gives
// byte-identical results to the one-worker run under the default (LIFO)
// schedule, and the same topology under FIFO, on every paper workload.
func TestParallelEquivalenceWorkloads(t *testing.T) {
	for _, w := range bench.All() {
		w := w
		t.Run(w.Name, func(t *testing.T) {
			_, g := w.Parse()
			base := analyzeWith(t, g, core.Options{})
			want, wantTopo := signature(base), topoSignature(base)
			for _, workers := range []int{1, 2, 8} {
				for _, sched := range []string{core.ScheduleLIFO, core.ScheduleFIFO} {
					_, g := w.Parse()
					res := analyzeWith(t, g, core.Options{Workers: workers, Schedule: sched})
					if sched == core.ScheduleLIFO {
						if got := signature(res); got != want {
							t.Errorf("workers=%d schedule=%s diverged:\n got: %s\nwant: %s",
								workers, sched, got, want)
						}
					} else if got := topoSignature(res); got != wantTopo {
						t.Errorf("workers=%d schedule=%s topology diverged:\n got: %s\nwant: %s",
							workers, sched, got, wantTopo)
					}
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

// TestParallelEquivalenceTestdata extends the equivalence check to the
// repository's example programs, including the non-blocking-send mode.
func TestParallelEquivalenceTestdata(t *testing.T) {
	for path, opts := range testdataPrograms(t) {
		path, opts := path, opts
		t.Run(filepath.Base(path), func(t *testing.T) {
			want := signature(analyzeWith(t, parseFile(t, path), opts))
			for _, workers := range []int{1, 2, 8} {
				o := opts
				o.Workers = workers
				got := signature(analyzeWith(t, parseFile(t, path), o))
				if got != want {
					t.Errorf("workers=%d diverged:\n got: %s\nwant: %s", workers, got, want)
				}
			}
		})
	}
}

// TestParallelSmallShards stresses the shard locking: many workers, only
// two shards, repeated runs. Mainly valuable under -race.
func TestParallelSmallShards(t *testing.T) {
	ws := bench.All()
	for iter := 0; iter < 3; iter++ {
		for _, w := range ws {
			_, g := w.Parse()
			want := signature(analyzeWith(t, g, core.Options{}))
			_, g = w.Parse()
			got := signature(analyzeWith(t, g, core.Options{Workers: 8, Shards: 2}))
			if got != want {
				t.Fatalf("%s (iter %d) diverged:\n got: %s\nwant: %s", w.Name, iter, got, want)
			}
		}
	}
}

// TestParallelStatsPlumbed checks the new instrumentation reaches the
// shared stats record in a parallel run.
func TestParallelStatsPlumbed(t *testing.T) {
	_, g := bench.Stencil1D().Parse()
	stats := &cg.Stats{}
	res := analyzeWith(t, g, core.Options{Workers: 4, CGOpts: cg.Options{Stats: stats}})
	if !res.Clean() {
		t.Fatalf("stencil not clean: %v", res.TopReasons())
	}
	if stats.KeyCacheHits()+stats.KeyCacheMisses() == 0 {
		t.Error("key cache counters never touched")
	}
	if stats.KeyCacheHits() == 0 {
		t.Error("key cache never hit")
	}
}

// TestOneWorkerReportsNoSteals: a lone worker pops configurations off every
// shard, not just its home shard, and none of those pops is a steal.
func TestOneWorkerReportsNoSteals(t *testing.T) {
	_, g := bench.Stencil1D().Parse()
	stats := &cg.Stats{}
	res := analyzeWith(t, g, core.Options{CGOpts: cg.Options{Stats: stats}})
	// Ids are dense and shard = id mod shard count, so a second
	// configuration lives off the home shard (0).
	if res.Configs < 2 {
		t.Fatalf("configs = %d: no pop left the home shard", res.Configs)
	}
	if got := stats.SchedSteals(); got != 0 {
		t.Errorf("one-worker run reported %d steals, want 0", got)
	}
}

func TestScheduleValidation(t *testing.T) {
	_, g := bench.Fig2Exchange().Parse()
	m := cartesian.New(core.ScanInvariants(g))
	if _, err := core.Analyze(g, core.Options{Matcher: m, Schedule: "bogus"}); err == nil {
		t.Fatal("expected error for unknown schedule")
	}
}
