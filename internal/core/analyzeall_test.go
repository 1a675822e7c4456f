// External test package: the drivers under test need the client matchers,
// and clients import core, so an internal test would cycle.
package core_test

import (
	"fmt"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/bench"
	"repro/internal/cg"
	"repro/internal/clients/cartesian"
	"repro/internal/core"
)

// suiteJobs builds one AnalyzeAll job per paper workload, each with its own
// matcher and stats record.
func suiteJobs(ws []*bench.Workload) ([]core.Job, []*cg.Stats, []*cartesian.Matcher) {
	jobs := make([]core.Job, len(ws))
	stats := make([]*cg.Stats, len(ws))
	matchers := make([]*cartesian.Matcher, len(ws))
	for i, w := range ws {
		_, g := w.Parse()
		stats[i] = &cg.Stats{}
		matchers[i] = cartesian.New(core.ScanInvariants(g))
		jobs[i] = core.Job{
			Name: w.Name,
			G:    g,
			Opts: core.Options{
				Matcher: matchers[i],
				CGOpts:  cg.Options{Stats: stats[i]},
			},
		}
	}
	return jobs, stats, matchers
}

func topologyKey(res *core.Result) string {
	out := ""
	for _, m := range res.Matches {
		out += fmt.Sprintf("n%d%s->n%d%s;", m.SendNode, m.Sender, m.RecvNode, m.Receiver)
	}
	return out
}

// TestAnalyzeAllMatchesSequential runs the full workload suite once
// sequentially and once on the pool and asserts identical outcomes.
func TestAnalyzeAllMatchesSequential(t *testing.T) {
	ws := bench.All()
	seqJobs, _, _ := suiteJobs(ws)
	parJobs, _, _ := suiteJobs(ws)
	seq := core.AnalyzeAll(seqJobs, 1)
	par := core.AnalyzeAll(parJobs, 4)
	if len(seq) != len(ws) || len(par) != len(ws) {
		t.Fatalf("result count: seq %d, par %d, want %d", len(seq), len(par), len(ws))
	}
	for i := range ws {
		if seq[i].Err != nil {
			t.Fatalf("%s: sequential error: %v", seq[i].Name, seq[i].Err)
		}
		if par[i].Err != nil {
			t.Fatalf("%s: parallel error: %v", par[i].Name, par[i].Err)
		}
		if par[i].Name != ws[i].Name {
			t.Errorf("result %d out of order: %s", i, par[i].Name)
		}
		sk, pk := topologyKey(seq[i].Res), topologyKey(par[i].Res)
		if sk != pk {
			t.Errorf("%s: topology differs:\nseq: %s\npar: %s", ws[i].Name, sk, pk)
		}
		if seq[i].Res.Clean() != par[i].Res.Clean() {
			t.Errorf("%s: clean differs", ws[i].Name)
		}
	}
}

// TestAnalyzeAllSharedStats shares one atomic stats record across all
// concurrent jobs; under -race this exercises the satellite requirement
// that cg.Stats is data-race-safe.
func TestAnalyzeAllSharedStats(t *testing.T) {
	ws := bench.All()
	shared := &cg.Stats{}
	jobs := make([]core.Job, len(ws))
	for i, w := range ws {
		_, g := w.Parse()
		jobs[i] = core.Job{
			Name: w.Name,
			G:    g,
			Opts: core.Options{
				Matcher: cartesian.New(core.ScanInvariants(g)),
				CGOpts:  cg.Options{Stats: shared},
			},
		}
	}
	for _, jr := range core.AnalyzeAll(jobs, 0) {
		if jr.Err != nil {
			t.Fatalf("%s: %v", jr.Name, jr.Err)
		}
	}
	if shared.ClonesAvoided() == 0 || shared.IncrClosures() == 0 {
		t.Fatalf("shared stats empty: clones=%d incr=%d", shared.ClonesAvoided(), shared.IncrClosures())
	}
}

// TestClonesAvoidedOnEveryWorkload is the acceptance criterion: the CoW
// Clone must avoid eager copies on every paper workload.
func TestClonesAvoidedOnEveryWorkload(t *testing.T) {
	ws := bench.All()
	jobs, stats, _ := suiteJobs(ws)
	for i, jr := range core.AnalyzeAll(jobs, 0) {
		if jr.Err != nil {
			t.Fatalf("%s: %v", jr.Name, jr.Err)
		}
		avoided, mat := stats[i].ClonesAvoided(), stats[i].CoWMaterializations()
		if avoided <= 0 {
			t.Errorf("%s: ClonesAvoided = %d, want > 0", ws[i].Name, avoided)
		}
		if mat > avoided {
			t.Errorf("%s: more materializations (%d) than clones (%d)", ws[i].Name, mat, avoided)
		}
	}
}

// TestMatchCacheHits checks that the match memo is transparent and hit:
// on every paper workload, a second analysis with the same, warm matcher
// reports the first one's finals, ⊤s and matches, and the transpose
// workload, which poses the same HSM self-match query on every loop
// revisit, answers every query of the second run from the memo.
func TestMatchCacheHits(t *testing.T) {
	result := func(res *core.Result) string {
		var b strings.Builder
		for _, st := range res.Finals {
			fmt.Fprintf(&b, "final %s\n", st.FullKey())
		}
		for _, st := range res.Tops {
			fmt.Fprintf(&b, "top %s %s\n", st.FullKey(), st.TopWhy)
		}
		for _, m := range res.Matches {
			fmt.Fprintf(&b, "match %s\n", m)
		}
		return b.String()
	}
	transpose := bench.TransposeSquare().Name
	for _, w := range bench.All() {
		_, g := w.Parse()
		m := cartesian.New(core.ScanInvariants(g))
		cold, err := core.Analyze(g, core.Options{Matcher: m})
		if err != nil {
			t.Fatal(err)
		}
		missesAfterFirst := m.Memo().MissCount()
		warm, err := core.Analyze(g, core.Options{Matcher: m})
		if err != nil {
			t.Fatal(err)
		}
		if got, want := result(warm), result(cold); got != want {
			t.Errorf("%s: a warm memo changed the result:\n%s\nwant\n%s", w.Name, got, want)
		}
		if memo := m.Memo(); memo.MissCount() != missesAfterFirst {
			t.Errorf("%s: second identical analysis missed the memo: %d -> %d misses", w.Name, missesAfterFirst, memo.MissCount())
		}
		if w.Name != transpose {
			continue
		}
		if memo := m.Memo(); memo.HitCount() == 0 || memo.HitRate() <= 0 {
			t.Errorf("%s: no memo hits: hits=%d misses=%d", w.Name, memo.HitCount(), memo.MissCount())
		}
	}
}

// TestMemoMissesEqualDecisions checks that the HSM decision memo is asked
// once per query: every miss runs the decision procedure and stores its
// decision, so each analysis of the paper workloads, of the testdata
// programs and of 40 pool-1 programs (safe and buggy), blocking and
// non-blocking, ends with as many misses as stored decisions.
func TestMemoMissesEqualDecisions(t *testing.T) {
	progs := identityPrograms(t, 40)
	for _, pat := range []string{"../../testdata/*.mpl", "../../testdata/*/*.mpl"} {
		paths, err := filepath.Glob(pat)
		if err != nil {
			t.Fatal(err)
		}
		for _, path := range paths {
			progs = append(progs, identityProgram{path, loadGraph(t, path), false})
		}
	}
	decisions := 0
	for _, p := range progs {
		for _, nb := range []bool{false, true} {
			m := cartesian.New(core.ScanInvariants(p.g))
			if _, err := core.Analyze(p.g, core.Options{Matcher: m, NonBlockingSends: nb}); err != nil {
				t.Fatalf("%s: %v", p.name, err)
			}
			memo := m.Memo()
			if memo.MissCount() != memo.Len() {
				t.Errorf("%s (nonblocking %v): %d memo misses for %d decisions", p.name, nb, memo.MissCount(), memo.Len())
			}
			decisions += memo.Len()
		}
	}
	if decisions == 0 {
		t.Fatal("no HSM decision was made")
	}
}

// BenchmarkMatchCacheHit measures a memoized whole-set HSM match query
// against the cold-prover baseline path.
func BenchmarkMatchCacheHit(b *testing.B) {
	w := bench.TransposeSquare()
	_, g := w.Parse()
	m := cartesian.New(core.ScanInvariants(g))
	if _, err := core.Analyze(g, core.Options{Matcher: m}); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := core.Analyze(g, core.Options{Matcher: m}); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(m.Memo().HitRate()*100, "cache-hit-%")
}
