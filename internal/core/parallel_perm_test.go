// External test package: building real matchers requires the client
// packages, which import core.
package core_test

import (
	"math/rand"
	"os"
	"sort"
	"strconv"
	"strings"
	"testing"

	"repro/internal/bench"
	"repro/internal/cfg"
	"repro/internal/clients/cartesian"
	"repro/internal/core"
)

// recordStreams runs the one-worker engine with the revision recording
// hook and returns every configuration key's arrival stream: the
// canonicalized states delivered to its table entry, in delivery order.
func recordStreams(t *testing.T, g *cfg.Graph) map[string][]*core.State {
	t.Helper()
	streams := map[string][]*core.State{}
	opts := core.WithRevisionHook(core.Options{}, func(key string, st *core.State) {
		streams[key] = append(streams[key], st)
	})
	opts.Matcher = cartesian.New(core.ScanInvariants(g))
	if _, err := core.Analyze(g, opts); err != nil {
		t.Fatalf("analyze: %v", err)
	}
	return streams
}

// TestRevisionOrderPermutations is the deterministic-widening invariant
// stated as a test, in two parts.
//
// Re-delivery churn: replaying the recorded stream with injected duplicate
// deliveries — the stale-re-step traffic of concurrent workers — must leave
// everything byte-identical, including the revision-chain length and the
// widening counter. This is exactly the bug the state-derived counters
// remove: arrival events no longer advance the ladder, only state changes
// do.
//
// Random permutations: the order revisions arrive in changes which chain
// of intermediate states gets realized (delivering the widest state first
// legitimately shortens the chain), so the chain length is not an order
// invariant — but the converged verdict and the resolved converged state
// are, and no order may realize a longer chain than the recorded one (the
// old arrival-counting ladder violated precisely this, letting unlucky
// interleavings widen past MaxVisits into a spurious ⊤). For terminal
// configurations — the ones the engine reports — the whole resolved key
// must match; intermediate configurations may retain residual process-set
// aliasing constraints recording the combine pairing order, so only their
// constraint-free portion (ranges, blocked/approx flags, matches, pending)
// is asserted.
//
// The suite fails when no workload records a key with two or more
// revisions: with nothing to permute it would pass on no data.
func TestRevisionOrderPermutations(t *testing.T) {
	const trials = 8
	rng := rand.New(rand.NewSource(0x5EED))
	replayed := 0
	for _, w := range bench.All() {
		w := w
		t.Run(w.Name, func(t *testing.T) {
			_, g := w.Parse()
			streams := recordStreams(t, g)
			var keys []string
			for key, sts := range streams {
				if len(sts) >= 2 {
					keys = append(keys, key)
				}
			}
			sort.Strings(keys)
			t.Logf("%d of %d keys have two or more revisions", len(keys), len(streams))
			replayed += len(keys)
			for _, key := range keys {
				states := streams[key]
				base := core.ReplayRevisions(core.Options{}, key, states)

				// Recorded order + duplicate deliveries: byte-identical,
				// counters included.
				for trial := 0; trial < trials/2; trial++ {
					dup := append([]*core.State{}, states...)
					for d := 0; d < 2; d++ {
						at := rng.Intn(len(dup)) + 1
						re := dup[rng.Intn(at)] // re-deliver an already-seen state
						dup = append(dup[:at:at], append([]*core.State{re}, dup[at:]...)...)
					}
					got := core.ReplayRevisions(core.Options{}, key, dup)
					if got != base {
						t.Fatalf("key %s: duplicate delivery perturbed the entry:\n got: %+v\nwant: %+v",
							key, got, base)
					}
				}

				// Random orders: verdict and resolved state identical, chain
				// no longer than the recorded order's.
				for trial := 0; trial < trials; trial++ {
					perm := rng.Perm(len(states))
					shuffled := make([]*core.State, len(states))
					for i, p := range perm {
						shuffled[i] = states[p]
					}
					got := core.ReplayRevisions(core.Options{}, key, shuffled)
					if got.Top != base.Top || got.TopWhy != base.TopWhy {
						t.Fatalf("key %s perm %v flipped the verdict:\n got: %+v\nwant: %+v",
							key, perm, got, base)
					}
					gotKey, wantKey := got.ResolvedKey, base.ResolvedKey
					if !base.Terminal {
						gotKey, wantKey = stripConstraints(gotKey), stripConstraints(wantKey)
					}
					if gotKey != wantKey {
						t.Fatalf("key %s perm %v resolved state diverged:\n got: %s\nwant: %s",
							key, perm, gotKey, wantKey)
					}
					if got.Rev > base.Rev {
						t.Fatalf("key %s perm %v realized a longer chain: rev %d > %d",
							key, perm, got.Rev, base.Rev)
					}
				}
			}
		})
	}
	if replayed == 0 {
		t.Fatal("no configuration key recorded two or more revisions: nothing was permuted")
	}
}

// stripConstraints removes the `#...#` constraint-graph block from a full
// key, leaving the ranges, flags, match records and pending sends.
func stripConstraints(key string) string {
	i := strings.Index(key, "#")
	j := strings.LastIndex(key, "#")
	if i < 0 || j <= i {
		return key
	}
	return key[:i] + key[j+1:]
}

// stressIters reads the PSDF_STRESS_ITERS override so CI can bound the
// arrival-order stress budget (and an acceptance run can raise it).
func stressIters(t *testing.T, def int) int {
	if s := os.Getenv("PSDF_STRESS_ITERS"); s != "" {
		n, err := strconv.Atoi(s)
		if err != nil || n < 1 {
			t.Fatalf("bad PSDF_STRESS_ITERS %q", s)
		}
		return n
	}
	return def
}

// TestParallelArrivalOrderStress repeatedly runs the parallel engine at
// workers 2/4/8 with a deliberately tiny shard count (maximum lock
// contention and batching pressure) and requires byte-identical signatures
// against the one-worker run on every iteration. The default budget
// keeps `go test` fast; CI and the acceptance stress loop raise it via
// PSDF_STRESS_ITERS.
func TestParallelArrivalOrderStress(t *testing.T) {
	iters := stressIters(t, 3)
	ws := bench.All()
	for iter := 0; iter < iters; iter++ {
		for _, w := range ws {
			_, g := w.Parse()
			want := signature(analyzeWith(t, g, core.Options{}))
			for _, workers := range []int{2, 4, 8} {
				_, g := w.Parse()
				got := signature(analyzeWith(t, g, core.Options{Workers: workers, Shards: 2}))
				if got != want {
					t.Fatalf("%s iter=%d workers=%d diverged:\n got: %s\nwant: %s",
						w.Name, iter, workers, got, want)
				}
			}
		}
	}
}
