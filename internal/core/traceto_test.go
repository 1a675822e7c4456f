package core_test

import (
	"math/rand"
	"reflect"
	"sort"
	"testing"

	"repro/internal/cfg"
	"repro/internal/clients/cartesian"
	"repro/internal/core"
	"repro/internal/differ"
	"repro/internal/gen"
	"repro/internal/parser"
)

// traceToReference is Result.TraceTo as it was before Edges was read as a
// sorted slice: it groups the edges by source in a map and sorts each
// group by (To, Action) on every call.
func traceToReference(r *core.Result, target string) []core.PCFGEdge {
	if target == "" {
		return nil
	}
	adj := map[string][]core.PCFGEdge{}
	for _, e := range r.Edges {
		adj[e.From] = append(adj[e.From], e)
	}
	for _, edges := range adj {
		sort.Slice(edges, func(i, j int) bool {
			if edges[i].To != edges[j].To {
				return edges[i].To < edges[j].To
			}
			return edges[i].Action < edges[j].Action
		})
	}
	prev := map[string]core.PCFGEdge{}
	seen := map[string]bool{"": true}
	queue := []string{""}
	for len(queue) > 0 && !seen[target] {
		cur := queue[0]
		queue = queue[1:]
		for _, e := range adj[cur] {
			if seen[e.To] {
				continue
			}
			seen[e.To] = true
			prev[e.To] = e
			queue = append(queue, e.To)
		}
	}
	if !seen[target] {
		return nil
	}
	var path []core.PCFGEdge
	for cur := target; cur != ""; {
		e, ok := prev[cur]
		if !ok {
			break
		}
		path = append(path, e)
		cur = e.From
	}
	for i, j := 0, len(path)-1; i < j; i, j = i+1, j-1 {
		path[i], path[j] = path[j], path[i]
	}
	return path
}

// TestTraceToMatchesReference checks that TraceTo returns the reference's
// path for every ⊤ of the paper programs, blocking and non-blocking, and
// of the first 100 programs of generator pool 1, safe and buggy; and for a
// key that was never reached.
func TestTraceToMatchesReference(t *testing.T) {
	n := 100
	if testing.Short() {
		n = 10
	}
	var tops, paths int
	for _, p := range identityPrograms(t, n) {
		modes := []bool{false}
		if p.paper {
			modes = append(modes, true)
		}
		for _, nonBlocking := range modes {
			res, err := core.Analyze(p.g, core.Options{
				Matcher:          cartesian.New(core.ScanInvariants(p.g)),
				NonBlockingSends: nonBlocking,
				RecordCommBounds: true,
			})
			if err != nil {
				t.Fatalf("%s: analyze: %v", p.name, err)
			}
			for _, top := range res.Tops {
				got, want := res.TraceTo(top.TopKey), traceToReference(res, top.TopKey)
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("%s (non-blocking %v): TraceTo(%q)\n got %v\nwant %v", p.name, nonBlocking, top.TopKey, got, want)
				}
				tops++
				if len(got) > 0 {
					paths++
				}
			}
			if got := res.TraceTo("never reached"); got != nil {
				t.Fatalf("%s: TraceTo of an unreached key = %v", p.name, got)
			}
		}
	}
	if tops == 0 || paths == 0 {
		t.Fatalf("coverage: %d ⊤s, %d with a path", tops, paths)
	}
	t.Logf("%d ⊤s, %d with a non-empty path", tops, paths)
}

// TestTraceToAllocatesLess checks that TraceTo allocates less than half
// of what the reference does on a generated buggy program with ⊤s: the
// per-call adjacency map and its sorts were most of the reference's
// allocations, so rebuilding them fails the gate even with the one map
// TraceTo saves besides.
func TestTraceToAllocatesLess(t *testing.T) {
	var res *core.Result
	for i := 0; i < 40 && res == nil; i++ {
		p := gen.New(rand.New(rand.NewSource(differ.ProgramSeed(1, i))), gen.Config{Bug: gen.Bugs()[i%len(gen.Bugs())]})
		prog, err := parser.Parse("gen.mpl", p.Src)
		if err != nil {
			t.Fatalf("gen %d: %v", i, err)
		}
		g := cfg.Build(prog)
		r, err := core.Analyze(g, core.Options{Matcher: cartesian.New(core.ScanInvariants(g))})
		if err != nil {
			t.Fatalf("gen %d: analyze: %v", i, err)
		}
		if len(r.Tops) > 0 && len(r.Edges) > 10 {
			res = r
		}
	}
	if res == nil {
		t.Fatal("no generated buggy program with ⊤s and more than 10 pCFG edges")
	}
	key := res.Tops[0].TopKey
	got := testing.AllocsPerRun(20, func() { res.TraceTo(key) })
	ref := testing.AllocsPerRun(20, func() { traceToReference(res, key) })
	if 2*got >= ref {
		t.Errorf("TraceTo: %.0f allocs/op, reference %.0f", got, ref)
	}
	t.Logf("TraceTo %.0f allocs/op, reference %.0f (%d edges)", got, ref, len(res.Edges))
}
