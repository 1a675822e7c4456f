package lint

import (
	"fmt"
	"testing"

	"repro/internal/core"
)

// TestGroupBoundsFacetOrder checks the per-facet grouping the rank-bounds
// pass and the bounds summary share: facets come in the order of their
// "node|dir" keys as strings ("100|dest" before "10|dest" before "9|dest"),
// each carries its worst status, and a violated facet's witness is its
// first violated observation.
func TestGroupBoundsFacetOrder(t *testing.T) {
	obs := func(node int, dir string, s core.BoundsStatus, detail string) core.CommBoundsObs {
		return core.CommBoundsObs{Node: node, Dir: dir, Range: "[0..np - 1]", Status: s, Detail: detail}
	}
	res := &core.Result{CommBounds: []core.CommBoundsObs{
		obs(9, "src", core.BoundsProven, ""),
		obs(9, "dest", core.BoundsUnknown, ""),
		obs(10, "dest", core.BoundsProven, ""),
		obs(100, "dest", core.BoundsViolated, "first"),
		obs(9, "src", core.BoundsNonAffine, ""),
		obs(100, "dest", core.BoundsViolated, "second"),
		obs(2, "src", core.BoundsProven, ""),
		obs(9, "dest", core.BoundsNonAffine, ""),
	}}
	groups := groupBounds(res)
	var keys []string
	for _, g := range groups {
		keys = append(keys, fmt.Sprintf("%d|%s %s", g.node, g.dir, g.status))
	}
	want := []string{"100|dest violated", "10|dest proven", "2|src proven", "9|dest unknown", "9|src non-affine"}
	if fmt.Sprint(keys) != fmt.Sprint(want) {
		t.Errorf("groups %v, want %v", keys, want)
	}
	for _, g := range groups {
		if g.status == core.BoundsViolated && g.witness.Detail != "first" {
			t.Errorf("facet %d|%s: witness %q, want the first violated observation", g.node, g.dir, g.witness.Detail)
		}
	}
	// A clean result (a final, no ⊤) whose topology matched both facets of
	// node 9 counts them as proven by the match.
	res.Matches = []*core.Match{{SendNode: 9, RecvNode: 9}}
	res.Finals = []*core.State{{}}
	c := &Context{Target: &Target{Res: res}, bounds: groups, matched: matchedNodes(res)}
	got := summarizeBounds(c)
	if want := (BoundsSummary{Proven: 2, ProvenByMatch: 2, Violated: 1, Total: 5}); got != want {
		t.Errorf("summary %+v, want %+v", got, want)
	}
}
