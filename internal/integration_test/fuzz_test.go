package integration_test

import (
	"math/rand"
	"testing"

	"repro/internal/core"
	"repro/internal/differ"
	"repro/internal/gen"
)

// The integration fuzz property rides on the shared generator
// (internal/gen) and differential harness (internal/differ): an
// undecorated single-phase program from the classic shape families must
// triage exactly — the analysis stays clean and its concretized topology
// equals the explicit-state oracle at every checked np, under both send
// models. This is the strongest end-to-end property in the suite: any
// unsoundness in matching, splitting, merging or widening shows up as a
// divergence. (Decorated multi-phase programs may legitimately triage as
// precision losses; the differ's own sweep covers those.)
func TestGeneratedFamiliesValidateExactly(t *testing.T) {
	if testing.Short() {
		t.Skip("fuzz harness skipped in -short mode")
	}
	families := []gen.Family{
		gen.FamilyPairs, gen.FamilyBroadcast, gen.FamilyShift, gen.FamilyGather,
	}
	for seed := int64(0); seed < 40; seed++ {
		r := rand.New(rand.NewSource(seed))
		cfg := gen.Config{
			Families: []gen.Family{families[r.Intn(len(families))]},
			Phases:   1,
			Decor:    -1,
		}
		p := gen.New(r, cfg)
		for _, nb := range []bool{false, true} {
			f := differ.Check(p.Src, differ.Options{Core: core.Options{NonBlockingSends: nb}})
			if f.Class != differ.ClassOK {
				t.Errorf("seed %d (nb=%v, %v): %s\n%s", seed, nb, p.Families, f, p.Src)
			}
		}
	}
}
