package core_test

import (
	"testing"

	"repro/internal/core"
)

// nameOpsStride makes TestNameOpsMatchReference check every nameOpsStride-th
// entry state (race_test.go raises it under the race detector).
var nameOpsStride = 1

// TestNameOpsMatchReference checks the atom-keyed per-set and helper
// operations — namespace scans, CopyNamespace, MergeSets, renameSets and
// CanonicalizeParams — against the name-keyed implementations they
// replaced (nameref_test.go), on every entry state the engine steps over
// the paper programs (blocking and with non-blocking sends) and 40
// generated programs in safe and buggy mode. Each operation must leave the
// same FullKey, identity bytes and slot order: the slot layout decides
// which side of an equality keys render first.
func TestNameOpsMatchReference(t *testing.T) {
	cov := map[string]int{}
	states := 0
	for _, p := range identityPrograms(t, 40) {
		modes := []bool{false}
		if p.paper {
			modes = append(modes, true)
		}
		for _, nonBlocking := range modes {
			replayEntryStates(t, p, nonBlocking, func(key string, st *core.State) {
				if states++; states%nameOpsStride != 0 {
					return
				}
				if err := core.CompareNameOps(st, cov); err != nil {
					t.Fatalf("%s (nonblocking=%v) at %s: %v", p.name, nonBlocking, key, err)
				}
			})
		}
	}
	t.Logf("%d entry states, every %d checked, coverage %v", states, nameOpsStride, cov)
	if states < 1000 {
		t.Errorf("coverage: %d entry states", states)
	}
	for _, k := range []string{"scan", "copy", "merge", "rename", "canonicalize"} {
		if cov[k] == 0 {
			t.Errorf("coverage: no %s moved a variable", k)
		}
	}
}
