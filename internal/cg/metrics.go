package cg

import "repro/internal/obs"

// RegisterMetrics exposes the constraint-graph instrumentation counters on
// reg, labelled with the caller's job label (obs.Labels("job", ...)). All
// series are function-backed: a render reads the live atomic counters, so
// the same registration serves both the final post-run snapshot and the
// mid-run -http metrics listener. Safe on a nil Stats (no-op).
func (s *Stats) RegisterMetrics(reg *obs.Registry, job string) {
	if s == nil || reg == nil {
		return
	}
	counter := func(name, help string, fn func() int64) {
		reg.CounterFuncVec(name, help, job, func() float64 { return float64(fn()) })
	}
	counter("psdf_cg_full_closures_total", "full transitive-closure recomputations", s.FullClosures)
	counter("psdf_cg_incr_closures_total", "incremental closure maintenance updates", s.IncrClosures)
	counter("psdf_cg_full_closures_avoided_total", "closure-preserving updates that skipped an O(n^3) pass", s.FullClosuresAvoided)
	counter("psdf_cg_arena_hits_total", "matrix acquisitions served from the size-class arena pool", s.ArenaHits)
	counter("psdf_cg_arena_misses_total", "matrix acquisitions that had to allocate", s.ArenaMisses)
	counter("psdf_cg_joins_total", "constraint-graph join operations", s.Joins)
	counter("psdf_cg_clones_avoided_total", "state clones avoided by copy-on-write", s.ClonesAvoided)
	counter("psdf_cg_cow_materializations_total", "copy-on-write materializations (shared storage actually copied)", s.CoWMaterializations)
	counter("psdf_cg_key_cache_hits_total", "shape-key cache hits", s.KeyCacheHits)
	counter("psdf_cg_key_cache_misses_total", "shape-key cache misses", s.KeyCacheMisses)
	counter("psdf_cg_sched_coalesced_total", "worklist pushes coalesced into an already-queued visit", s.SchedCoalesced)
	counter("psdf_cg_closure_ns_total", "nanoseconds spent in full closures", func() int64 { return int64(s.ClosureTime()) })
	counter("psdf_cg_maintain_ns_total", "nanoseconds spent in incremental closure maintenance", func() int64 { return int64(s.MaintainTime()) })
}
