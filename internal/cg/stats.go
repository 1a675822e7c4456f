package cg

import (
	"sync/atomic"
	"time"
)

// Stats accumulates closure instrumentation, shared across all graphs
// created from the same Options so an entire analysis run can be profiled.
// All counters are updated atomically, so one Stats may be shared across
// graphs used by concurrent analyses (the AnalyzeAll worker pool); for
// contention-free accounting, give each worker its own Stats and combine
// them with Merge.
type Stats struct {
	fullClosures  atomic.Int64 // number of O(n^3) closure passes
	fullVarsSum   atomic.Int64 // sum of variable counts over those passes
	incrClosures  atomic.Int64 // number of frontier incremental updates
	incrVarsSum   atomic.Int64 // sum of variable counts over those updates
	closureTimeNs atomic.Int64 // total wall time inside closure code
	// fullClosuresAvoided counts closure-preserving structural updates —
	// frontier edge propagation, row/column projection (Forget/Drop), bound
	// shifting — each of which restores or preserves closure without an
	// O(n^3) Floyd-Warshall pass.
	fullClosuresAvoided atomic.Int64
	// State-maintenance accounting beyond closure: joins, widenings and
	// graph copies, the other costs of keeping the dataflow state at each
	// pCFG node consistent (the paper's Section IX "92.5%" covers all of
	// this).
	joins          atomic.Int64
	joinVarsSum    atomic.Int64
	maintainTimeNs atomic.Int64 // join + widen + materialization wall time
	// Copy-on-write accounting: clones that stayed O(1) reference bumps and
	// the shared matrices that were eventually materialized by a write.
	clonesAvoided       atomic.Int64
	cowMaterializations atomic.Int64
	// Arena accounting: matrix acquisitions served from the size-class
	// sync.Pool vs freshly allocated.
	arenaHits   atomic.Int64
	arenaMisses atomic.Int64
	// Parallel-engine accounting: canonical-key serializations served from
	// the per-state cache vs rebuilt, worklist pushes coalesced into an
	// already-queued configuration (re-visits the scheduler saved), and
	// configuration-table shard lock acquisitions that had to wait.
	keyCacheHits    atomic.Int64
	keyCacheMisses  atomic.Int64
	schedCoalesced  atomic.Int64
	shardContention atomic.Int64
	// Sharded-scheduler accounting: pops a worker stole from another
	// worker's home shard, and lock acquisitions saved by committing a
	// step's same-shard revisions (table writes and scheduler pushes) in
	// one critical section instead of one per successor.
	schedSteals  atomic.Int64
	batchedSaved atomic.Int64
}

// FullClosures returns the number of O(n^3) closure passes.
func (s *Stats) FullClosures() int64 { return s.fullClosures.Load() }

// IncrClosures returns the number of frontier incremental updates.
func (s *Stats) IncrClosures() int64 { return s.incrClosures.Load() }

// FullClosuresAvoided returns how many closure-preserving updates (frontier
// propagation, projection, shifting) ran instead of an O(n^3) full pass.
func (s *Stats) FullClosuresAvoided() int64 { return s.fullClosuresAvoided.Load() }

// Joins returns the number of join/widen operations.
func (s *Stats) Joins() int64 { return s.joins.Load() }

// ClonesAvoided returns how many Clone calls stayed O(1) reference bumps
// instead of deep matrix copies.
func (s *Stats) ClonesAvoided() int64 { return s.clonesAvoided.Load() }

// CoWMaterializations returns how many shared matrices were deep-copied on
// first write.
func (s *Stats) CoWMaterializations() int64 { return s.cowMaterializations.Load() }

// ArenaHits returns how many matrix acquisitions reused a pooled arena.
func (s *Stats) ArenaHits() int64 { return s.arenaHits.Load() }

// ArenaMisses returns how many matrix acquisitions had to allocate.
func (s *Stats) ArenaMisses() int64 { return s.arenaMisses.Load() }

// KeyCacheHits returns how many state-key requests (FullKey, ShapeKey and
// the engine's binary identity) were served from the per-state key cache.
func (s *Stats) KeyCacheHits() int64 { return s.keyCacheHits.Load() }

// KeyCacheMisses returns how many state-key requests rebuilt the key.
func (s *Stats) KeyCacheMisses() int64 { return s.keyCacheMisses.Load() }

// KeyCacheHitRate returns the fraction of key requests served from cache.
func (s *Stats) KeyCacheHitRate() float64 {
	h, m := s.keyCacheHits.Load(), s.keyCacheMisses.Load()
	if h+m == 0 {
		return 0
	}
	return float64(h) / float64(h+m)
}

// SchedCoalesced returns how many worklist pushes were absorbed into an
// already-queued configuration — re-visits the scheduler saved.
func (s *Stats) SchedCoalesced() int64 { return s.schedCoalesced.Load() }

// ShardContention returns how many shard lock acquisitions found the lock
// already held (parallel engine only).
func (s *Stats) ShardContention() int64 { return s.shardContention.Load() }

// SchedSteals returns how many scheduler pops were served from a shard
// other than the popping worker's home shard (work stealing).
func (s *Stats) SchedSteals() int64 { return s.schedSteals.Load() }

// BatchedSaved returns how many lock acquisitions the batched shard-commit
// path saved by folding a step's same-shard revisions into one critical
// section.
func (s *Stats) BatchedSaved() int64 { return s.batchedSaved.Load() }

// AddKeyCacheHits bumps the key-cache hit counter. Safe on a nil receiver.
func (s *Stats) AddKeyCacheHits(n int64) {
	if s != nil {
		s.keyCacheHits.Add(n)
	}
}

// AddKeyCacheMisses bumps the key-cache miss counter. Safe on a nil receiver.
func (s *Stats) AddKeyCacheMisses(n int64) {
	if s != nil {
		s.keyCacheMisses.Add(n)
	}
}

// AddSchedCoalesced bumps the coalesced-push counter. Safe on a nil receiver.
func (s *Stats) AddSchedCoalesced(n int64) {
	if s != nil {
		s.schedCoalesced.Add(n)
	}
}

// AddShardContention bumps the shard-contention counter. Safe on a nil
// receiver.
func (s *Stats) AddShardContention(n int64) {
	if s != nil {
		s.shardContention.Add(n)
	}
}

// AddSchedSteals bumps the work-stealing counter. Safe on a nil receiver.
func (s *Stats) AddSchedSteals(n int64) {
	if s != nil {
		s.schedSteals.Add(n)
	}
}

// AddBatchedSaved bumps the batched-commit savings counter. Safe on a nil
// receiver.
func (s *Stats) AddBatchedSaved(n int64) {
	if s != nil {
		s.batchedSaved.Add(n)
	}
}

// ClosureTime returns total wall time inside closure code.
func (s *Stats) ClosureTime() time.Duration { return time.Duration(s.closureTimeNs.Load()) }

// MaintainTime returns join + widen + materialization wall time.
func (s *Stats) MaintainTime() time.Duration { return time.Duration(s.maintainTimeNs.Load()) }

// AvgJoinVars returns the mean variable count per join/widen.
func (s *Stats) AvgJoinVars() float64 {
	if s.joins.Load() == 0 {
		return 0
	}
	return float64(s.joinVarsSum.Load()) / float64(s.joins.Load())
}

// MaintenanceTime returns all time spent keeping dataflow state consistent
// (closure plus join/widen/materialization).
func (s *Stats) MaintenanceTime() time.Duration { return s.ClosureTime() + s.MaintainTime() }

// AvgFullVars returns the mean variable count per full closure.
func (s *Stats) AvgFullVars() float64 {
	if s.fullClosures.Load() == 0 {
		return 0
	}
	return float64(s.fullVarsSum.Load()) / float64(s.fullClosures.Load())
}

// AvgIncrVars returns the mean variable count per incremental update.
func (s *Stats) AvgIncrVars() float64 {
	if s.incrClosures.Load() == 0 {
		return 0
	}
	return float64(s.incrVarsSum.Load()) / float64(s.incrClosures.Load())
}

// Merge folds the counters of o into s (the sharded-and-merged pattern for
// per-worker stats).
func (s *Stats) Merge(o *Stats) {
	s.fullClosures.Add(o.fullClosures.Load())
	s.fullVarsSum.Add(o.fullVarsSum.Load())
	s.incrClosures.Add(o.incrClosures.Load())
	s.incrVarsSum.Add(o.incrVarsSum.Load())
	s.closureTimeNs.Add(o.closureTimeNs.Load())
	s.fullClosuresAvoided.Add(o.fullClosuresAvoided.Load())
	s.joins.Add(o.joins.Load())
	s.joinVarsSum.Add(o.joinVarsSum.Load())
	s.maintainTimeNs.Add(o.maintainTimeNs.Load())
	s.clonesAvoided.Add(o.clonesAvoided.Load())
	s.cowMaterializations.Add(o.cowMaterializations.Load())
	s.arenaHits.Add(o.arenaHits.Load())
	s.arenaMisses.Add(o.arenaMisses.Load())
	s.keyCacheHits.Add(o.keyCacheHits.Load())
	s.keyCacheMisses.Add(o.keyCacheMisses.Load())
	s.schedCoalesced.Add(o.schedCoalesced.Load())
	s.shardContention.Add(o.shardContention.Load())
	s.schedSteals.Add(o.schedSteals.Load())
	s.batchedSaved.Add(o.batchedSaved.Load())
}

// Reset zeroes the counters.
func (s *Stats) Reset() {
	s.fullClosures.Store(0)
	s.fullVarsSum.Store(0)
	s.incrClosures.Store(0)
	s.incrVarsSum.Store(0)
	s.closureTimeNs.Store(0)
	s.fullClosuresAvoided.Store(0)
	s.joins.Store(0)
	s.joinVarsSum.Store(0)
	s.maintainTimeNs.Store(0)
	s.clonesAvoided.Store(0)
	s.cowMaterializations.Store(0)
	s.arenaHits.Store(0)
	s.arenaMisses.Store(0)
	s.keyCacheHits.Store(0)
	s.keyCacheMisses.Store(0)
	s.schedCoalesced.Store(0)
	s.shardContention.Store(0)
	s.schedSteals.Store(0)
	s.batchedSaved.Store(0)
}
