package core

import (
	"sync"
	"sync/atomic"

	"repro/internal/cg"
)

// workQueue orders the ids of configurations awaiting (re)visits. The
// engine guarantees an id is enqueued at most once at a time (the
// worklist's classic "in work" set), so implementations never see
// duplicates.
type workQueue interface {
	push(id uint64)
	pop() (uint64, bool)
	size() int
}

// ringQueue is a FIFO over a slice with an explicit head index. Popping
// advances the head instead of re-slicing, so the backing array's popped
// prefix does not accumulate for the lifetime of the analysis (the old
// `work = work[1:]` loop retained every key string ever queued); once the
// dead prefix dominates the backing array it is compacted away.
type ringQueue struct {
	buf  []uint64
	head int
}

func (q *ringQueue) push(id uint64) {
	if q.head > 64 && q.head*2 >= len(q.buf) {
		n := copy(q.buf, q.buf[q.head:])
		q.buf = q.buf[:n]
		q.head = 0
	}
	q.buf = append(q.buf, id)
}

func (q *ringQueue) pop() (uint64, bool) {
	if q.head == len(q.buf) {
		return 0, false
	}
	id := q.buf[q.head]
	q.head++
	return id, true
}

func (q *ringQueue) size() int { return len(q.buf) - q.head }

// lifoQueue is a stack: depth-first exploration of the configuration
// space. Reaches fixpoints on loop bodies before exploring siblings.
type lifoQueue struct {
	buf []uint64
}

func (q *lifoQueue) push(id uint64) { q.buf = append(q.buf, id) }

func (q *lifoQueue) pop() (uint64, bool) {
	if len(q.buf) == 0 {
		return 0, false
	}
	id := q.buf[len(q.buf)-1]
	q.buf = q.buf[:len(q.buf)-1]
	return id, true
}

func (q *lifoQueue) size() int { return len(q.buf) }

// newQueue builds the queue backend for a schedule name (validated by
// Options.schedule).
func newQueue(schedule string) workQueue {
	if schedule == ScheduleFIFO {
		return &ringQueue{}
	}
	return &lifoQueue{}
}

// Per-configuration scheduler states. A configuration is idle (not
// queued, not being stepped), queued, running on some worker, or running
// with a revision that arrived mid-step (dirty) and therefore needs a
// requeue when the step finishes.
const (
	cfgIdle uint8 = iota
	cfgQueued
	cfgRunning
	cfgRunningDirty
)

// schedShard is one slice of the sharded scheduler: its own queue, state
// map and lock. Scheduler shards are aligned with the configuration-table
// shards (same count, same mask), so a step's batched table commit for one
// table shard feeds exactly one scheduler shard — one push critical
// section per commit critical section.
type schedShard struct {
	mu    sync.Mutex
	q     workQueue
	state map[uint64]uint8
}

// scheduler coordinates the worklist: sharded run queues, a
// per-configuration state machine, and termination detection. The
// invariant behind the termination detector: pending counts configurations
// that are queued or running; a worker holds its pop "in flight" until it
// calls done, so pending==0 means no configuration can ever become queued
// again — the fixpoint is reached. pending and queued are global atomics
// so workers check for termination and emptiness without sweeping shards;
// the per-shard mutexes only serialize same-shard queue and state-map
// operations.
type scheduler struct {
	shards []schedShard
	mask   uint64
	// pending counts configurations queued or running; queued counts
	// configurations sitting in some shard queue right now.
	pending atomic.Int64
	queued  atomic.Int64
	stopped atomic.Bool
	stats   *cg.Stats
	// stealing is set when more than one worker pops: only then is a pop
	// off the home shard taken from another worker's slice and counted as
	// a steal. A lone worker's home is every shard.
	stealing bool
	// High-water marks for the observability gauges: deepest the queues got
	// (summed) and most configurations simultaneously queued-or-running.
	depthHW   atomic.Int64
	pendingHW atomic.Int64
	// mu/cond only coordinate worker sleep when no work is visible;
	// sleepers lets pushers skip the lock entirely while every worker is
	// busy (the common case).
	mu       sync.Mutex
	cond     *sync.Cond
	sleepers atomic.Int64
}

func newScheduler(schedule string, nshards, workers int, stats *cg.Stats) *scheduler {
	s := &scheduler{shards: make([]schedShard, nshards), mask: uint64(nshards - 1), stats: stats,
		stealing: workers > 1}
	for i := range s.shards {
		s.shards[i].q = newQueue(schedule)
		s.shards[i].state = make(map[uint64]uint8, 8)
	}
	s.cond = sync.NewCond(&s.mu)
	return s
}

// hwMax raises a high-water mark to v (lock-free monotonic max).
func hwMax(hw *atomic.Int64, v int64) {
	for {
		cur := hw.Load()
		if v <= cur || hw.CompareAndSwap(cur, v) {
			return
		}
	}
}

// push requests a (re)visit of one configuration.
func (s *scheduler) push(id uint64) {
	s.pushShard(id&s.mask, []uint64{id})
}

// pushShard requests (re)visits of a batch of configurations, all owned by
// scheduler shard si, under one lock acquisition. Pushes onto an
// already-queued or already-dirty configuration coalesce: the single
// upcoming visit will observe the revised table entry, saving a full step.
// Pushes onto a running configuration mark it dirty so it is requeued
// after its in-flight step (which read a pre-revision snapshot) completes.
func (s *scheduler) pushShard(si uint64, ids []uint64) {
	if len(ids) == 0 || s.stopped.Load() {
		return
	}
	if len(ids) > 1 {
		s.stats.AddBatchedSaved(int64(len(ids) - 1))
	}
	sh := &s.shards[si]
	newly, coalesced := 0, int64(0)
	sh.mu.Lock()
	for _, id := range ids {
		switch sh.state[id] {
		case cfgIdle:
			sh.state[id] = cfgQueued
			sh.q.push(id)
			newly++
		case cfgQueued, cfgRunningDirty:
			coalesced++
		case cfgRunning:
			sh.state[id] = cfgRunningDirty
		}
	}
	sh.mu.Unlock()
	if coalesced > 0 {
		s.stats.AddSchedCoalesced(coalesced)
	}
	if newly == 0 {
		return
	}
	hwMax(&s.pendingHW, s.pending.Add(int64(newly)))
	hwMax(&s.depthHW, s.queued.Add(int64(newly)))
	s.wake()
}

// wake releases sleeping workers after work became visible. The sleepers
// fast path keeps pushes lock-free while all workers are busy; the
// broadcast is taken under mu so a worker between its condition re-check
// and cond.Wait cannot miss it (the pusher blocks on mu until the worker
// is parked).
func (s *scheduler) wake() {
	if s.sleepers.Load() == 0 {
		return
	}
	s.mu.Lock()
	s.cond.Broadcast()
	s.mu.Unlock()
}

// pop blocks until a configuration is available, the fixpoint is reached,
// or the scheduler is stopped. ok=false means the worker should exit.
// home is the worker's preferred shard; when it is empty the worker steals
// from the other shards (scanning upward from home).
func (s *scheduler) pop(home int) (uint64, bool) {
	for {
		if s.stopped.Load() {
			return 0, false
		}
		if s.queued.Load() > 0 {
			if id, ok := s.tryPop(home); ok {
				return id, true
			}
			continue
		}
		if s.pending.Load() == 0 {
			return 0, false
		}
		// Nothing queued but steps are in flight: park until a push (or the
		// final done) broadcasts. The condition re-check after registering
		// as a sleeper closes the race against a concurrent pusher: the
		// pusher makes queued>0 visible before reading sleepers, so either
		// it sees this sleeper and broadcasts under mu, or this load sees
		// its work.
		s.mu.Lock()
		s.sleepers.Add(1)
		for s.queued.Load() == 0 && s.pending.Load() > 0 && !s.stopped.Load() {
			s.cond.Wait()
		}
		s.sleepers.Add(-1)
		s.mu.Unlock()
	}
}

// tryPop pops from the home shard, or failing that steals from the first
// non-empty shard above it (wrapping).
func (s *scheduler) tryPop(home int) (uint64, bool) {
	n := len(s.shards)
	for i := 0; i < n; i++ {
		sh := &s.shards[(home+i)%n]
		sh.mu.Lock()
		id, ok := sh.q.pop()
		if ok {
			sh.state[id] = cfgRunning
		}
		sh.mu.Unlock()
		if ok {
			s.queued.Add(-1)
			if i != 0 && s.stealing {
				s.stats.AddSchedSteals(1)
			}
			return id, true
		}
		if s.queued.Load() == 0 {
			break
		}
	}
	return 0, false
}

// done reports that the step for id finished. A dirty configuration is
// requeued (its in-flight step used a stale snapshot); otherwise it goes
// idle, and if it was the last pending configuration the fixpoint is
// reached and all parked workers are released.
func (s *scheduler) done(id uint64) {
	sh := &s.shards[id&s.mask]
	sh.mu.Lock()
	if sh.state[id] == cfgRunningDirty && !s.stopped.Load() {
		sh.state[id] = cfgQueued
		sh.q.push(id)
		sh.mu.Unlock()
		hwMax(&s.depthHW, s.queued.Add(1))
		s.wake()
		return
	}
	sh.state[id] = cfgIdle
	sh.mu.Unlock()
	if s.pending.Add(-1) == 0 {
		s.mu.Lock()
		s.cond.Broadcast()
		s.mu.Unlock()
	}
}

// liveDepth reports how many configurations are queued right now (for the
// live metrics gauge).
func (s *scheduler) liveDepth() int { return int(s.queued.Load()) }

// shardDepths samples every shard's queue size (one brief lock per shard)
// for the per-shard frontier breakdown in progress snapshots.
func (s *scheduler) shardDepths() []int {
	out := make([]int, len(s.shards))
	for i := range s.shards {
		sh := &s.shards[i]
		sh.mu.Lock()
		out[i] = sh.q.size()
		sh.mu.Unlock()
	}
	return out
}

// livePending reports how many configurations are queued or running.
func (s *scheduler) livePending() int { return int(s.pending.Load()) }

// highWater reports the queue-depth and pending-count high-water marks.
func (s *scheduler) highWater() (depth, pending int) {
	return int(s.depthHW.Load()), int(s.pendingHW.Load())
}

// stop aborts the run (step budget exhausted): workers drain immediately.
func (s *scheduler) stop() {
	s.stopped.Store(true)
	s.mu.Lock()
	s.cond.Broadcast()
	s.mu.Unlock()
}
