package obs

// The stall watchdog arms a no-progress deadline over a running fixpoint:
// it samples a monotone progress counter and fires (once) when the counter
// stops moving for longer than the timeout. Firing is an observation, not
// an abort — the engine keeps running; the callback's job is to log and to
// dump the tracer's retained events while the stalled state is still live.

import (
	"sync"
	"time"
)

// StallReport describes a watchdog firing.
type StallReport struct {
	// Progress is the stuck value of the progress counter.
	Progress int64
	// Stalled is how long the counter had not moved when the watchdog
	// fired (>= the configured timeout).
	Stalled time.Duration
	// At is the firing time (the watchdog's clock).
	At time.Time
}

// Watchdog watches a progress counter and invokes onStall exactly once if
// the counter ever stands still for at least timeout. The zero source of
// time is replaceable (SetClock) so tests drive the deadline
// deterministically via Check; production runs use Start's polling
// goroutine. A nil *Watchdog is valid and inert.
type Watchdog struct {
	timeout  time.Duration
	progress func() int64
	onStall  func(StallReport)
	clock    func() time.Time

	mu         sync.Mutex
	armed      bool
	last       int64
	lastChange time.Time
	fired      bool

	firedCh  chan struct{}
	stopCh   chan struct{}
	stopOnce sync.Once
	pollWG   sync.WaitGroup
}

// NewWatchdog builds a watchdog. progress must be safe to call from
// another goroutine (atomics); onStall may be nil.
func NewWatchdog(timeout time.Duration, progress func() int64, onStall func(StallReport)) *Watchdog {
	return &Watchdog{
		timeout:  timeout,
		progress: progress,
		onStall:  onStall,
		clock:    time.Now,
		firedCh:  make(chan struct{}),
		stopCh:   make(chan struct{}),
	}
}

// SetClock replaces the time source. Test hook; call before the first
// Check or Start.
func (w *Watchdog) SetClock(now func() time.Time) { w.clock = now }

// Check samples the progress counter once: it re-arms the deadline when
// the counter moved, and fires when the counter has been still for at
// least the timeout. Returns true exactly once — on the call that fires.
// Nil-safe.
func (w *Watchdog) Check() bool {
	if w == nil {
		return false
	}
	w.mu.Lock()
	if w.fired {
		w.mu.Unlock()
		return false
	}
	now := w.clock()
	cur := w.progress()
	if !w.armed || cur != w.last {
		w.armed = true
		w.last = cur
		w.lastChange = now
		w.mu.Unlock()
		return false
	}
	stalled := now.Sub(w.lastChange)
	if stalled < w.timeout {
		w.mu.Unlock()
		return false
	}
	w.fired = true
	close(w.firedCh)
	w.mu.Unlock()
	if w.onStall != nil {
		w.onStall(StallReport{Progress: cur, Stalled: stalled, At: now})
	}
	return true
}

// Start spawns the polling goroutine. poll <= 0 selects timeout/4 clamped
// to [1ms, 1s]. The goroutine exits after firing or Stop.
func (w *Watchdog) Start(poll time.Duration) {
	if w == nil {
		return
	}
	if poll <= 0 {
		poll = w.timeout / 4
		if poll < time.Millisecond {
			poll = time.Millisecond
		}
		if poll > time.Second {
			poll = time.Second
		}
	}
	w.pollWG.Add(1)
	go func() {
		defer w.pollWG.Done()
		t := time.NewTicker(poll)
		defer t.Stop()
		for {
			select {
			case <-w.stopCh:
				return
			case <-t.C:
				if w.Check() {
					return
				}
			}
		}
	}()
}

// Stop disarms the watchdog and waits for the polling goroutine (if any)
// to exit. Idempotent; nil-safe. A watchdog that already fired stays
// fired.
func (w *Watchdog) Stop() {
	if w == nil {
		return
	}
	w.stopOnce.Do(func() { close(w.stopCh) })
	w.pollWG.Wait()
}

// Fired reports whether the watchdog has fired. Nil-safe.
func (w *Watchdog) Fired() bool {
	if w == nil {
		return false
	}
	select {
	case <-w.firedCh:
		return true
	default:
		return false
	}
}

// FiredChan is closed when the watchdog fires; callers can select on it to
// hold a run open until the stall path executes (the engine's forced-stall
// test hook).
func (w *Watchdog) FiredChan() <-chan struct{} { return w.firedCh }
