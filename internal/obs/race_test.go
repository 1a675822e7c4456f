package obs

import (
	"fmt"
	"sync"
	"testing"
)

// TestTracerConcurrentHammer drives one tracer from 8 goroutines (plus
// concurrent readers), the way concurrent analyses share a -trace tracer;
// run under -race in CI it proves the event store, the atomic totals and
// the progress renderers are data-race free.
func TestTracerConcurrentHammer(t *testing.T) {
	tr := NewTracer()
	tracker := NewProgressTracker()
	const workers, iters = 8, 500

	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				step := tr.Begin(1, w, PhaseStep, "k")
				inner := tr.Begin(1, w, PhaseTransfer+Phase(i%6), "k")
				inner.EndDetail(fmt.Sprintf("i=%d", i))
				step.End()
				// Register and finish jobs while renders are in flight, as
				// analyses do against a concurrent /metrics scrape.
				job := w*100 + i%17
				tracker.Register(job, func() Progress { return Progress{Job: job, Steps: int64(i)} })
				if i%2 == 0 {
					tracker.Finish(job, Progress{Job: job, Steps: int64(i), CG: map[string]int64{"joins": 1}})
				}
			}
		}(w)
	}
	// Concurrent readers: totals, events and both progress renders
	// hammered for the writers' whole lifetime.
	writersDone := make(chan struct{})
	done := make(chan struct{})
	go func() {
		defer close(done)
		for {
			_ = tr.Totals()
			_ = tr.Events()
			_ = tracker.WritePrometheus(nopWriter{})
			_ = tracker.WriteStatusz(nopWriter{})
			select {
			case <-writersDone:
				return
			default:
			}
		}
	}()
	wg.Wait()
	close(writersDone)
	<-done

	if n := len(tr.Events()); n != workers*iters*2 {
		t.Errorf("events = %d, want %d", n, workers*iters*2)
	}
	if got := tr.Totals()["step"]; got.Count != workers*iters {
		t.Errorf("step count = %d", got.Count)
	}
	if n := len(tracker.Snapshot()); n != workers*17 {
		t.Errorf("tracker jobs = %d, want %d", n, workers*17)
	}
	// The merged snapshot must be well-formed (no partial overlaps within
	// a lane) despite the concurrency.
	if probs := Check(tr.Events(), 0); len(probs) != 0 {
		t.Errorf("hammered trace malformed: %v", probs[:min(3, len(probs))])
	}
}

type nopWriter struct{}

func (nopWriter) Write(p []byte) (int, error) { return len(p), nil }
