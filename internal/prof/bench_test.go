package prof

import (
	"testing"
)

// BenchmarkProfilerDisabled measures the cost of the recording surface
// when profiling is off (nil lanes): the acceptance contract is 0
// allocs/op and a handful of nanoseconds, so the engine can keep its
// recording calls unconditional — the analogue of BenchmarkTracerDisabled.
func BenchmarkProfilerDisabled(b *testing.B) {
	var l *Lane
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		l.Step(3, 100, 1)
		l.Match(3, 100, 1, 1, 50, true)
		l.Combine(3, i%2 == 0)
		l.GiveUp(3)
		l.TopDemotion(3)
	}
}

// BenchmarkProfilerEnabled is the opt-in cost: plain adds into a private
// lane.
func BenchmarkProfilerEnabled(b *testing.B) {
	l := New().NewLane(16)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		l.Step(3, 100, 1)
		l.Match(3, 100, 1, 1, 50, true)
		l.Combine(3, i%2 == 0)
	}
}

// TestDisabledZeroAlloc enforces the zero-allocation contract in the
// ordinary test run (benchmarks don't gate CI).
func TestDisabledZeroAlloc(t *testing.T) {
	var l *Lane
	var p *Profiler
	allocs := testing.AllocsPerRun(1000, func() {
		l.Step(2, 100, 3)
		l.Match(2, 100, 1, 1, 50, false)
		l.Combine(2, true)
		l.WidenFail(2, "a", "b")
		l.GiveUp(2)
		l.TopDemotion(2)
		if p.NewLane(16) != nil {
			t.Fatal("nil profiler produced lanes")
		}
		p.Commit(nil, nil)
	})
	if allocs != 0 {
		t.Errorf("disabled profiler allocates %v per op, want 0", allocs)
	}
}
