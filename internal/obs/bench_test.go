package obs

import (
	"testing"
)

// BenchmarkTracerDisabled measures the cost of instrumentation when
// tracing is off (nil tracer): the acceptance contract is 0 allocs/op and
// a handful of nanoseconds, so the engine can keep its spans unconditional.
func BenchmarkTracerDisabled(b *testing.B) {
	var tr *Tracer
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		sp := tr.Begin(1, 0, PhaseStep, "key")
		sp.EndAt(3, 1, "")
		tr.Mark(1, 0, PhaseGiveup, 3, "key", "stuck")
	}
}

// BenchmarkTracerAggregate is the always-on per-job mode: totals only.
func BenchmarkTracerAggregate(b *testing.B) {
	tr := NewAggregate()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		sp := tr.Begin(1, 0, PhaseStep, "key")
		sp.End()
	}
}

// BenchmarkTracerRetained is full tracing (event retention) — the
// expensive mode users opt into with -trace.
func BenchmarkTracerRetained(b *testing.B) {
	tr := NewTracer()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		sp := tr.Begin(1, 0, PhaseStep, "key")
		sp.End()
	}
}

// TestDisabledZeroAlloc enforces the zero-allocation contract in the
// ordinary test run (benchmarks don't gate CI).
func TestDisabledZeroAlloc(t *testing.T) {
	var tr *Tracer
	allocs := testing.AllocsPerRun(1000, func() {
		sp := tr.Begin(1, 0, PhaseMatch, "key")
		sp.End()
		tr.Begin(1, 0, PhaseStep, "key").EndAt(3, 2, "")
		tr.Begin(1, 0, PhaseInsert, "").WithKey("key").End()
		tr.Begin(1, 0, PhaseEnrich, "key").End()
		tr.Mark(1, 0, PhaseWidenFail, 3, "a", "b")
		tr.Fold(nil)
		_ = tr.Totals()
		_ = tr.Observed()
	})
	if allocs != 0 {
		t.Errorf("disabled tracer allocates %v per op, want 0", allocs)
	}
}
