package prof

import (
	"testing"

	"repro/internal/obs"
)

// BenchmarkProfilerFold is the cost of profiling: a tracer that keeps
// totals only, with a profiler folding its events.
func BenchmarkProfilerFold(b *testing.B) {
	tr := obs.NewAggregate()
	New().Attach(tr, 1, testGraph())
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		tr.Begin(1, 0, obs.PhaseStep, "key").EndAt(1, 1, "")
		tr.Begin(1, 0, obs.PhaseMatch, "key").EndAt(2, 0, "matched")
		tr.Begin(1, 0, obs.PhaseJoin, "key").EndAt(2, 0, "")
	}
}
