package cg

import (
	"fmt"
	"testing"
)

// buildGraph returns a closed graph with n variables and a band of
// constraints, sized like the paper's profile (~60 vars).
func buildGraph(n int, backend Backend) *Graph {
	g := New(Options{Backend: backend})
	for i := 0; i < n; i++ {
		g.AddLE(fmt.Sprintf("v%d", i), fmt.Sprintf("v%d", (i+1)%n), int64(i%7)+1)
	}
	return g
}

// BenchmarkClone measures state forking: with copy-on-write this is an O(1)
// reference bump regardless of backend or variable count.
func BenchmarkClone(b *testing.B) {
	for _, backend := range []Backend{ArrayBackend, MapBackend} {
		b.Run(backend.String(), func(b *testing.B) {
			g := buildGraph(60, backend)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				_ = g.Clone()
			}
		})
	}
}

// BenchmarkCloneMutate measures the full fork-then-write path: the clone's
// first AddLE pays the deferred copy (materialization) plus the incremental
// closure.
func BenchmarkCloneMutate(b *testing.B) {
	for _, backend := range []Backend{ArrayBackend, MapBackend} {
		b.Run(backend.String(), func(b *testing.B) {
			g := buildGraph(60, backend)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				c := g.Clone()
				c.AddLE("v1", "v2", 1)
			}
		})
	}
}

// BenchmarkAddLE measures the incremental O(n^2) closure on a private graph.
func BenchmarkAddLE(b *testing.B) {
	for _, backend := range []Backend{ArrayBackend, MapBackend} {
		b.Run(backend.String(), func(b *testing.B) {
			g := buildGraph(60, backend)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				g.AddLE("v3", "v7", int64(i%5)+1)
			}
		})
	}
}

// BenchmarkJoin measures the pointwise-max join of two closed graphs.
func BenchmarkJoin(b *testing.B) {
	for _, backend := range []Backend{ArrayBackend, MapBackend} {
		b.Run(backend.String(), func(b *testing.B) {
			x := buildGraph(60, backend)
			y := buildGraph(60, backend)
			y.AddLE("v5", "v9", 2)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				_ = Join(x, y)
			}
		})
	}
}

// BenchmarkCloneMutateArena measures the steady-state clone -> CoW
// materialize -> release cycle: with the size-class arena, the matrix a
// materialization needs comes back from the pool the previous release fed,
// so the per-cycle allocation cost collapses to the Graph header.
func BenchmarkCloneMutateArena(b *testing.B) {
	g := buildGraph(60, ArrayBackend)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c := g.Clone()
		c.AddLE("v1", "v2", 1)
		c.Release()
	}
}

// atomSink keeps benchmarked lookups from being optimized away.
var atomSink Atom

// BenchmarkLookupAtom measures an atom-table read hit, the symbol lookup
// behind every string-keyed graph query, single-threaded and with every
// worker reading at once.
func BenchmarkLookupAtom(b *testing.B) {
	for i := 0; i < 200; i++ {
		Intern(fmt.Sprintf("ps%d.x", i))
	}
	name := fmt.Sprintf("ps%d.x", 17)
	b.Run("serial", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			atomSink, _ = LookupAtom(name)
		}
	})
	b.Run("parallel", func(b *testing.B) {
		b.ReportAllocs()
		b.RunParallel(func(pb *testing.PB) {
			var a Atom
			for pb.Next() {
				a, _ = LookupAtom(name)
			}
			_ = a
		})
	})
}
