package experiments

import "testing"

func BenchmarkStencilSpec(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := RunSampled([]string{"stencil"}, 1); err != nil {
			b.Fatal(err)
		}
	}
}
