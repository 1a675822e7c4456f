package experiments

import "testing"

func BenchmarkStencilSpec(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, _, err := RunSpec("stencil"); err != nil {
			b.Fatal(err)
		}
	}
}
