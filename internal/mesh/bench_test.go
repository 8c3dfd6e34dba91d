package mesh_test

import (
	"testing"

	"octopus/internal/meshgen"
)

// BenchmarkSurfaceVertices times a fresh surface derivation — the
// bucketed face match over every live cell — on neuro-l5.
func BenchmarkSurfaceVertices(b *testing.B) {
	m, err := meshgen.BuildCached(meshgen.NeuroL5, 1)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.ForgetSurface()
		m.SurfaceVertices()
	}
}
