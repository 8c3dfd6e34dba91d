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

// BenchmarkFirstRestructure times the first DeleteCell on a fresh copy of
// neuro-l5: the restructuring state a mesh builds once, plus one delete.
// The copy (an identity Renumber) is made outside the timer.
func BenchmarkFirstRestructure(b *testing.B) {
	src, err := meshgen.BuildCached(meshgen.NeuroL5, 1)
	if err != nil {
		b.Fatal(err)
	}
	identity := make([]int32, src.NumVertices())
	for i := range identity {
		identity[i] = int32(i)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		m, err := src.Renumber(identity)
		if err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
		if _, err := m.DeleteCell(0); err != nil {
			b.Fatal(err)
		}
	}
}
