package core

import (
	"math/rand"
	"testing"

	"octopus/internal/geom"
	"octopus/internal/meshgen"
	"octopus/internal/query"
	"octopus/internal/sim"
)

// TestOctopusOnHexahedralMesh covers the paper's second polyhedral
// primitive (Figure 1(b)): OCTOPUS is primitive-agnostic because it only
// sees the vertex/edge graph and the boundary-face-derived surface.
func TestOctopusOnHexahedralMesh(t *testing.T) {
	m, err := meshgen.BuildBoxHex(8, 8, 8, 0.125)
	if err != nil {
		t.Fatal(err)
	}
	o := New(m)
	c := NewCon(m, 0)
	s := sim.New(m, &sim.NoiseDeformer{Amplitude: 0.01, Frequency: 2, Seed: 3})
	r := rand.New(rand.NewSource(4))

	for step := 0; step < 5; step++ {
		s.Step()
		o.Step()
		for i := 0; i < 10; i++ {
			q := geom.BoxAround(m.Position(int32(r.Intn(m.NumVertices()))), 0.05+r.Float64()*0.2)
			want := query.BruteForce(m, q)
			checkOracle(t, "hex octopus", o.Query(q, nil), want)
			checkOracle(t, "hex con", c.Query(q, nil), want)
		}
	}
	// Hex grids have degree 6 (no diagonals): the interior query path must
	// still work through the directed walk.
	inner := geom.BoxAround(geom.V(0.5, 0.5, 0.5), 0.07)
	checkOracle(t, "hex interior", o.Query(inner, nil), query.BruteForce(m, inner))
}
