package core

import (
	"math/rand"
	"testing"

	"octopus/internal/geom"
	"octopus/internal/query"
	"octopus/internal/sim"
)

func TestHybridExactUnderSimulation(t *testing.T) {
	m := buildBox(t, 8)
	h := NewHybrid(m, 0, Constants{CS: 1, CR: 4})
	if h.Name() == "" {
		t.Error("empty name")
	}
	s := sim.New(m, &sim.NoiseDeformer{Amplitude: 0.01, Frequency: 2, Seed: 1})
	r := rand.New(rand.NewSource(2))
	for step := 0; step < 5; step++ {
		s.Step()
		h.Step()
		for i := 0; i < 8; i++ {
			// Mixed sizes so both routes fire.
			half := 0.02 + r.Float64()*0.45
			q := geom.BoxAround(m.Position(int32(r.Intn(m.NumVertices()))), half)
			checkOracle(t, "hybrid", h.Query(q, nil), query.BruteForce(m, q))
		}
	}
	oct, scan := h.Routed()
	if oct == 0 || scan == 0 {
		t.Errorf("routing degenerate: octopus=%d scan=%d (break-even %.4f)", oct, scan, h.BreakEven())
	}
	if h.MemoryFootprint() <= 0 {
		t.Error("footprint not positive")
	}
}

func TestHybridRoutingDirection(t *testing.T) {
	m := buildBox(t, 10)
	h := NewHybrid(m, 4096, Constants{CS: 1, CR: 4})

	// A whole-mesh query has selectivity ~1 >> break-even: must scan.
	h.Query(m.Bounds(), nil)
	_, scan := h.Routed()
	if scan != 1 {
		t.Errorf("whole-mesh query not routed to scan (%d)", scan)
	}
	// A tiny query must go to OCTOPUS.
	h.Query(geom.BoxAround(geom.V(0.5, 0.5, 0.5), 0.01), nil)
	oct, _ := h.Routed()
	if oct != 1 {
		t.Errorf("tiny query not routed to OCTOPUS (%d)", oct)
	}
}

func TestHybridBreakEvenMatchesModel(t *testing.T) {
	m := buildBox(t, 6)
	c := Constants{CS: 6.6e-9, CR: 2.7e-8}
	h := NewHybrid(m, 64, c)
	o := New(m)
	S := float64(o.SurfaceSize()) / float64(m.NumVertices())
	want := BreakEvenSelectivity(S, m.AvgDegree(), c)
	if h.BreakEven() != want {
		t.Errorf("break-even %v, want %v", h.BreakEven(), want)
	}
}

func TestHybridRestructuring(t *testing.T) {
	m := buildBox(t, 4)
	h := NewHybrid(m, 64, Constants{CS: 1, CR: 4})
	if _, err := m.DeleteCell(0); err != nil {
		t.Fatal(err)
	}
	q := geom.BoxAround(geom.V(0.2, 0.2, 0.2), 0.3)
	checkOracle(t, "hybrid-restructure", h.Query(q, nil), query.BruteForce(m, q))
}
