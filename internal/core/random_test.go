package core

import (
	"math/rand"
	"testing"

	"octopus/internal/geom"
	"octopus/internal/mesh"
	"octopus/internal/query"
	"octopus/internal/sim"
)

// buildRandomPartialGrid builds a mesh from a random subset of the cubes
// of an n^3 Kuhn grid — arbitrarily non-convex, possibly disconnected, with
// holes: the adversarial geometry class for OCTOPUS' correctness argument.
func buildRandomPartialGrid(t *testing.T, n int, keepProb float64, r *rand.Rand) *mesh.Mesh {
	t.Helper()
	kuhn := [6][4]int{{0, 1, 3, 7}, {0, 1, 5, 7}, {0, 2, 3, 7}, {0, 2, 6, 7}, {0, 4, 5, 7}, {0, 4, 6, 7}}
	b := mesh.NewBuilder(0, 0)
	vid := map[[3]int]int32{}
	vertex := func(x, y, z int) int32 {
		key := [3]int{x, y, z}
		if id, ok := vid[key]; ok {
			return id
		}
		id := b.AddVertex(geom.V(float64(x), float64(y), float64(z)))
		vid[key] = id
		return id
	}
	kept := 0
	for z := 0; z < n; z++ {
		for y := 0; y < n; y++ {
			for x := 0; x < n; x++ {
				if r.Float64() > keepProb {
					continue
				}
				kept++
				var c [8]int32
				for bit := 0; bit < 8; bit++ {
					c[bit] = vertex(x+bit&1, y+(bit>>1)&1, z+(bit>>2)&1)
				}
				for _, k := range kuhn {
					b.AddTet(c[k[0]], c[k[1]], c[k[2]], c[k[3]])
				}
			}
		}
	}
	if kept == 0 {
		// Guarantee a non-empty mesh.
		var c [8]int32
		for bit := 0; bit < 8; bit++ {
			c[bit] = vertex(bit&1, (bit>>1)&1, (bit>>2)&1)
		}
		for _, k := range kuhn {
			b.AddTet(c[k[0]], c[k[1]], c[k[2]], c[k[3]])
		}
	}
	m, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// TestOctopusExactOnRandomPartialGrids is the randomized exactness
// property: on 30 random non-convex (hole-ridden, often disconnected)
// meshes under deformation, OCTOPUS must equal brute force for every
// query shape — including boxes spanning holes and disconnected parts.
func TestOctopusExactOnRandomPartialGrids(t *testing.T) {
	r := rand.New(rand.NewSource(99))
	for trial := 0; trial < 30; trial++ {
		keep := 0.2 + 0.6*r.Float64()
		m := buildRandomPartialGrid(t, 4+r.Intn(3), keep, r)
		if err := m.Validate(); err != nil {
			t.Fatal(err)
		}
		o := New(m)
		d := &sim.NoiseDeformer{Amplitude: 0.05, Frequency: 1.2, Seed: int64(trial)}
		for step := 0; step < 2; step++ {
			d.Step(step, m.Positions())
			o.Step()
			bounds := m.Bounds()
			for i := 0; i < 8; i++ {
				var q geom.AABB
				switch i % 4 {
				case 0: // centered at a random vertex
					q = geom.BoxAround(m.Position(int32(r.Intn(m.NumVertices()))), 0.3+2.5*r.Float64())
				case 1: // random placement, may miss the mesh
					q = geom.BoxAround(geom.V(
						bounds.Min.X+r.Float64()*bounds.Size().X,
						bounds.Min.Y+r.Float64()*bounds.Size().Y,
						bounds.Min.Z+r.Float64()*bounds.Size().Z,
					), 0.2+r.Float64())
				case 2: // whole mesh
					q = bounds
				case 3: // fully disjoint
					q = geom.BoxAround(bounds.Max.Add(geom.V(5, 5, 5)), 1)
				}
				got := o.Query(q, nil)
				want := query.BruteForce(m, q)
				if d := query.Diff(got, want); d != "" {
					t.Fatalf("trial %d step %d query %d (keep %.2f): %s",
						trial, step, i, keep, d)
				}
			}
		}
	}
}

// TestOctopusMaintenanceUnderDeformationAndRestructuring interleaves the
// two mesh transformation kinds of §IV-E2 — deformation (no maintenance)
// and restructuring (surface-index deltas) — and checks exactness after
// every event.
func TestOctopusMaintenanceUnderDeformationAndRestructuring(t *testing.T) {
	r := rand.New(rand.NewSource(5))
	m := buildRandomPartialGrid(t, 4, 0.8, r)
	o := New(m)
	d := &sim.NoiseDeformer{Amplitude: 0.03, Frequency: 1.5, Seed: 2}

	for step := 0; step < 25; step++ {
		d.Step(step, m.Positions())
		o.Step()

		// Occasionally restructure.
		if step%3 == 0 {
			live := []int{}
			for ci := range m.Cells() {
				if !m.Cells()[ci].Dead {
					live = append(live, ci)
				}
			}
			if len(live) > 0 {
				ci := live[r.Intn(len(live))]
				var err error
				if r.Intn(2) == 0 {
					_, _, err = m.SplitCell(ci)
				} else {
					_, err = m.DeleteCell(ci)
				}
				if err != nil {
					t.Fatal(err)
				}
			}
		}

		q := geom.BoxAround(m.Position(int32(r.Intn(m.NumVertices()))), 0.5+2*r.Float64())
		got := o.Query(q, nil)
		want := query.BruteForce(m, q)
		if d := query.Diff(got, want); d != "" {
			t.Fatalf("step %d: %s", step, d)
		}
	}
}
