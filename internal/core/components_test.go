package core

import (
	"fmt"
	"math"
	"slices"
	"testing"

	"octopus/internal/geom"
	"octopus/internal/mesh"
	"octopus/internal/meshgen"
	"octopus/internal/query"
	"octopus/internal/shard"
	"octopus/internal/sim"
	"octopus/internal/workload"
)

// buildStarAndSpeck builds the adversarial two-component mesh of the
// multi-component regression tests:
//
//   - component 0 ("star"): an octahedron around center (10,0,0) with
//     shell radius 2, split into eight tetrahedra that all share the
//     center vertex — the center is the mesh's only interior vertex, and
//     its surface is very coarse (six vertices, all 2 away);
//   - component 1 ("speck"): a tiny tetrahedron around (8.94, 0.04, 0.04),
//     disconnected from the star but much closer to boxes near the star's
//     center than any star surface vertex.
//
// A query box around the star's center therefore contains only an interior
// vertex, while the closest surface vertex belongs to the wrong component:
// exactly the geometry where a single directed walk exhausts the speck and
// gives up.
func buildStarAndSpeck(t testing.TB) (m *mesh.Mesh, center int32) {
	t.Helper()
	b := mesh.NewBuilder(11, 9)
	xs := [2]int32{b.AddVertex(geom.V(8, 0, 0)), b.AddVertex(geom.V(12, 0, 0))}
	ys := [2]int32{b.AddVertex(geom.V(10, -2, 0)), b.AddVertex(geom.V(10, 2, 0))}
	zs := [2]int32{b.AddVertex(geom.V(10, 0, -2)), b.AddVertex(geom.V(10, 0, 2))}
	center = b.AddVertex(geom.V(10, 0, 0))
	for xi := 0; xi < 2; xi++ {
		for yi := 0; yi < 2; yi++ {
			for zi := 0; zi < 2; zi++ {
				b.AddTet(center, xs[xi], ys[yi], zs[zi])
			}
		}
	}
	s0 := b.AddVertex(geom.V(8.90, 0, 0))
	s1 := b.AddVertex(geom.V(8.98, 0.08, 0))
	s2 := b.AddVertex(geom.V(8.98, 0, 0.08))
	s3 := b.AddVertex(geom.V(8.92, 0.08, 0.08))
	b.AddTet(s0, s1, s2, s3)
	m, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Validate(); err != nil {
		t.Fatal(err)
	}
	if count, _ := m.ConnectedComponents(); count != 2 {
		t.Fatalf("expected 2 components, got %d", count)
	}
	return m, center
}

// interiorSecondaryBox is a range query that contains only the star's
// interior center vertex: no surface vertex of either component is inside,
// and the closest surface vertices to the box belong to the speck.
func interiorSecondaryBox() geom.AABB {
	return geom.AABB{
		Min: geom.V(9.05, -0.35, -0.35),
		Max: geom.V(10.02, 0.35, 0.35),
	}
}

// TestRangeInteriorSecondaryComponentOctopus is the regression test for
// the no-seed range path on multi-component meshes: before the
// per-component walk retry, the walk started from the speck (the closest
// surface vertices), exhausted it, and the query silently returned empty.
func TestRangeInteriorSecondaryComponentOctopus(t *testing.T) {
	m, center := buildStarAndSpeck(t)
	q := interiorSecondaryBox()
	want := query.BruteForce(m, q)
	if len(want) != 1 || want[0] != center {
		t.Fatalf("test geometry broken: brute force = %v, want [%d]", want, center)
	}
	o := New(m)
	checkOracle(t, "octopus interior-secondary", o.Query(q, nil), want)

	// The same exactness must hold through per-goroutine cursors.
	cur := o.NewCursor().(*Cursor)
	checkOracle(t, "octopus cursor interior-secondary", cur.Query(q, nil), want)
}

// TestRangeInteriorSecondaryComponentCon is the OCTOPUS-CON variant: the
// stale grid hands back a start vertex from the speck's cell ring (the
// speck sits between the box center and the star's center cell), the walk
// exhausts the speck, and pre-fix the query returned empty.
func TestRangeInteriorSecondaryComponentCon(t *testing.T) {
	m, center := buildStarAndSpeck(t)
	q := interiorSecondaryBox()
	want := query.BruteForce(m, q)
	if len(want) != 1 || want[0] != center {
		t.Fatalf("test geometry broken: brute force = %v", want)
	}
	c := NewCon(m, 0)
	checkOracle(t, "con interior-secondary", c.Query(q, nil), want)
}

// TestRangeInteriorSecondaryComponentHybrid pins the hybrid's OCTOPUS side
// (constants with a huge CS:CR ratio push the break-even to ~1, so no
// query routes to the scan) and checks the same regression through its
// routing layer.
func TestRangeInteriorSecondaryComponentHybrid(t *testing.T) {
	m, center := buildStarAndSpeck(t)
	q := interiorSecondaryBox()
	want := query.BruteForce(m, q)
	if len(want) != 1 || want[0] != center {
		t.Fatalf("test geometry broken: brute force = %v", want)
	}
	h := NewHybrid(m, 0, Constants{CS: 1, CR: 1e-9})
	got := h.Query(q, nil)
	if oct, scan := h.Routed(); oct != 1 || scan != 0 {
		t.Fatalf("query was not routed to OCTOPUS (oct=%d scan=%d)", oct, scan)
	}
	checkOracle(t, "hybrid interior-secondary", got, want)
}

// TestRangeDisjointQueryStaysEmpty guards the other side of the retry: a
// box intersecting neither component must still return empty (every
// component's walk fails, none finds a phantom seed).
func TestRangeDisjointQueryStaysEmpty(t *testing.T) {
	m, _ := buildStarAndSpeck(t)
	q := geom.BoxAround(geom.V(20, 20, 20), 1)
	o := New(m)
	if got := o.Query(q, nil); len(got) != 0 {
		t.Fatalf("disjoint query returned %v", got)
	}
	c := NewCon(m, 0)
	if got := c.Query(q, nil); len(got) != 0 {
		t.Fatalf("disjoint query (con) returned %v", got)
	}
}

// TestKNNAcrossComponents checks that the crawl-based kNN searches every
// connected component: probes between the two components must mix
// candidates from both, exactly as brute force does.
func TestKNNAcrossComponents(t *testing.T) {
	m, _ := buildStarAndSpeck(t)
	engines := []struct {
		name string
		eng  query.KNNEngine
	}{
		{"octopus", New(m)},
		{"con", NewCon(m, 0)},
		{"hybrid", NewHybrid(m, 0, Constants{CS: 1, CR: 1e-9})},
	}
	probes := []geom.Vec3{
		geom.V(9.9, 0, 0),     // nearest is the star's interior center
		geom.V(8.94, 0.04, 0), // nearest are the speck's vertices
		geom.V(9.5, 0, 0),     // between the components
		geom.V(0, 0, 0),       // far outside both
	}
	for _, e := range engines {
		for pi, p := range probes {
			for _, k := range []int{1, 2, 4, 7, 11, 20} {
				want := query.BruteForceKNN(m, p, k)
				got := e.eng.KNN(p, k, nil)
				if len(got) != len(want) {
					t.Fatalf("%s probe %d k=%d: %d results, want %d",
						e.name, pi, k, len(got), len(want))
				}
				for i := range got {
					if got[i] != want[i] {
						t.Fatalf("%s probe %d k=%d: result[%d] = %d, want %d",
							e.name, pi, k, i, got[i], want[i])
					}
				}
			}
		}
	}
}

// buildCubeAndBar builds the two-component mesh of the component-skip
// test, each a block of unit cubes split into Kuhn tetrahedra:
//
//   - the cube: 2×2×2 cells over [0, 2]³, whose one interior vertex, the
//     center (1, 1, 1), is vertex 0;
//   - the bar: 7×1×1 cells over [4, 11]×[0, 1]×[0, 1], vertices 1–32, all
//     on its surface.
//
// The bar's 32 vertices precede the cube's 26 surface vertices, so the
// bar fills surface leaf 0 and the cube leaf 1: each component's box is
// its own surface's, and the cube's center, found only by the descent
// from the cube's representative, has the lowest id of the mesh.
func buildCubeAndBar(t testing.TB) *mesh.Mesh {
	t.Helper()
	b := mesh.NewBuilder(59, 8*6+7*6)
	b.AddVertex(geom.V(1, 1, 1))
	// block adds the Kuhn tetrahedra of nx×n×n cells over the grid ids.
	block := func(nx, n int, id func(x, y, z int) int32) {
		for z := 0; z < n; z++ {
			for y := 0; y < n; y++ {
				for x := 0; x < nx; x++ {
					var corner [8]int32
					for bit := 0; bit < 8; bit++ {
						corner[bit] = id(x+bit&1, y+bit>>1&1, z+bit>>2&1)
					}
					for _, a := range [3]int{1, 2, 4} {
						for _, c := range [3]int{1, 2, 4} {
							if a != c {
								b.AddTet(corner[0], corner[a], corner[a|c], corner[7])
							}
						}
					}
				}
			}
		}
	}
	bar := func(x, y, z int) int32 { return int32(1 + x + 8*(y+2*z)) }
	for z := 0; z <= 1; z++ {
		for y := 0; y <= 1; y++ {
			for x := 0; x <= 7; x++ {
				b.AddVertex(geom.V(float64(4+x), float64(y), float64(z)))
			}
		}
	}
	var cube [3][3][3]int32
	for z := range 3 {
		for y := range 3 {
			for x := range 3 {
				if x == 1 && y == 1 && z == 1 {
					continue
				}
				cube[x][y][z] = b.AddVertex(geom.V(float64(x), float64(y), float64(z)))
			}
		}
	}
	block(7, 1, bar)
	block(2, 2, func(x, y, z int) int32 { return cube[x][y][z] })
	m, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Validate(); err != nil {
		t.Fatal(err)
	}
	return m
}

// TestKNNSkipsUnreachableComponents holds the kNN's component skip (step
// 4 of knnWith: a component whose box lies strictly beyond the probe's
// bound is not descended into) to brute force through every writer of
// the component boxes, and shows the walk it saves on neuro-l5.
//
// The cube is moved by published Deforms and by in-place writes followed
// by Step, far away and back so that its center lands exactly on a bar
// vertex: a kNN there finds the bar vertex first, at distance 0, and the
// cube's center — interior, reached only by the descent from the cube's
// representative — must still win the tie on its lower id. The cube's box
// then touches the bound, so a skip on ">=" drops it, and so does one
// that reads the box of the other buffer (the cube was far away at the
// previous epoch). The same probes run under RestrictKNN and under a
// CrawlBudget that never binds. Deleting the cells around a cube corner
// isolates it, a component without surface whose box prunes nothing, and
// deleting a cell's worth of the bar cuts it into two components, each
// with its own box. On neuro-l5 a kNN walks fewer than 10 steps on
// average (≈ 35 without the skip).
func TestKNNSkipsUnreachableComponents(t *testing.T) {
	ks := []int{1, 2, 4, 7, 11}
	t.Run("cube-and-bar", func(t *testing.T) {
		const center = 0
		m := buildCubeAndBar(t)
		o := New(m)
		cur := o.NewCursor().(*Cursor)
		orig := append([]geom.Vec3(nil), m.Positions()...)
		// placeCube puts the cube's center at c, its shell around it as built.
		placeCube := func(pos []geom.Vec3, c geom.Vec3) {
			for v := range pos {
				if v == center || v > 32 {
					pos[v] = c.Add(orig[v].Sub(orig[center]))
				}
			}
		}
		check := func(state string, probes ...geom.Vec3) {
			t.Helper()
			checkIndex(t, state, o)
			pos := m.Positions()
			probes = append(probes, pos[center], pos[center].Add(geom.V(0.3, 0.2, 0.1)), geom.V(3, 0.5, 0.5), geom.V(7.5, 0.5, 0.5), geom.V(-5, 0, 0))
			for _, p := range probes {
				for _, k := range ks {
					checkKNN(t, fmt.Sprintf("%s p=%v k=%d", state, p, k), cur, pos, p, k)
				}
			}
		}
		tie := func(state string, p geom.Vec3) {
			t.Helper()
			if got := cur.KNN(p, 1, nil); len(got) != 1 || got[0] != center {
				t.Fatalf("%s: the nearest of p=%v is %v, want the cube's center %d (a tie at distance 0, lower id)", state, p, got, center)
			}
		}
		check("static")
		far := geom.V(60, 0, 0)
		m.Deform(func(pos []geom.Vec3) { placeCube(pos, far) })
		check("published far", far.Add(geom.V(0.1, 0, 0)))
		onBar := m.Position(3)
		m.Deform(func(pos []geom.Vec3) { placeCube(pos, onBar) })
		check("published onto the bar", onBar)
		tie("published onto the bar", onBar)

		placeCube(m.Positions(), far)
		o.Step()
		check("in place far", far)
		onBar = m.Position(20)
		placeCube(m.Positions(), onBar)
		o.Step()
		check("in place onto the bar", onBar)
		tie("in place onto the bar", onBar)

		// Restricted: without the bar vertex under the center, without
		// the center, and under ceilings at 0, inside the shell and
		// beyond it.
		n := m.NumVertices()
		noBar, noCenter := make([]bool, n), make([]bool, n)
		for v := range n {
			noBar[v], noCenter[v] = v != 20, v != center
		}
		for _, keep := range [][]bool{nil, noBar, noCenter} {
			for _, ceiling2 := range []float64{0, 0.5, 4.5, math.Inf(1)} {
				for _, p := range []geom.Vec3{onBar, onBar.Add(geom.V(0.05, 0.05, 0.05)), far} {
					for _, k := range ks {
						label := fmt.Sprintf("restricted p=%v k=%d ceiling2=%g", p, k, ceiling2)
						cur.RestrictKNN(keep, ceiling2)
						want, wantBound := restrictedBruteForce(m, p, k, keep, ceiling2)
						knnOracle(t, label, cur.KNN(p, k, nil), want)
						if b, ok := cur.LastKNNBound2(); !ok || b != wantBound {
							t.Fatalf("%s: LastKNNBound2 = %v, %v, want %v", label, b, ok, wantBound)
						}
					}
				}
			}
		}
		cur.RestrictKNN(nil, math.Inf(1))

		cur.SetBudget(query.CrawlBudget{MaxVisited: 1000})
		check("budgeted", onBar)
		tie("budgeted", onBar)
		cur.SetBudget(query.CrawlBudget{})

		// Cut the bar and isolate the cube's first corner: four
		// components, one without surface.
		corner := int32(33)
		for ci := range m.Cells() {
			c := &m.Cells()[ci]
			inBar := c.Verts[0] >= 1 && c.Verts[0] <= 32
			x := m.Centroid(ci).X
			cut := inBar && x > 7 && x < 8
			isolate := !inBar && slices.Contains(c.Verts[:4], corner)
			if c.Dead || !cut && !isolate {
				continue
			}
			delta, err := m.DeleteCell(ci)
			if err != nil {
				t.Fatal(err)
			}
			o.ApplySurfaceDelta(delta)
		}
		if count, _ := m.ConnectedComponents(); count != 4 {
			t.Fatalf("%d components after the cuts, want 4", count)
		}
		check("cut", m.Position(corner), m.Position(corner).Add(geom.V(0, 0, -1)), geom.V(9, 0.5, 0.5), geom.V(5, 0.5, 0.5))
		m.Deform(func(pos []geom.Vec3) {
			for v := int32(1); v <= 32; v++ {
				if pos[v].X > 7.5 {
					pos[v].X += 3
				}
			}
		})
		check("cut and moved", m.Position(corner), geom.V(12, 0.5, 0.5), geom.V(5, 0.5, 0.5))
	})

	t.Run("neuro-l5", func(t *testing.T) {
		if testing.Short() {
			t.Skip("neuro-l5 runs without -short")
		}
		m, err := meshgen.Build(meshgen.NeuroL5, 1)
		if err != nil {
			t.Fatal(err)
		}
		if count, _ := m.ConnectedComponents(); count != 2 {
			t.Fatalf("neuro-l5 has %d components, want 2", count)
		}
		o := New(m)
		cur := o.NewCursor().(*Cursor)
		g := workload.NewGenerator(m, 4096, 3)
		d := &sim.NoiseDeformer{Amplitude: sim.DefaultAmplitude, Frequency: 1.5, Seed: 11}
		for _, state := range []string{"static", "published", "in place"} {
			switch state {
			case "published":
				m.Deform(func(pos []geom.Vec3) { d.Step(0, pos) })
			case "in place":
				d.Step(1, m.Positions())
				o.Step()
			}
			checkIndex(t, state, o)
			pos := m.Positions()
			probes := g.KNNQueries(200, 8, 32, 0)
			before := cur.Stats().WalkVisited
			for i, q := range probes {
				checkKNN(t, fmt.Sprintf("neuro-l5 %s kNN %d", state, i), cur, pos, q.P, q.K)
			}
			perKNN := float64(cur.Stats().WalkVisited-before) / float64(len(probes))
			t.Logf("%s: %.1f walk steps per kNN", state, perKNN)
			if perKNN >= 10 {
				t.Errorf("%s: %.1f walk steps per kNN, want fewer than 10: the other neuron is descended into", state, perKNN)
			}
		}
	})
}

// TestComponentBoxesOnDatasets holds the surface index of the neuron
// datasets and of every sub-mesh of the K=4 partition of neuro-l3 to its
// definition (checkIndex), component boxes and the assumption behind the
// kNN's component skip included: as built, after five published noise
// steps, and after one more written in place and refit by Step. neuro-l4
// and neuro-l5 run without -short.
func TestComponentBoxesOnDatasets(t *testing.T) {
	ids := []meshgen.Dataset{meshgen.NeuroL1, meshgen.NeuroL2, meshgen.NeuroL3}
	if !testing.Short() {
		ids = append(ids, meshgen.NeuroL4, meshgen.NeuroL5)
	}
	type named struct {
		name string
		m    *mesh.Mesh
	}
	var meshes []named
	for _, id := range ids {
		m, err := meshgen.Build(id, 1)
		if err != nil {
			t.Fatal(err)
		}
		meshes = append(meshes, named{string(id), m})
	}
	part, err := shard.NewPartition(meshes[2].m, 4) // neuro-l3, cut before any deformation
	if err != nil {
		t.Fatal(err)
	}
	for i, p := range part.Parts {
		meshes = append(meshes, named{fmt.Sprintf("neuro-l3-shard-%d", i), p.Mesh})
	}
	for _, c := range meshes {
		o := New(c.m)
		checkIndex(t, c.name+" as built", o)
		d := &sim.NoiseDeformer{Amplitude: sim.DefaultAmplitude, Frequency: 1.5, Seed: 13}
		for step := 0; step < 5; step++ {
			c.m.Deform(func(pos []geom.Vec3) { d.Step(step, pos) })
		}
		checkIndex(t, c.name+" after noise", o)
		d.Step(5, c.m.Positions())
		o.Step()
		checkIndex(t, c.name+" after noise in place", o)
	}
}
