package bench

import (
	"math/rand"
	"slices"
	"testing"

	"octopus/internal/core"
	"octopus/internal/geom"
	"octopus/internal/mesh"
	"octopus/internal/meshgen"
	"octopus/internal/query"
)

// sampledCursor returns a fresh OCTOPUS cursor over m and Figure 12's
// sampled probe of frac of m's surface.
func sampledCursor(m *mesh.Mesh, frac float64) (*core.Cursor, *sampledProbe) {
	return core.New(m).NewCursor().(*core.Cursor), newSampledProbe(m, frac)
}

// checkSubset fails unless every id of got is in want (sorted).
func checkSubset(t *testing.T, label string, got, want []int32) {
	t.Helper()
	for _, v := range got {
		if _, ok := slices.BinarySearch(want, v); !ok {
			t.Fatalf("%s: returned %d, which is not in the exact answer", label, v)
		}
	}
}

// buildNoSeedMesh builds a non-convex, four-component mesh whose
// no-seed boxes make the exact walk stall: a lone tetrahedron at the
// origin; a "decoy" tetrahedron at x ≈ 8.9, the surface nearest both
// boxes below and a dead end for a walk; and two overlapping octahedral
// stars around (10,0,0) and (10.5,0,0), each of eight tetrahedra sharing
// its center, the mesh's only interior vertices.
func buildNoSeedMesh(t *testing.T) *mesh.Mesh {
	t.Helper()
	b := mesh.NewBuilder(18, 18)
	tet := func(p geom.Vec3, h float64) {
		b.AddTet(b.AddVertex(p), b.AddVertex(p.Add(geom.V(h, 0, 0))),
			b.AddVertex(p.Add(geom.V(0, h, 0))), b.AddVertex(p.Add(geom.V(0, 0, h))))
	}
	tet(geom.V(0, 0, 0), 0.1)
	tet(geom.V(8.90, 0, 0), 0.08)
	var shells [2][3][2]int32
	for s, cx := range []float64{10, 10.5} {
		for axis := 0; axis < 3; axis++ {
			for side, d := range []float64{-2, 2} {
				p := [3]float64{cx, 0, 0}
				p[axis] += d
				shells[s][axis][side] = b.AddVertex(geom.V(p[0], p[1], p[2]))
			}
		}
	}
	for s, cx := range []float64{10, 10.5} {
		center := b.AddVertex(geom.V(cx, 0, 0))
		for _, x := range shells[s][0] {
			for _, y := range shells[s][1] {
				for _, z := range shells[s][2] {
					b.AddTet(center, x, y, z)
				}
			}
		}
	}
	m, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	if count := m.ConnectedComponents().Count(); count != 4 {
		t.Fatalf("expected 4 components, got %d", count)
	}
	return m
}

// TestNoSeedApproximateNeverScans: the sampled probe keeps the paper's
// plain greedy walk — a stall answers nothing — so its answers stay a
// subset of brute force and it never pays the exact walk's scan, on the
// no-seed boxes where the exact walk does.
func TestNoSeedApproximateNeverScans(t *testing.T) {
	m := buildNoSeedMesh(t)
	exact := core.New(m)
	cur, probe := sampledCursor(m, 0.5)
	queries := []geom.AABB{
		geom.Box(geom.V(9.05, -0.35, -0.35), geom.V(10.02, 0.35, 0.35)), // star A's center alone; stalls in the decoy
		geom.Box(geom.V(9.05, -0.35, -0.35), geom.V(10.7, 0.35, 0.35)),  // both centers
		geom.BoxAround(geom.V(20, 20, 20), 1),
		geom.BoxAround(geom.V(10.25, 0, 0), 3), // both stars, seeded by the probe
		m.Bounds(),
	}
	for round := 0; round < 4; round++ { // rotate the sampling phase
		for _, q := range queries {
			want := query.BruteForce(m, q)
			exact.Query(q, nil)
			checkSubset(t, "sampled", cur.QuerySeeded(q, probe, nil), want)
		}
	}
	if s := cur.Stats(); s.WalkStalls != 0 || s.DirectedWalks == 0 {
		t.Errorf("sampled probe: %d stalls (want 0) over %d walks (want > 0)", s.WalkStalls, s.DirectedWalks)
	}
	if s := exact.Stats(); s.WalkStalls == 0 {
		t.Error("the exact walk never took the scan; test geometry broken")
	}
}

// TestApproximationTinySurfaceProbe: the stride is clamped to the surface
// length. Unclamped, a 1 % probe of an 8-vertex surface would let the
// rotating phase skip the whole surface from the 9th query on — no seed,
// no walk start, an empty answer. Clamped, every query probes a surface
// vertex, so a whole-mesh query always finds the whole mesh.
func TestApproximationTinySurfaceProbe(t *testing.T) {
	b := mesh.NewBuilder(0, 0)
	kuhn := [6][4]int{{0, 1, 3, 7}, {0, 1, 5, 7}, {0, 2, 3, 7}, {0, 2, 6, 7}, {0, 4, 5, 7}, {0, 4, 6, 7}}
	var c [8]int32
	for bit := 0; bit < 8; bit++ {
		c[bit] = b.AddVertex(geom.V(float64(bit&1), float64((bit>>1)&1), float64((bit>>2)&1)))
	}
	for _, k := range kuhn {
		b.AddTet(c[k[0]], c[k[1]], c[k[2]], c[k[3]])
	}
	m, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	cur, probe := sampledCursor(m, 0.01)
	for i := 0; i < 120; i++ {
		if got := cur.QuerySeeded(m.Bounds(), probe, nil); len(got) != m.NumVertices() {
			t.Fatalf("query %d returned %d of %d vertices", i, len(got), m.NumVertices())
		}
	}
}

// TestApproximateProbeIgnoresSummary: every surface vertex inside q on the
// query's sampling lattice is in its answer, and the answer is a subset of
// brute force — also after in-place writes with no Step, which leave the
// block boxes describing a state the mesh has moved away from: the
// sampled probe does not read them. The mesh is a lattice of separate
// tetrahedra, so no crawl reaches a vertex the probe drops.
func TestApproximateProbeIgnoresSummary(t *testing.T) {
	const n = 8
	b := mesh.NewBuilder(4*n*n*n, n*n*n)
	for z := 0; z < n; z++ {
		for y := 0; y < n; y++ {
			for x := 0; x < n; x++ {
				o := geom.V(float64(x), float64(y), float64(z))
				b.AddTet(b.AddVertex(o), b.AddVertex(o.Add(geom.V(0.4, 0, 0))),
					b.AddVertex(o.Add(geom.V(0, 0.4, 0))), b.AddVertex(o.Add(geom.V(0, 0, 0.4))))
			}
		}
	}
	m, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	cur, probe := sampledCursor(m, 0.25)
	r := rand.New(rand.NewSource(4))
	slots := m.SurfaceIndex().Slots()
	sampled := func(label string) {
		t.Helper()
		pos := m.Positions()
		for i := 0; i < 100; i++ {
			q := geom.BoxAround(pos[r.Intn(len(pos))], 0.3+2*r.Float64())
			phase := probe.phase % probe.stride
			got := cur.QuerySeeded(q, probe, nil)
			checkSubset(t, label, got, query.BruteForce(m, q))
			for s := phase; s < len(slots); s += probe.stride {
				if v := slots[s]; q.Contains(pos[v]) && !slices.Contains(got, v) {
					t.Fatalf("%s: query %d dropped sampled surface vertex %d", label, i, v)
				}
			}
		}
	}
	sampled("fresh")
	for i, p := range m.Positions() { // no Step: the boxes now describe the old positions
		m.Positions()[i] = geom.V(float64(n)-p.X, p.Y+0.5, p.Z)
	}
	sampled("stale")
}

// TestApproximationAccuracyAndExactness: at a fraction of 1 Figure 12
// runs core's exact Query, which equals brute force; sampling 10 % of the
// surface keeps at least 85 % of the results (the paper reports > 90 %
// while ignoring 99.9 % of the surface, on a far larger mesh), never
// returns more than the truth, and allocates nothing once warm.
func TestApproximationAccuracyAndExactness(t *testing.T) {
	m, err := meshgen.BuildNeuron(1, 1)
	if err != nil {
		t.Fatal(err)
	}
	cur, probe := sampledCursor(m, 0.10)
	r := rand.New(rand.NewSource(6))
	diag := m.Bounds().Size().Len()
	got, want := 0, 0
	for i := 0; i < 12; i++ {
		q := geom.BoxAround(m.Position(int32(r.Intn(m.NumVertices()))), diag*0.05)
		truth := query.BruteForce(m, q)
		if d := query.Diff(cur.Query(q, nil), truth); d != "" {
			t.Fatalf("exact query %d: %s", i, d)
		}
		ans := cur.QuerySeeded(q, probe, nil)
		checkSubset(t, "sampled", ans, truth)
		got += len(ans)
		want += len(truth)
	}
	if acc := float64(got) / float64(want); acc < 0.85 {
		t.Errorf("accuracy at 10%% of the surface = %.2f", acc)
	}
	q := geom.BoxAround(m.Position(0), diag*0.05)
	out := cur.QuerySeeded(q, probe, nil)
	if allocs := testing.AllocsPerRun(20, func() { out = cur.QuerySeeded(q, probe, out[:0]) }); allocs != 0 {
		t.Errorf("%.1f allocations per warmed QuerySeeded, want 0", allocs)
	}
}
