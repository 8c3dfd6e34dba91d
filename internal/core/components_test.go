package core

import (
	"testing"

	"octopus/internal/geom"
	"octopus/internal/mesh"
	"octopus/internal/query"
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
