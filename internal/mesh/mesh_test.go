package mesh

import (
	"math/rand"
	"testing"

	"octopus/internal/geom"
)

// buildSingleTet returns a mesh of one tetrahedron.
func buildSingleTet(t *testing.T) *Mesh {
	t.Helper()
	b := NewBuilder(4, 1)
	v0 := b.AddVertex(geom.V(0, 0, 0))
	v1 := b.AddVertex(geom.V(1, 0, 0))
	v2 := b.AddVertex(geom.V(0, 1, 0))
	v3 := b.AddVertex(geom.V(0, 0, 1))
	b.AddTet(v0, v1, v2, v3)
	m, err := b.Build()
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	return m
}

// buildTwoTets returns two tetrahedra sharing the face (v1, v2, v3).
func buildTwoTets(t *testing.T) *Mesh {
	t.Helper()
	b := NewBuilder(5, 2)
	v0 := b.AddVertex(geom.V(0, 0, 0))
	v1 := b.AddVertex(geom.V(1, 0, 0))
	v2 := b.AddVertex(geom.V(0, 1, 0))
	v3 := b.AddVertex(geom.V(0, 0, 1))
	v4 := b.AddVertex(geom.V(1, 1, 1))
	b.AddTet(v0, v1, v2, v3)
	b.AddTet(v4, v1, v2, v3)
	m, err := b.Build()
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	return m
}

// kuhnTets lists the 6 tetrahedra of the Kuhn subdivision of a unit cube
// whose corners are indexed by their coordinate bits (bit0 = x, bit1 = y,
// bit2 = z).
var kuhnTets = [6][4]int{
	{0, 1, 3, 7}, {0, 1, 5, 7}, {0, 2, 3, 7},
	{0, 2, 6, 7}, {0, 4, 5, 7}, {0, 4, 6, 7},
}

// buildTetGrid builds a conforming tetrahedral mesh of nx*ny*nz unit cubes,
// each split into 6 Kuhn tetrahedra. Kuhn subdivisions of adjacent cubes
// share face diagonals, so the mesh is watertight.
func buildTetGrid(t *testing.T, nx, ny, nz int) *Mesh {
	t.Helper()
	b := NewBuilder((nx+1)*(ny+1)*(nz+1), nx*ny*nz*6)
	vid := func(x, y, z int) int32 {
		return int32(x + y*(nx+1) + z*(nx+1)*(ny+1))
	}
	for z := 0; z <= nz; z++ {
		for y := 0; y <= ny; y++ {
			for x := 0; x <= nx; x++ {
				b.AddVertex(geom.V(float64(x), float64(y), float64(z)))
			}
		}
	}
	for z := 0; z < nz; z++ {
		for y := 0; y < ny; y++ {
			for x := 0; x < nx; x++ {
				var corner [8]int32
				for bit := 0; bit < 8; bit++ {
					corner[bit] = vid(x+bit&1, y+(bit>>1)&1, z+(bit>>2)&1)
				}
				for _, kt := range kuhnTets {
					b.AddTet(corner[kt[0]], corner[kt[1]], corner[kt[2]], corner[kt[3]])
				}
			}
		}
	}
	m, err := b.Build()
	if err != nil {
		t.Fatalf("Build grid: %v", err)
	}
	return m
}

func TestSingleTetAdjacency(t *testing.T) {
	m := buildSingleTet(t)
	if m.NumVertices() != 4 || m.NumCells() != 1 {
		t.Fatalf("got %d vertices, %d cells", m.NumVertices(), m.NumCells())
	}
	if m.NumEdges() != 6 {
		t.Errorf("edges = %d, want 6", m.NumEdges())
	}
	for v := int32(0); v < 4; v++ {
		if d := m.Degree(v); d != 3 {
			t.Errorf("degree(%d) = %d, want 3", v, d)
		}
	}
	if err := m.Validate(); err != nil {
		t.Error(err)
	}
}

func TestTwoTetsSharedFace(t *testing.T) {
	m := buildTwoTets(t)
	if m.NumEdges() != 9 { // 6 + 6 - 3 shared
		t.Errorf("edges = %d, want 9", m.NumEdges())
	}
	// The shared-face vertices see both apexes.
	for _, v := range []int32{1, 2, 3} {
		if d := m.Degree(v); d != 4 {
			t.Errorf("degree(%d) = %d, want 4", v, d)
		}
	}
	if m.BoundaryFaceCount() != 6 { // 4 + 4 - 2 copies of the shared face
		t.Errorf("boundary faces = %d, want 6", m.BoundaryFaceCount())
	}
	if err := m.Validate(); err != nil {
		t.Error(err)
	}
}

func TestBuilderRejectsBadCells(t *testing.T) {
	b := NewBuilder(0, 0)
	v0 := b.AddVertex(geom.V(0, 0, 0))
	b.AddTet(v0, 1, 2, 3) // vertices 1..3 do not exist
	if _, err := b.Build(); err == nil {
		t.Error("expected error for out-of-range vertex")
	}

	b = NewBuilder(0, 0)
	v0 = b.AddVertex(geom.V(0, 0, 0))
	v1 := b.AddVertex(geom.V(1, 0, 0))
	v2 := b.AddVertex(geom.V(0, 1, 0))
	b.AddTet(v0, v1, v2, v1) // repeated vertex
	if _, err := b.Build(); err == nil {
		t.Error("expected error for degenerate cell")
	}
}

func TestSingleHex(t *testing.T) {
	b := NewBuilder(8, 1)
	var v [8]int32
	corners := []geom.Vec3{
		{X: 0, Y: 0, Z: 0}, {X: 1, Y: 0, Z: 0}, {X: 1, Y: 1, Z: 0}, {X: 0, Y: 1, Z: 0},
		{X: 0, Y: 0, Z: 1}, {X: 1, Y: 0, Z: 1}, {X: 1, Y: 1, Z: 1}, {X: 0, Y: 1, Z: 1},
	}
	for i, c := range corners {
		v[i] = b.AddVertex(c)
	}
	b.AddHex(v)
	m, err := b.Build()
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	if m.NumEdges() != 12 {
		t.Errorf("edges = %d, want 12", m.NumEdges())
	}
	for i := int32(0); i < 8; i++ {
		if d := m.Degree(i); d != 3 {
			t.Errorf("degree(%d) = %d, want 3", i, d)
		}
	}
	if m.BoundaryFaceCount() != 6 {
		t.Errorf("boundary faces = %d, want 6", m.BoundaryFaceCount())
	}
	if got := len(m.SurfaceVertices()); got != 8 {
		t.Errorf("surface vertices = %d, want 8", got)
	}
	if err := m.Validate(); err != nil {
		t.Error(err)
	}
}

func TestHexPairSharedFace(t *testing.T) {
	b := NewBuilder(12, 2)
	vid := map[[3]int]int32{}
	for z := 0; z <= 1; z++ {
		for y := 0; y <= 1; y++ {
			for x := 0; x <= 2; x++ {
				vid[[3]int{x, y, z}] = b.AddVertex(geom.V(float64(x), float64(y), float64(z)))
			}
		}
	}
	hexAt := func(x int) [8]int32 {
		return [8]int32{
			vid[[3]int{x, 0, 0}], vid[[3]int{x + 1, 0, 0}], vid[[3]int{x + 1, 1, 0}], vid[[3]int{x, 1, 0}],
			vid[[3]int{x, 0, 1}], vid[[3]int{x + 1, 0, 1}], vid[[3]int{x + 1, 1, 1}], vid[[3]int{x, 1, 1}],
		}
	}
	b.AddHex(hexAt(0))
	b.AddHex(hexAt(1))
	m, err := b.Build()
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	if m.BoundaryFaceCount() != 10 { // 6 + 6 - 2 copies of shared face
		t.Errorf("boundary faces = %d, want 10", m.BoundaryFaceCount())
	}
	if got := len(m.SurfaceVertices()); got != 12 {
		t.Errorf("surface vertices = %d, want 12", got)
	}
	if err := m.Validate(); err != nil {
		t.Error(err)
	}
}

func TestTetGridConforming(t *testing.T) {
	m := buildTetGrid(t, 3, 3, 3)
	if err := m.Validate(); err != nil {
		t.Fatal(err)
	}
	if m.NumVertices() != 64 || m.NumCells() != 27*6 {
		t.Fatalf("got %d vertices, %d cells", m.NumVertices(), m.NumCells())
	}
	// All faces must be shared by exactly 1 (boundary) or 2 (interior) tets.
	for k, n := range oracleFaceCounts(m.cells) {
		if n != 1 && n != 2 {
			t.Fatalf("face %v shared by %d cells", k, n)
		}
	}
	// Surface of a 3x3x3 cube grid: all vertices except the 2x2x2 interior
	// block.
	surf := m.SurfaceVertices()
	if got, want := len(surf), 64-8; got != want {
		t.Errorf("surface vertices = %d, want %d", got, want)
	}
	// The strict interior vertex (1,1,1)..(2,2,2) must not be on the surface.
	inSurf := make(map[int32]bool)
	for _, v := range surf {
		inSurf[v] = true
	}
	for _, v := range surf {
		p := m.Position(v)
		if p.X > 0 && p.X < 3 && p.Y > 0 && p.Y < 3 && p.Z > 0 && p.Z < 3 {
			t.Errorf("interior vertex %v reported on surface", p)
		}
	}
	_ = inSurf
}

func TestTetGridDegree(t *testing.T) {
	m := buildTetGrid(t, 4, 4, 4)
	// Kuhn-grid interior vertices have degree 14: 6 axis + 6 face-diagonal
	// + 2 body-diagonal neighbours.
	vid := func(x, y, z int) int32 { return int32(x + y*5 + z*25) }
	if d := m.Degree(vid(2, 2, 2)); d != 14 {
		t.Errorf("interior degree = %d, want 14", d)
	}
	avg := m.AvgDegree()
	if avg < 9 || avg > 14 {
		t.Errorf("average degree = %.2f, expected within [9, 14]", avg)
	}
}

func TestBounds(t *testing.T) {
	m := buildTwoTets(t)
	b := m.Bounds()
	if b.Min != geom.V(0, 0, 0) || b.Max != geom.V(1, 1, 1) {
		t.Errorf("Bounds = %v", b)
	}
	m.SetPosition(0, geom.V(-5, 0, 0))
	if got := m.Bounds().Min.X; got != -5 {
		t.Errorf("Bounds after move: min.X = %v", got)
	}
}

func TestDeformationKeepsConnectivity(t *testing.T) {
	m := buildTetGrid(t, 2, 2, 2)
	before := make([][]int32, m.NumVertices())
	for v := int32(0); v < int32(m.NumVertices()); v++ {
		before[v] = append([]int32(nil), m.Neighbors(v)...)
	}
	surfBefore := m.SurfaceVertices()

	r := rand.New(rand.NewSource(3))
	pos := m.Positions()
	for i := range pos {
		pos[i] = pos[i].Add(geom.V(r.Float64(), r.Float64(), r.Float64()))
	}

	for v := int32(0); v < int32(m.NumVertices()); v++ {
		got := m.Neighbors(v)
		if len(got) != len(before[v]) {
			t.Fatalf("neighbour count changed at %d", v)
		}
		for i := range got {
			if got[i] != before[v][i] {
				t.Fatalf("neighbours changed at %d", v)
			}
		}
	}
	surfAfter := m.SurfaceVertices()
	if len(surfAfter) != len(surfBefore) {
		t.Fatal("surface changed under pure deformation")
	}
	for i := range surfAfter {
		if surfAfter[i] != surfBefore[i] {
			t.Fatal("surface membership changed under pure deformation")
		}
	}
}

func TestStats(t *testing.T) {
	m := buildTetGrid(t, 3, 3, 3)
	s := ComputeStats(m)
	if s.Vertices != 64 || s.Cells != 162 {
		t.Errorf("stats counts wrong: %+v", s)
	}
	if s.SurfaceVertices != 56 {
		t.Errorf("surface count = %d", s.SurfaceVertices)
	}
	if s.SurfaceRatio < 0.87 || s.SurfaceRatio > 0.88 {
		t.Errorf("S:V = %v", s.SurfaceRatio)
	}
	if s.MemoryBytes <= 0 {
		t.Error("memory estimate not positive")
	}
	if s.String() == "" {
		t.Error("empty String()")
	}
}

// TestEdgeCountWithPatchedOverlay pins the O(patched) edge accounting of
// NumEdges/AvgDegree against the definitional per-vertex Degree sum,
// before and after restructuring has populated the patch layer (SplitCell
// adds a vertex and edges; DeleteCell removes edges).
func TestEdgeCountWithPatchedOverlay(t *testing.T) {
	m := buildTetGrid(t, 3, 3, 3)
	degreeLoop := func() int {
		total := 0
		for v := int32(0); v < int32(m.NumVertices()); v++ {
			total += m.Degree(v)
		}
		return total
	}
	check := func(label string) {
		t.Helper()
		want := degreeLoop()
		if got := m.NumEdges() * 2; got != want {
			t.Errorf("%s: degree sum via NumEdges = %d, want %d", label, got, want)
		}
		wantAvg := float64(want) / float64(m.NumVertices())
		if got := m.AvgDegree(); got != wantAvg {
			t.Errorf("%s: AvgDegree = %v, want %v", label, got, wantAvg)
		}
	}

	check("pristine")
	if _, _, err := m.SplitCell(0); err != nil {
		t.Fatal(err)
	}
	check("after split")
	if _, err := m.DeleteCell(1); err != nil {
		t.Fatal(err)
	}
	check("after delete")
	if err := m.Validate(); err != nil {
		t.Fatal(err)
	}
}
