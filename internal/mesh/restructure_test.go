package mesh

import (
	"math/rand"
	"slices"
	"testing"

	"octopus/internal/geom"
)

func TestSplitCellSingleTet(t *testing.T) {
	m := buildSingleTet(t)
	surfBefore := m.SurfaceVertices()

	x, delta, err := m.SplitCell(0)
	if err != nil {
		t.Fatalf("SplitCell: %v", err)
	}
	if !delta.Empty() {
		t.Errorf("split delta should be empty, got %+v", delta)
	}
	if m.NumVertices() != 5 || m.NumCells() != 4 {
		t.Fatalf("got %d vertices, %d cells", m.NumVertices(), m.NumCells())
	}
	// New vertex connects to the original four and is interior.
	nb := m.Neighbors(x)
	if len(nb) != 4 {
		t.Errorf("new vertex degree = %d, want 4", len(nb))
	}
	for v := int32(0); v < 4; v++ {
		if !contains(m.Neighbors(v), x) {
			t.Errorf("vertex %d missing new neighbour %d", v, x)
		}
	}
	surfAfter := m.SurfaceVertices()
	if len(surfAfter) != len(surfBefore) {
		t.Errorf("surface grew from %d to %d", len(surfBefore), len(surfAfter))
	}
	if contains(surfAfter, x) {
		t.Error("centroid vertex reported on surface")
	}
	if err := m.Validate(); err != nil {
		t.Error(err)
	}
	checkIncrementalFaceTable(t, m)
}

func TestSplitCellErrors(t *testing.T) {
	m := buildSingleTet(t)
	if _, _, err := m.SplitCell(5); err == nil {
		t.Error("expected out-of-range error")
	}
	if _, _, err := m.SplitCell(0); err != nil {
		t.Fatal(err)
	}
	if _, _, err := m.SplitCell(0); err == nil {
		t.Error("expected error splitting dead cell")
	}

	// Hexahedra are not splittable.
	b := NewBuilder(8, 1)
	var v [8]int32
	for i := range v {
		v[i] = b.AddVertex(geom.V(float64(i&1), float64((i>>1)&1), float64((i>>2)&1)))
	}
	// Use proper hex ordering.
	b2 := NewBuilder(8, 1)
	order := [][3]float64{{0, 0, 0}, {1, 0, 0}, {1, 1, 0}, {0, 1, 0}, {0, 0, 1}, {1, 0, 1}, {1, 1, 1}, {0, 1, 1}}
	for i, c := range order {
		v[i] = b2.AddVertex(geom.V(c[0], c[1], c[2]))
	}
	b2.AddHex(v)
	hm, err := b2.Build()
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := hm.SplitCell(0); err == nil {
		t.Error("expected error splitting hexahedron")
	}
}

func TestDeleteCellExposesApex(t *testing.T) {
	m := buildTwoTets(t)
	delta, err := m.DeleteCell(1) // the tet owning apex vertex 4
	if err != nil {
		t.Fatalf("DeleteCell: %v", err)
	}
	if len(delta.Added) != 0 {
		t.Errorf("unexpected additions %v", delta.Added)
	}
	// Vertex 4 leaves the mesh entirely, so it leaves the surface set.
	if len(delta.Removed) != 1 || delta.Removed[0] != 4 {
		t.Errorf("removed = %v, want [4]", delta.Removed)
	}
	if m.NumCells() != 1 {
		t.Errorf("cells = %d", m.NumCells())
	}
	if d := m.Degree(4); d != 0 {
		t.Errorf("orphan vertex degree = %d", d)
	}
	if err := m.Validate(); err != nil {
		t.Error(err)
	}
	checkIncrementalFaceTable(t, m)
}

func TestDeleteCellErrors(t *testing.T) {
	m := buildSingleTet(t)
	if _, err := m.DeleteCell(-1); err == nil {
		t.Error("expected out-of-range error")
	}
	if _, err := m.DeleteCell(0); err != nil {
		t.Fatal(err)
	}
	if _, err := m.DeleteCell(0); err == nil {
		t.Error("expected double-delete error")
	}
}

// checkIncrementalFaceTable verifies the incrementally maintained face table
// matches one rebuilt from scratch.
func checkIncrementalFaceTable(t *testing.T, m *Mesh) {
	t.Helper()
	if m.faces == nil {
		t.Fatal("restructuring state missing")
	}
	fresh := oracleFaceCounts(m.cells)
	if len(fresh) != len(m.faces.count) {
		t.Fatalf("face table size: incremental %d, fresh %d", len(m.faces.count), len(fresh))
	}
	for k, n := range fresh {
		if m.faces.count[k] != n {
			t.Fatalf("face %v: incremental %d, fresh %d", k, m.faces.count[k], n)
		}
	}
	if got, want := m.SurfaceVertices(), oracleSurface(fresh); !slices.Equal(got, want) {
		t.Fatalf("restructured surface %v, want %v", got, want)
	}
	if got, want := m.BoundaryFaceCount(), oracleBoundaryCount(fresh); got != want {
		t.Fatalf("restructured boundary faces %d, want %d", got, want)
	}
}

// surfaceSet returns the surface vertex set as a map.
func surfaceSet(m *Mesh) map[int32]bool {
	s := make(map[int32]bool)
	for _, v := range m.SurfaceVertices() {
		s[v] = true
	}
	return s
}

// TestRestructureRandomSequence applies a random sequence of splits and
// deletes to a grid mesh and after every operation cross-checks every
// incrementally maintained structure against a from-scratch rebuild, and the
// reported deltas against the actual surface-set difference.
func TestRestructureRandomSequence(t *testing.T) {
	m := buildTetGrid(t, 3, 3, 3)
	m.EnableRestructuring()
	r := rand.New(rand.NewSource(42))

	prevSurf := surfaceSet(m)
	for step := 0; step < 60; step++ {
		// Pick a random live cell.
		live := []int{}
		for i := range m.cells {
			if !m.cells[i].Dead {
				live = append(live, i)
			}
		}
		if len(live) == 0 {
			break
		}
		ci := live[r.Intn(len(live))]

		var delta SurfaceDelta
		var err error
		if r.Intn(2) == 0 {
			_, delta, err = m.SplitCell(ci)
		} else {
			delta, err = m.DeleteCell(ci)
		}
		if err != nil {
			t.Fatalf("step %d: %v", step, err)
		}
		if err := m.Validate(); err != nil {
			t.Fatalf("step %d: %v", step, err)
		}
		checkIncrementalFaceTable(t, m)

		nowSurf := surfaceSet(m)
		// Check the delta matches the actual diff.
		for _, v := range delta.Added {
			if !nowSurf[v] || prevSurf[v] {
				t.Fatalf("step %d: spurious Added %d", step, v)
			}
		}
		for _, v := range delta.Removed {
			if nowSurf[v] || !prevSurf[v] {
				t.Fatalf("step %d: spurious Removed %d", step, v)
			}
		}
		added, removed := 0, 0
		for v := range nowSurf {
			if !prevSurf[v] {
				added++
			}
		}
		for v := range prevSurf {
			if !nowSurf[v] {
				removed++
			}
		}
		if added != len(delta.Added) || removed != len(delta.Removed) {
			t.Fatalf("step %d: delta (%d,%d) but actual diff (%d,%d)",
				step, len(delta.Added), len(delta.Removed), added, removed)
		}
		prevSurf = nowSurf
	}
}

func TestCentroid(t *testing.T) {
	m := buildSingleTet(t)
	c := m.Centroid(0)
	want := geom.V(0.25, 0.25, 0.25)
	if c.Dist(want) > 1e-12 {
		t.Errorf("Centroid = %v, want %v", c, want)
	}
}

func TestReorderHilbert(t *testing.T) {
	m := buildTetGrid(t, 4, 3, 2)
	r := rand.New(rand.NewSource(9))
	pos := m.Positions()
	for i := range pos {
		pos[i] = pos[i].Add(geom.V(r.Float64()*0.3, r.Float64()*0.3, r.Float64()*0.3))
	}

	rm, perm, err := m.ReorderHilbert(8)
	if err != nil {
		t.Fatalf("ReorderHilbert: %v", err)
	}
	if rm.NumVertices() != m.NumVertices() || rm.NumCells() != m.NumCells() {
		t.Fatal("size changed by reorder")
	}
	if err := rm.Validate(); err != nil {
		t.Fatal(err)
	}
	// Positions and adjacency must be isomorphic under perm.
	for old := int32(0); old < int32(m.NumVertices()); old++ {
		if rm.Position(perm[old]) != m.Position(old) {
			t.Fatalf("position mismatch at %d", old)
		}
		want := map[int32]bool{}
		for _, w := range m.Neighbors(old) {
			want[perm[w]] = true
		}
		got := rm.Neighbors(perm[old])
		if len(got) != len(want) {
			t.Fatalf("degree mismatch at %d", old)
		}
		for _, w := range got {
			if !want[w] {
				t.Fatalf("adjacency mismatch at %d", old)
			}
		}
	}
	// Surface sets must correspond.
	want := map[int32]bool{}
	for _, v := range m.SurfaceVertices() {
		want[perm[v]] = true
	}
	got := rm.SurfaceVertices()
	if len(got) != len(want) {
		t.Fatalf("surface size mismatch")
	}
	for _, v := range got {
		if !want[v] {
			t.Fatal("surface membership mismatch")
		}
	}
}

// TestReorderImprovesEdgeLocality confirms the point of the optimization:
// after Hilbert ordering, edge endpoints are closer in id space than under a
// random permutation.
func TestReorderImprovesEdgeLocality(t *testing.T) {
	m := buildTetGrid(t, 6, 6, 6)

	// Shuffle vertex ids first so the input order is not already favourable.
	r := rand.New(rand.NewSource(11))
	n := m.NumVertices()
	shuffled := make([]int32, n)
	for i := range shuffled {
		shuffled[i] = int32(i)
	}
	r.Shuffle(n, func(i, j int) { shuffled[i], shuffled[j] = shuffled[j], shuffled[i] })
	bb := NewBuilder(n, m.NumCells())
	inv := make([]int32, n)
	for newID := 0; newID < n; newID++ {
		inv[shuffled[newID]] = int32(newID)
	}
	for newID := 0; newID < n; newID++ {
		bb.AddVertex(m.Position(shuffled[newID]))
	}
	for i := range m.Cells() {
		c := m.Cells()[i]
		bb.AddTet(inv[c.Verts[0]], inv[c.Verts[1]], inv[c.Verts[2]], inv[c.Verts[3]])
	}
	sm, err := bb.Build()
	if err != nil {
		t.Fatal(err)
	}

	span := func(mm *Mesh) float64 {
		total := 0.0
		edges := 0
		for v := int32(0); v < int32(mm.NumVertices()); v++ {
			for _, w := range mm.Neighbors(v) {
				if w > v {
					total += float64(w - v)
					edges++
				}
			}
		}
		return total / float64(edges)
	}

	rm, _, err := sm.ReorderHilbert(8)
	if err != nil {
		t.Fatal(err)
	}
	before, after := span(sm), span(rm)
	if after >= before {
		t.Errorf("Hilbert reorder did not improve edge locality: before %.1f, after %.1f", before, after)
	}
}

func TestReorderAfterRestructureFails(t *testing.T) {
	m := buildTetGrid(t, 2, 2, 2)
	if _, _, err := m.SplitCell(0); err != nil {
		t.Fatal(err)
	}
	if _, _, err := m.ReorderHilbert(8); err == nil {
		t.Error("expected reorder-after-restructure error")
	}
}

func TestSurfaceVerticesSorted(t *testing.T) {
	m := buildTetGrid(t, 3, 2, 2)
	s := m.SurfaceVertices()
	if !slices.IsSorted(s) {
		t.Error("surface vertices not sorted")
	}
}

// TestConnectedComponentsMemo: before restructuring every call shares one
// labelling; once restructuring changes the graph, calls label it anew.
func TestConnectedComponentsMemo(t *testing.T) {
	m := buildTetGrid(t, 3, 3, 3)
	n1, first := m.ConnectedComponents()
	n2, second := m.ConnectedComponents()
	if n1 != 1 || n2 != 1 || &first[0] != &second[0] {
		t.Fatalf("unrestructured grid: counts %d, %d, shared labelling %v", n1, n2, &first[0] == &second[0])
	}

	x, _, err := m.SplitCell(0)
	if err != nil {
		t.Fatal(err)
	}
	if n, labels := m.ConnectedComponents(); n != 1 || len(labels) != m.NumVertices() || labels[x] != 0 {
		t.Fatalf("after a split: %d components over %d labels, want 1 over %d", n, len(labels), m.NumVertices())
	}
	// Deleting every cell around vertex 0 isolates it.
	for ci, c := range m.cells {
		if !c.Dead && slices.Contains(c.Verts[:c.VertexCount()], 0) {
			if _, err := m.DeleteCell(ci); err != nil {
				t.Fatal(err)
			}
		}
	}
	if n, labels := m.ConnectedComponents(); n != 2 || labels[0] == labels[1] {
		t.Fatalf("isolated vertex 0: %d components, labels %d and %d", n, labels[0], labels[1])
	}
	if !slices.Equal(first, second) || first[0] != 0 {
		t.Fatal("restructuring wrote into a labelling handed out before it")
	}
}

// TestSurfaceVerticesMemo: before restructuring the surface list is
// memoized, but every caller gets its own copy (core.New mutates its
// surface array in place); once a cell is deleted every call derives the
// list from the live cells instead of the memo.
func TestSurfaceVerticesMemo(t *testing.T) {
	m := buildTetGrid(t, 3, 3, 3)
	first := m.SurfaceVertices()
	want := append([]int32(nil), first...)
	for i := range first {
		first[i] = -1
	}
	if got := m.SurfaceVertices(); !slices.Equal(got, want) {
		t.Fatalf("a caller's writes reached the memo: %v", got)
	}
	if &m.SurfaceVertices()[0] == &m.SurfaceVertices()[0] {
		t.Fatal("two calls share one backing array")
	}

	// Delete cells until the surface actually changes.
	for ci := 0; ci < len(m.cells); ci++ {
		delta, err := m.DeleteCell(ci)
		if err != nil {
			t.Fatal(err)
		}
		if !delta.Empty() {
			break
		}
	}
	got := m.SurfaceVertices()
	if slices.Equal(got, want) {
		t.Fatal("surface unchanged after deletions exposed new vertices")
	}
	if fresh := oracleSurface(oracleFaceCounts(m.cells)); !slices.Equal(got, fresh) {
		t.Fatalf("restructured surface %v, want %v (stale memo?)", got, fresh)
	}
}
