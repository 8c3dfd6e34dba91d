package mesh

import (
	"math/rand"
	"slices"
	"sync"
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
	checkLocalSurfaceRule(t, m)
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
	checkLocalSurfaceRule(t, m)
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

// checkLocalSurfaceRule verifies isSurfaceVertex at every vertex, and the
// surface list and boundary face count, against face counts rebuilt from
// scratch. m must have been restructured (it holds the incidence table).
func checkLocalSurfaceRule(t *testing.T, m *Mesh) {
	t.Helper()
	fresh := oracleFaceCounts(m.cells)
	want := oracleSurface(fresh)
	for v := int32(0); v < int32(m.NumVertices()); v++ {
		if got := m.isSurfaceVertex(v); got != slices.Contains(want, v) {
			t.Fatalf("isSurfaceVertex(%d) = %v, want %v", v, got, !got)
		}
	}
	if got := m.SurfaceVertices(); !slices.Equal(got, want) {
		t.Fatalf("restructured surface %v, want %v", got, want)
	}
	if got, want := m.BoundaryFaceCount(), oracleBoundaryCount(fresh); got != want {
		t.Fatalf("restructured boundary faces %d, want %d", got, want)
	}
}

// restructureRandomly applies steps random splits (tetrahedra only) and
// deletes to m and after every operation checks the structure, the local
// surface rule, and the reported delta against the actual surface-set
// difference.
func restructureRandomly(t *testing.T, m *Mesh, r *rand.Rand, steps int) {
	t.Helper()
	prev := m.SurfaceVertices()
	for step := 0; step < steps; step++ {
		var live []int
		for i := range m.cells {
			if !m.cells[i].Dead {
				live = append(live, i)
			}
		}
		if len(live) == 0 {
			return
		}
		ci := live[r.Intn(len(live))]

		var delta SurfaceDelta
		var err error
		if m.cells[ci].Type == Tetrahedron && r.Intn(2) == 0 {
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
		checkLocalSurfaceRule(t, m)

		now := m.SurfaceVertices()
		var added, removed []int32
		for _, v := range now {
			if !slices.Contains(prev, v) {
				added = append(added, v)
			}
		}
		for _, v := range prev {
			if !slices.Contains(now, v) {
				removed = append(removed, v)
			}
		}
		if !slices.Equal(delta.Added, added) || !slices.Equal(delta.Removed, removed) {
			t.Fatalf("step %d: delta +%v -%v, actual diff +%v -%v",
				step, delta.Added, delta.Removed, added, removed)
		}
		prev = now
	}
}

// TestRestructureRandomSequence applies random sequences of splits and
// deletes to a tet grid and to random mixed tet/hex meshes — faces shared
// by one, two and three cells, triangles and quads — checking every
// operation against from-scratch oracles.
func TestRestructureRandomSequence(t *testing.T) {
	r := rand.New(rand.NewSource(42))
	restructureRandomly(t, buildTetGrid(t, 3, 3, 3), r, 60)
	for trial := 0; trial < 40; trial++ {
		n := 12 + r.Intn(30)
		m := buildCells(t, r, n, randomMixedCells(r, n, 4+r.Intn(30)))
		restructureRandomly(t, m, r, 20)
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

// TestConnectedComponentsMemo: every call shares one labelling until a
// restructure drops it; the next call labels the changed graph into a new
// array, shared again by later calls, and a labelling handed out before
// stays untouched. Each component's representative is its lowest id.
func TestConnectedComponentsMemo(t *testing.T) {
	m := buildTetGrid(t, 3, 3, 3)
	c1, c2 := m.ConnectedComponents(), m.ConnectedComponents()
	first, second := c1.Labels, c2.Labels
	if c1.Count() != 1 || c2.Count() != 1 || &first[0] != &second[0] || !slices.Equal(c1.Reps, []int32{0}) {
		t.Fatalf("unrestructured grid: counts %d, %d, shared labelling %v, reps %v", c1.Count(), c2.Count(), &first[0] == &second[0], c1.Reps)
	}
	if got, want := m.ComponentsBytes(), int64(m.NumVertices()+1)*4; got != want {
		t.Fatalf("ComponentsBytes = %d, want %d", got, want)
	}
	want := slices.Clone(first)

	x, _, err := m.SplitCell(0)
	if err != nil {
		t.Fatal(err)
	}
	if c := m.ConnectedComponents(); c.Count() != 1 || len(c.Labels) != m.NumVertices() || c.Labels[x] != 0 {
		t.Fatalf("after a split: %d components over %d labels, want 1 over %d", c.Count(), len(c.Labels), m.NumVertices())
	}
	// Deleting every cell around vertex 0 isolates it.
	for ci, c := range m.cells {
		if !c.Dead && slices.Contains(c.Verts[:c.VertexCount()], 0) {
			if _, err := m.DeleteCell(ci); err != nil {
				t.Fatal(err)
			}
		}
	}
	c3 := m.ConnectedComponents()
	third := c3.Labels
	if c3.Count() != 2 || third[0] == third[1] || !slices.Equal(c3.Reps, []int32{0, 1}) {
		t.Fatalf("isolated vertex 0: %d components, labels %d and %d, reps %v", c3.Count(), third[0], third[1], c3.Reps)
	}
	if fourth := m.ConnectedComponents().Labels; &third[0] != &fourth[0] {
		t.Fatal("two calls after a restructure labelled the graph twice")
	}
	if &third[0] == &first[0] || !slices.Equal(first, want) {
		t.Fatal("restructuring wrote into a labelling handed out before it")
	}
}

// TestConnectedComponentsConcurrentBuild: a memo dropped by a
// restructure on a mesh without a surface index is rebuilt by the first
// reader, and readers racing to it all get the one labelling (run with
// -race: the memo is published through an atomic pointer).
func TestConnectedComponentsConcurrentBuild(t *testing.T) {
	m := buildTetGrid(t, 3, 3, 3)
	for _, op := range []string{"fresh", "after a delete"} {
		if op == "after a delete" {
			if _, err := m.DeleteCell(0); err != nil {
				t.Fatal(err)
			}
		}
		var got [4]*Components
		var wg sync.WaitGroup
		for i := range got {
			wg.Add(1)
			go func() {
				defer wg.Done()
				got[i] = m.ConnectedComponents()
			}()
		}
		wg.Wait()
		for i, c := range got {
			if c != got[0] || len(c.Labels) != m.NumVertices() {
				t.Fatalf("%s: reader %d got labelling %p over %d vertices, reader 0 %p", op, i, c, len(c.Labels), got[0])
			}
		}
	}
}

// TestSurfaceVerticesMemo: the surface list is memoized, but every caller
// gets its own copy (core.New mutates its surface array in place); a
// deleted cell drops the memo, so the next call derives the list from the
// live cells.
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
