package mesh

import (
	"testing"

	"octopus/internal/geom"
)

// dirtyTestMesh builds a tiny 2-tet mesh for dirty-tracking tests.
func dirtyTestMesh(t *testing.T) *Mesh {
	t.Helper()
	b := NewBuilder(5, 2)
	b.AddVertex(geom.V(0, 0, 0))
	b.AddVertex(geom.V(1, 0, 0))
	b.AddVertex(geom.V(0, 1, 0))
	b.AddVertex(geom.V(0, 0, 1))
	b.AddVertex(geom.V(1, 1, 1))
	b.AddTet(0, 1, 2, 3)
	b.AddTet(1, 2, 3, 4)
	m, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func TestDirtyTrackingRecordsMovers(t *testing.T) {
	m := dirtyTestMesh(t)
	if m.DirtyTrackingEnabled() {
		t.Fatal("tracking must be off by default")
	}
	m.EnableDirtyTracking()
	m.EnableDirtyTracking() // idempotent
	if !m.DirtyTrackingEnabled() {
		t.Fatal("tracking not enabled")
	}

	// First take is empty (nothing published yet).
	if d := m.TakeDirty(); !d.Empty() {
		t.Fatalf("initial region not empty: %+v", d)
	}

	// Move vertices 1 and 3 across one step; 1 again on a second step.
	m.Deform(func(pos []geom.Vec3) {
		pos[1] = geom.V(2, 0, 0)
		pos[3] = geom.V(0, 0, 2)
	})
	m.Deform(func(pos []geom.Vec3) {
		pos[1] = geom.V(3, 0, 0)
	})

	d := m.TakeDirty()
	if d.Overflow || d.Structural {
		t.Fatalf("unexpected overflow/structural: %+v", d)
	}
	if len(d.Verts) != 2 || d.Verts[0] != 1 || d.Verts[1] != 3 {
		t.Fatalf("dirty verts = %v, want [1 3]", d.Verts)
	}
	if d.From != 0 || d.To != 2 {
		t.Fatalf("interval = (%d, %d], want (0, 2]", d.From, d.To)
	}
	// The box must cover old and new positions of both movers.
	for _, p := range []geom.Vec3{geom.V(1, 0, 0), geom.V(3, 0, 0), geom.V(0, 0, 1), geom.V(0, 0, 2)} {
		if !d.Box.Contains(p) {
			t.Fatalf("dirty box %v does not cover %v", d.Box, p)
		}
	}

	// Consume resets: next take over no steps is empty.
	if d := m.TakeDirty(); !d.Empty() {
		t.Fatalf("region not reset after take: %+v", d)
	}

	// A vertex recorded before a take must be re-recordable after it.
	m.Deform(func(pos []geom.Vec3) { pos[1] = geom.V(4, 0, 0) })
	d = m.TakeDirty()
	if len(d.Verts) != 1 || d.Verts[0] != 1 {
		t.Fatalf("dirty verts after reset = %v, want [1]", d.Verts)
	}
	if d.From != 2 || d.To != 3 {
		t.Fatalf("interval = (%d, %d], want (2, 3]", d.From, d.To)
	}
}

func TestDirtyTrackingOverflow(t *testing.T) {
	m := dirtyTestMesh(t)
	m.EnableDirtyTracking()
	m.dirtyCap = 1 // force overflow on the second mover
	m.Deform(func(pos []geom.Vec3) {
		for i := range pos {
			pos[i] = pos[i].Add(geom.V(1, 0, 0))
		}
	})
	d := m.TakeDirty()
	if !d.Overflow || d.Verts != nil {
		t.Fatalf("want overflow with nil verts, got %+v", d)
	}
	if d.Box.IsEmpty() {
		t.Fatal("overflowed region must still track the box")
	}
}

func TestDirtyTrackingDisabledReportsInterval(t *testing.T) {
	m := dirtyTestMesh(t)
	if d := m.TakeDirty(); !d.Empty() {
		t.Fatalf("no-steps region not empty: %+v", d)
	}
	m.Deform(func(pos []geom.Vec3) { pos[0] = geom.V(9, 9, 9) })
	d := m.TakeDirty()
	if !d.Overflow {
		t.Fatal("untracked deformation must report Overflow")
	}
	if d.From != 0 || d.To != 1 {
		t.Fatalf("interval = (%d, %d], want (0, 1]", d.From, d.To)
	}
	if d := m.TakeDirty(); !d.Empty() {
		t.Fatalf("interval not consumed: %+v", d)
	}
}

func TestDirtyTrackingStructural(t *testing.T) {
	m := dirtyTestMesh(t)
	m.EnableRestructuring()
	m.EnableDirtyTracking()
	base := int32(len(m.Cells()))
	x, _, err := m.SplitCell(0)
	if err != nil {
		t.Fatal(err)
	}
	d := m.TakeDirty()
	if !d.Structural {
		t.Fatal("SplitCell must mark the region structural")
	}
	want := []int32{0, base, base + 1, base + 2, base + 3}
	if len(d.Cells) != len(want) {
		t.Fatalf("dirty cells = %v, want %v (old cell + 4 replacements)", d.Cells, want)
	}
	for i := range want {
		if d.Cells[i] != want[i] {
			t.Fatalf("dirty cells = %v, want %v", d.Cells, want)
		}
	}
	if len(d.AddedVerts) != 1 || d.AddedVerts[0] != x {
		t.Fatalf("added verts = %v, want [%d]", d.AddedVerts, x)
	}
	// The mark array must have grown with the new vertex: a later deform
	// of the new vertex must track without panicking.
	nv := int32(m.NumVertices() - 1)
	m.Deform(func(pos []geom.Vec3) { pos[nv] = geom.V(5, 5, 5) })
	d = m.TakeDirty()
	if len(d.Verts) != 1 || d.Verts[0] != nv {
		t.Fatalf("dirty verts = %v, want [%d]", d.Verts, nv)
	}

	if _, err := m.DeleteCell(1); err != nil {
		t.Fatal(err)
	}
	d = m.TakeDirty()
	if !d.Structural || len(d.Cells) != 1 || d.Cells[0] != 1 {
		t.Fatalf("DeleteCell region = %+v, want structural with cells [1]", d)
	}
}

func TestDirtyRegionMerge(t *testing.T) {
	a := DirtyRegion{Box: geom.BoxAround(geom.V(0, 0, 0), 1), Verts: []int32{1, 4}, From: 0, To: 2}
	b := DirtyRegion{Box: geom.BoxAround(geom.V(5, 0, 0), 1), Verts: []int32{2, 4, 7}, From: 2, To: 5}
	a.Merge(b)
	if got, want := a.Verts, []int32{1, 2, 4, 7}; len(got) != len(want) {
		t.Fatalf("merged verts = %v, want %v", got, want)
	} else {
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("merged verts = %v, want %v", got, want)
			}
		}
	}
	if a.From != 0 || a.To != 5 {
		t.Fatalf("merged interval = (%d, %d], want (0, 5]", a.From, a.To)
	}
	if !a.Box.Contains(geom.V(6, 0, 0)) || !a.Box.Contains(geom.V(-1, 0, 0)) {
		t.Fatalf("merged box %v does not cover both inputs", a.Box)
	}

	a.Merge(DirtyRegion{Overflow: true, Structural: true, Cells: []int32{3}, From: 5, To: 6})
	if !a.Overflow || a.Verts != nil || !a.Structural || len(a.Cells) != 1 {
		t.Fatalf("overflow merge = %+v", a)
	}
}
