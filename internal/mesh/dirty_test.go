package mesh

import (
	"math"
	"math/rand"
	"slices"
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

// TestDirtyRecordedFromConstruction pins that recording is not a mode:
// the first Deform of a freshly built or renumbered mesh yields its exact
// movers, and a mesh only ever written in place — the paper's loop, as
// the sim-step workload runs it — records nothing and allocates no mark
// array.
func TestDirtyRecordedFromConstruction(t *testing.T) {
	built := dirtyTestMesh(t)
	renumbered, err := built.Renumber([]int32{4, 3, 2, 1, 0})
	if err != nil {
		t.Fatal(err)
	}
	for name, m := range map[string]*Mesh{"built": built, "renumbered": renumbered} {
		m.Positions()[0] = geom.V(7, 7, 7)
		if d := m.TakeDirty(); !d.Empty() || !d.Box.IsEmpty() {
			t.Fatalf("%s: an in-place write recorded %+v", name, d)
		}
		if m.dirtyMark != nil {
			t.Fatalf("%s: a never-Deformed mesh allocated a mark array", name)
		}
		m.Deform(func(pos []geom.Vec3) { pos[2] = geom.V(9, 9, 9) })
		d := m.TakeDirty()
		if d.Overflow || d.Structural || !slices.Equal(d.Verts, []int32{2}) || d.From != 0 || d.To != 1 {
			t.Fatalf("%s: first Deform recorded %+v, want verts [2] over (0, 1]", name, d)
		}
		if !d.Box.Contains(geom.V(9, 9, 9)) {
			t.Fatalf("%s: dirty box %v misses the mover", name, d.Box)
		}
	}
}

func TestDirtyTrackingStructural(t *testing.T) {
	m := dirtyTestMesh(t)
	m.EnableSnapshots() // SplitCell then grows an allocated mark array
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

// recordDeformDirtyOracle is the loop recordDeformDirty replaced, kept as
// its oracle: AABB.Extend by the old then the new position of every
// mover, straight into the accumulator.
func recordDeformDirtyOracle(d *DirtyRegion, mark []uint32, stamp uint32, cap int, old, now []geom.Vec3) {
	for i := range now {
		if old[i] == now[i] {
			continue
		}
		d.Box = d.Box.Extend(old[i]).Extend(now[i])
		if d.Overflow || mark[i] == stamp {
			continue
		}
		mark[i] = stamp
		if len(d.Verts) >= cap {
			d.Overflow = true
			d.Verts = nil
			continue
		}
		d.Verts = append(d.Verts, int32(i))
	}
}

// TestRecordDeformDirtyMatchesExtendLoop replays a sequence of steps —
// a few movers, a step that crosses dirtyCap, a step where nothing moved,
// and steps through signed zeros, infinities and NaN — and after each
// one requires the same Box (bit for bit), Verts, Overflow and mark
// array as the oracle loop run on a snapshot of the state before it.
func TestRecordDeformDirtyMatchesExtendLoop(t *testing.T) {
	const n = 300
	b := NewBuilder(n, n)
	r := rand.New(rand.NewSource(7))
	for i := 0; i < n; i++ {
		b.AddVertex(geom.V(r.Float64(), r.Float64(), r.Float64()))
	}
	for i := 0; i+3 < n; i++ {
		b.AddTet(int32(i), int32(i+1), int32(i+2), int32(i+3))
	}
	m, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	m.EnableSnapshots() // allocates the mark array the oracle copies
	bits := func(b geom.AABB) [6]uint64 {
		return [6]uint64{
			math.Float64bits(b.Min.X), math.Float64bits(b.Min.Y), math.Float64bits(b.Min.Z),
			math.Float64bits(b.Max.X), math.Float64bits(b.Max.Y), math.Float64bits(b.Max.Z),
		}
	}
	moveSome := func(k int) func([]geom.Vec3) {
		return func(pos []geom.Vec3) {
			for _, i := range r.Perm(n)[:k] {
				pos[i] = pos[i].Add(geom.V(r.NormFloat64(), r.NormFloat64(), r.NormFloat64()))
			}
		}
	}
	nz, inf, nan := math.Copysign(0, -1), math.Inf(1), math.NaN()
	still := func([]geom.Vec3) {}
	steps := []struct {
		name     string
		fn       func([]geom.Vec3)
		take     bool // consume the region after the step
		empty    bool // Box must still be EmptyBox
		overflow bool // the step must overflow the cap
	}{
		{name: "nothing moved on a fresh region", fn: still, empty: true},
		{name: "few movers", fn: moveSome(10)},
		{name: "crosses dirtyCap", fn: moveSome(m.dirtyCap), take: true, overflow: true},
		{name: "nothing moved after a take", fn: still, empty: true},
		{name: "signed zeros", fn: func(pos []geom.Vec3) { pos[3], pos[4] = geom.V(nz, 0, nz), geom.V(0, nz, 0) }},
		{name: "-0 to +0 is no move", fn: func(pos []geom.Vec3) { pos[3] = geom.V(0, nz, 0) }},
		{name: "infinities", fn: func(pos []geom.Vec3) { pos[5], pos[6] = geom.V(-inf, 1, inf), geom.V(inf, -inf, 2) }, take: true},
		{name: "NaN beside the infinities", fn: func(pos []geom.Vec3) { pos[7], pos[9] = geom.V(nan, nan, nan), geom.V(-inf, inf, 0) }},
		{name: "NaN never equals itself", fn: still, take: true},
		{name: "NaN payload", fn: func(pos []geom.Vec3) { pos[8] = geom.V(1, math.Float64frombits(0x7ff4000000000123), 1) }},
	}
	for _, s := range steps {
		want := m.dirty
		want.Verts = append([]int32(nil), m.dirty.Verts...)
		mark := append([]uint32(nil), m.dirtyMark...)
		old := append([]geom.Vec3(nil), m.Positions()...)
		m.Deform(s.fn)
		recordDeformDirtyOracle(&want, mark, m.dirtyStamp, m.dirtyCap, old, m.Positions())

		got := m.dirty
		if bits(got.Box) != bits(want.Box) {
			t.Fatalf("%s: Box %x, oracle %x", s.name, bits(got.Box), bits(want.Box))
		}
		if got.Overflow != want.Overflow || (got.Verts == nil) != (want.Verts == nil) || !slices.Equal(got.Verts, want.Verts) {
			t.Fatalf("%s: Verts %v overflow %v, oracle %v overflow %v", s.name, got.Verts, got.Overflow, want.Verts, want.Overflow)
		}
		if !slices.Equal(m.dirtyMark, mark) {
			t.Fatalf("%s: mark array diverged from the oracle's", s.name)
		}
		if s.overflow && !got.Overflow {
			t.Fatalf("%s: %d movers past cap %d did not overflow", s.name, len(got.Verts), m.dirtyCap)
		}
		if s.empty && bits(got.Box) != bits(geom.EmptyBox()) {
			t.Fatalf("%s: Box %v, want EmptyBox", s.name, got.Box)
		}
		if s.take {
			m.TakeDirty()
		}
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
