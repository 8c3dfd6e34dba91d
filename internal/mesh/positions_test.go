package mesh

import (
	"runtime"
	"testing"
	"time"

	"octopus/internal/geom"
)

// tinyMesh builds a 4-vertex single-tet mesh.
func tinyMesh(t *testing.T) *Mesh {
	t.Helper()
	b := NewBuilder(4, 1)
	b.AddVertex(geom.V(0, 0, 0))
	b.AddVertex(geom.V(1, 0, 0))
	b.AddVertex(geom.V(0, 1, 0))
	b.AddVertex(geom.V(0, 0, 1))
	b.AddTet(0, 1, 2, 3)
	m, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// TestInPlaceLoopAllocatesNoSecondBuffer is the lazy-allocation guard: a
// mesh that is pinned, read and written in place — the paper's loop — but
// never Deformed holds one position array; the first Deform brings the
// second.
func TestInPlaceLoopAllocatesNoSecondBuffer(t *testing.T) {
	m := tinyMesh(t)
	built := m.MemoryBytes()
	for step := 0; step < 3; step++ {
		e, pos := m.PinPositions()
		if e != 0 {
			t.Fatalf("epoch = %d, want 0", e)
		}
		if &pos[0] != &m.Positions()[0] {
			t.Fatal("a pin at epoch 0 must return the array Positions() writes")
		}
		if pins := m.snapshotPins(); pins != [2]int64{1, 0} {
			t.Fatalf("pins while pinned = %v, want [1 0]", pins)
		}
		m.UnpinPositions(e)
		m.Positions()[0] = geom.V(9, 9, float64(step))
		m.SetPosition(1, geom.V(float64(step), 0, 0))
		if m.Position(0) != geom.V(9, 9, float64(step)) {
			t.Fatal("in-place write lost")
		}
	}
	if m.Epoch() != 0 {
		t.Fatalf("in-place writes advanced the epoch to %d", m.Epoch())
	}
	if m.back != nil || m.MemoryBytes() != built {
		t.Fatalf("MemoryBytes %d -> %d, second buffer %v: the in-place loop must allocate nothing",
			built, m.MemoryBytes(), m.back != nil)
	}
	m.Deform(func(p []geom.Vec3) { p[0] = geom.V(1, 2, 3) })
	if got, want := m.MemoryBytes(), built+int64(m.NumVertices())*24; got != want {
		t.Fatalf("MemoryBytes after the first Deform = %d, want %d (one more position array)", got, want)
	}
	if m.Epoch() != 1 || m.Position(0) != geom.V(1, 2, 3) || m.Position(1) != geom.V(2, 0, 0) {
		t.Fatalf("first Deform published epoch %d, positions %v %v", m.Epoch(), m.Position(0), m.Position(1))
	}
}

// TestFirstDeformUnderPinnedReader: a reader pins epoch 0 before the mesh
// has a second buffer. The first Deform allocates it and publishes without
// waiting; the second wants the reader's buffer back and must wait for the
// unpin, and until then the reader's view is bit-unchanged.
func TestFirstDeformUnderPinnedReader(t *testing.T) {
	m := tinyMesh(t)
	pinned, release, readerDone := make(chan struct{}), make(chan struct{}), make(chan struct{})
	go func() {
		defer close(readerDone)
		e, pos := m.PinPositions()
		want := append([]geom.Vec3(nil), pos...)
		close(pinned)
		for {
			for i := range pos {
				if pos[i] != want[i] {
					t.Errorf("pinned epoch %d: position %d changed under the pin", e, i)
				}
			}
			select {
			case <-release:
				m.UnpinPositions(e)
				return
			default:
				runtime.Gosched()
			}
		}
	}()
	<-pinned
	if m.back != nil {
		t.Fatal("second buffer exists before the first Deform")
	}
	shift := func(p []geom.Vec3) {
		for i := range p {
			p[i] = p[i].Add(geom.V(0.5, 0, 0))
		}
	}
	m.Deform(shift) // must not wait: it writes the buffer nobody holds
	if m.Epoch() != 1 {
		t.Fatalf("epoch after the first Deform = %d, want 1", m.Epoch())
	}
	second := make(chan struct{})
	go func() {
		m.Deform(shift)
		close(second)
	}()
	select {
	case <-second:
		t.Fatal("the second Deform recycled a pinned buffer")
	case <-time.After(20 * time.Millisecond):
	}
	close(release)
	<-readerDone
	select {
	case <-second:
	case <-time.After(2 * time.Second):
		t.Fatal("the second Deform did not proceed after the unpin")
	}
	if m.Epoch() != 2 || m.Position(0) != geom.V(1, 0, 0) {
		t.Fatalf("epoch %d, position %v after two steps, want 2 and (1,0,0)", m.Epoch(), m.Position(0))
	}
	if pins := m.snapshotPins(); pins != [2]int64{} {
		t.Fatalf("leaked pins: %v", pins)
	}
}

func TestSnapshotPublishAndPinnedIsolation(t *testing.T) {
	m := tinyMesh(t)
	m.EnableSnapshots() // allocates the second buffer ahead of the first Deform
	if len(m.back) != len(m.pos) {
		t.Fatalf("EnableSnapshots left a %d-position second buffer, want %d", len(m.back), len(m.pos))
	}
	back := &m.back[0]
	m.EnableSnapshots() // idempotent
	if &m.back[0] != back {
		t.Fatal("a second EnableSnapshots reallocated the buffer")
	}

	e0, snap0 := m.PinPositions()
	if e0 != 0 {
		t.Fatalf("initial epoch = %d", e0)
	}
	p0 := snap0[0]

	m.Deform(func(p []geom.Vec3) { p[0] = p[0].Add(geom.V(0.5, 0, 0)) })
	if m.Epoch() != 1 {
		t.Fatalf("epoch after deform = %d, want 1", m.Epoch())
	}
	// The pinned snapshot must be untouched by the published step.
	if snap0[0] != p0 {
		t.Fatal("pinned buffer mutated by Deform")
	}
	if m.Position(0) != p0.Add(geom.V(0.5, 0, 0)) {
		t.Fatal("front buffer missing the published step")
	}

	// A second Deform needs snap0's buffer back: it must block until the
	// pin is released.
	done := make(chan struct{})
	go func() {
		m.Deform(func(p []geom.Vec3) { p[0] = p[0].Add(geom.V(0.5, 0, 0)) })
		close(done)
	}()
	select {
	case <-done:
		t.Fatal("Deform recycled a pinned buffer")
	case <-time.After(20 * time.Millisecond):
	}
	m.UnpinPositions(e0)
	select {
	case <-done:
	case <-time.After(2 * time.Second):
		t.Fatal("Deform did not proceed after unpin")
	}
	if m.Epoch() != 2 {
		t.Fatalf("epoch = %d, want 2", m.Epoch())
	}
	if pins := m.snapshotPins(); pins[0] != 0 || pins[1] != 0 {
		t.Fatalf("leaked pins: %v", pins)
	}
}

func TestGrowPositionKeepsBuffersAligned(t *testing.T) {
	m := tinyMesh(t)
	m.Deform(func(p []geom.Vec3) { p[1] = p[1].Add(geom.V(0, 0.25, 0)) }) // epoch 1
	if _, _, err := m.SplitCell(0); err != nil {
		t.Fatal(err)
	}
	if m.Epoch() != 3 {
		t.Fatalf("epoch after split = %d, want 3 (1 + 2)", m.Epoch())
	}
	if len(m.pos) != len(m.back) {
		t.Fatalf("buffer lengths diverged: %d vs %d", len(m.pos), len(m.back))
	}
	if m.NumVertices() != 5 {
		t.Fatalf("NumVertices = %d, want 5", m.NumVertices())
	}
	// The next Deform must see consistent lengths in both buffers.
	m.Deform(func(p []geom.Vec3) {
		if len(p) != 5 {
			t.Errorf("deform saw %d positions, want 5", len(p))
		}
	})
	if err := m.Validate(); err != nil {
		t.Fatal(err)
	}
}

// TestSplitCellBeforeFirstDeform: restructuring a mesh that has no second
// buffer yet still gives the state a fresh epoch (0 -> 2), and the buffer
// the first Deform allocates has the grown length (-> 3).
func TestSplitCellBeforeFirstDeform(t *testing.T) {
	m := tinyMesh(t)
	v, _, err := m.SplitCell(0)
	if err != nil {
		t.Fatal(err)
	}
	if m.Epoch() != 2 {
		t.Fatalf("epoch after split = %d, want 2", m.Epoch())
	}
	if m.back != nil {
		t.Fatal("SplitCell allocated the second buffer")
	}
	centroid := m.Position(v)
	m.Deform(func(p []geom.Vec3) {
		if len(p) != 5 {
			t.Errorf("deform saw %d positions, want 5", len(p))
		}
		p[0] = geom.V(7, 7, 7)
	})
	if m.Epoch() != 3 {
		t.Fatalf("epoch after deform = %d, want 3", m.Epoch())
	}
	if len(m.pos) != 5 || len(m.back) != 5 {
		t.Fatalf("buffer lengths %d and %d, want 5 and 5", len(m.pos), len(m.back))
	}
	if m.Position(v) != centroid || m.Position(0) != geom.V(7, 7, 7) {
		t.Fatalf("published state lost the split vertex or the step: %v %v", m.Position(v), m.Position(0))
	}
	if err := m.Validate(); err != nil {
		t.Fatal(err)
	}
}
