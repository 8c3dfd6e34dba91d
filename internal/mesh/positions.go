package mesh

import (
	"runtime"

	"octopus/internal/geom"
)

// This file implements the versioned position store (DESIGN.md §9): two
// position buffers and an atomic epoch counter. The buffer holding epoch e
// is bufs[e&1]; writers prepare the next state in the other buffer and
// publish it with a single atomic epoch increment, so readers that captured
// the front buffer never observe a half-written ("torn") position array.
// Pinning a buffer (a per-parity reader count) keeps the writer from
// recycling it while a query is still reading — the epoch a query pins is
// exactly the state its result set is consistent with.
//
// The second buffer is allocated by the first publish (2x position memory,
// the scheme's whole cost). A mesh that is never Deformed — the paper's
// loop: write Positions() in place, then Step() the engines — allocates
// nothing and pays two uncontended atomic adds per query for the pin.

// EnableSnapshots allocates the second position buffer and the dirty
// mark array now instead of at the first Deform (28 bytes/vertex), moving
// that allocation out of the first step. Nothing depends on it having
// been called.
func (m *Mesh) EnableSnapshots() {
	m.writerMu.Lock()
	m.allocBack()
	m.writerMu.Unlock()
}

// allocBack makes sure the odd-epoch buffer exists, and with it the mark
// array the publish diff deduplicates movers through. Caller holds
// writerMu. Readers touch back only after loading an odd epoch, and the
// first odd epoch is stored after this returns, so the write needs no
// other fence.
func (m *Mesh) allocBack() {
	if m.back == nil {
		m.back = make([]geom.Vec3, len(m.pos))
		m.dirtyMark = make([]uint32, len(m.pos))
	}
}

// Epoch returns the current position epoch: 0 until the first published
// Deform, incremented by one per deformation step and by two per
// restructuring operation that changes the vertex set (the state gets a
// fresh epoch number without switching buffers). In-place writes to
// Positions() do not advance it.
func (m *Mesh) Epoch() uint64 { return m.epoch.Load() }

// front returns the buffer holding the current epoch.
func (m *Mesh) front() []geom.Vec3 { return m.buf(m.epoch.Load()) }

// buf returns the buffer that holds (or will hold) epoch e.
func (m *Mesh) buf(e uint64) []geom.Vec3 {
	if e&1 == 0 {
		return m.pos
	}
	return m.back
}

// PinPositions captures a consistent snapshot of the positions for the
// duration of one query: it returns the current epoch and the buffer
// holding it, and guarantees the buffer is not rewritten until
// UnpinPositions(epoch) releases it. Any number of readers may hold pins
// concurrently; a Deform publishing a new epoch proceeds without waiting
// (it writes the other buffer) and only a second subsequent Deform blocks
// until the old buffer's pins drain.
func (m *Mesh) PinPositions() (uint64, []geom.Vec3) {
	for {
		e := m.epoch.Load()
		m.pins[e&1].Add(1)
		// Revalidate after registering: if the epoch moved, the writer may
		// already have been waiting on — or have skipped — this parity's
		// count, so the pin must be retaken against the new epoch. While
		// the recheck still reads e, the buffer cannot be recycled: the
		// writer that would reuse it (epoch e+2) first waits for this
		// very count to drain. Restructuring bumps by two on the same
		// buffer, but it requires exclusive access, so it never races a
		// pin.
		if m.epoch.Load() == e {
			return e, m.buf(e)
		}
		m.pins[e&1].Add(-1)
	}
}

// UnpinPositions releases a pin taken by PinPositions.
func (m *Mesh) UnpinPositions(epoch uint64) { m.pins[epoch&1].Add(-1) }

// Deform applies one whole-mesh position update: fn receives the back
// buffer pre-loaded with a copy of the current positions (the first call
// allocates that buffer), and when fn returns the new state is published
// with a single atomic epoch increment, so concurrent pinned readers are
// never torn: they either see the epoch before the step or the epoch after
// it, complete in both cases. Deforms serialize with each other; before
// reusing a buffer the writer waits for that buffer's pinned readers to
// drain (readers always finish: new pins go to the freshly published
// buffer).
func (m *Mesh) Deform(fn func(pos []geom.Vec3)) {
	m.publish(fn, true)
}

// DeformOverwrite is Deform for full-overwrite updates: fn must write
// every element of pos, and in exchange the back buffer is not
// pre-loaded with the current state — skipping one O(V) copy per step.
// The shard container's per-step scatter (which rewrites every local
// position from the global array) is the intended user; incremental
// deformers need plain Deform.
func (m *Mesh) DeformOverwrite(fn func(pos []geom.Vec3)) {
	m.publish(fn, false)
}

// publish runs one deformation step: wait out the target buffer's pins,
// optionally pre-load it with the current state, apply fn, record the
// movers, refit the target's block boxes, publish, and log the movers'
// box.
func (m *Mesh) publish(fn func(pos []geom.Vec3), preload bool) {
	m.writerMu.Lock()
	defer m.writerMu.Unlock()
	m.allocBack()
	e := m.epoch.Load()
	target := m.buf(e + 1)
	for m.pins[(e+1)&1].Load() != 0 {
		runtime.Gosched()
	}
	if preload {
		copy(target, m.buf(e))
	}
	fn(target)
	moved := m.recordDeformDirty(m.buf(e), target)
	if m.surfIdx != nil {
		m.surfIdx.refit(e+1, target)
	}
	m.epoch.Store(e + 1) // the single publishing store
	m.dirtyLog.Append(DirtyRec{Epoch: e + 1, Tracked: true, Box: moved})
}

// growPosition appends a new vertex position to the store (restructuring's
// SplitCell path), keeping both buffers and the mark array the same
// length (a back buffer not yet allocated takes the grown length when it
// is), and returns the new vertex id. The caller must hold exclusive
// access (restructuring is never concurrent with queries or Deform). The
// epoch advances by two — same buffer parity, fresh state identity — so
// epoch-tagged results and caches remain unambiguous. The new vertex set
// is a structural change by definition, logged untracked.
func (m *Mesh) growPosition(p geom.Vec3) int32 {
	v := int32(len(m.pos))
	m.pos = append(m.pos, p)
	if m.back != nil {
		m.back = append(m.back, p)
		m.dirtyMark = append(m.dirtyMark, 0)
	}
	m.dirtyLog.Append(DirtyRec{Epoch: m.epoch.Add(2), Box: geom.EmptyBox()})
	m.dirty.Structural = true
	m.dirty.Box = m.dirty.Box.Extend(p)
	return v
}

// snapshotPins is a test hook: the live pin counts per buffer parity.
func (m *Mesh) snapshotPins() [2]int64 {
	return [2]int64{m.pins[0].Load(), m.pins[1].Load()}
}
