package mesh

import (
	"math"

	"octopus/internal/geom"
)

// This file implements the surface index OCTOPUS probes (paper §IV-A,
// §IV-E2) and the two levels of block boxes over it (DESIGN.md §2): one
// AABB per ProbeBlock consecutive slots (a leaf) and one per ProbeFan
// leaves. The boxes ride with the position buffers: each parity has its
// own, and every writer of a buffer refits them before any reader can see
// it — publish before the epoch store, DeleteCell after applying its delta
// to the slot order, RefitSurface after in-place writes. A reader that
// pinned epoch e reads Boxes(e) under the pin that keeps the positions of
// e from being rewritten, so no query builds or locks anything. A mesh
// whose index no engine asked for (SurfaceIndex) refits nothing.

// ProbeBlock is the number of consecutive surface slots one leaf box
// covers, and ProbeFan the number of leaves one coarse box covers:
// constants, not knobs (DESIGN.md §2 has the sizes measured).
const (
	ProbeBlock = 32
	ProbeFan   = 16
)

// BlockBoxes is the probe's summary of one position state: Leaf[b] bounds
// surface slots [b*ProbeBlock, (b+1)*ProbeBlock), Coarse[c] bounds
// Leaf[c*ProbeFan : (c+1)*ProbeFan] (both ranges cut at the end). Readers
// must not modify it.
type BlockBoxes struct {
	Leaf, Coarse []geom.AABB
}

// Leaves returns the leaf range [lo, hi) of coarse box c.
func (bb *BlockBoxes) Leaves(c int) (lo, hi int) {
	lo = c * ProbeFan
	return lo, min(lo+ProbeFan, len(bb.Leaf))
}

// SurfaceIndex is the surface index of a mesh: the surface vertex ids in
// slot order, the slot of every surface vertex, and the block boxes of
// each position buffer. Restructuring maintains it (§IV-E2: swap-remove
// and append), which takes it out of the dense surface-first layout. It
// is read-only to its readers.
type SurfaceIndex struct {
	slots []int32
	// slotOf maps a surface vertex to its slot; nil while the index is
	// the dense prefix it was created as (slot v holds vertex v).
	slotOf map[int32]int32
	boxes  [2]BlockBoxes
}

// SurfaceIndex returns the mesh's surface index, creating it on the first
// call — under the writer mutex, so that it is never missed by a publish —
// with the boxes of the buffer holding the current epoch. The slot order
// is SurfaceVertices' ascending order, so a surface-first layout is dense.
// A mesh without cells has no faces, and nothing a crawl could reach from
// a seed: all of its vertices are indexed.
func (m *Mesh) SurfaceIndex() *SurfaceIndex {
	m.writerMu.Lock()
	defer m.writerMu.Unlock()
	if m.surfIdx == nil {
		s := &SurfaceIndex{slots: m.SurfaceVertices()}
		if len(m.cells) == 0 {
			for v := range m.pos {
				s.slots = append(s.slots, int32(v))
			}
		}
		for i, v := range s.slots {
			if v != int32(i) {
				s.indexSlots()
				break
			}
		}
		m.surfIdx = s
		m.refitFront()
	}
	return m.surfIdx
}

// RefitSurface refits the block boxes of the buffer holding the current
// epoch: an engine's Step after positions were written in place, which
// publishes nothing. Like those writes it requires that no query be in
// flight.
func (m *Mesh) RefitSurface() {
	m.writerMu.Lock()
	defer m.writerMu.Unlock()
	if m.surfIdx != nil {
		m.refitFront()
	}
}

// refitFront refits the boxes of the buffer holding the current epoch.
// The caller holds writerMu or has exclusive access.
func (m *Mesh) refitFront() {
	e := m.epoch.Load()
	m.surfIdx.refit(e, m.buf(e))
}

// Slots returns the surface vertex ids in slot order.
func (s *SurfaceIndex) Slots() []int32 { return s.slots }

// Dense reports whether slot i holds vertex i for every slot: the
// surface-first layout, where a probe reads the position array directly.
// An index is dense until restructuring builds its slot map.
func (s *SurfaceIndex) Dense() bool { return s.slotOf == nil }

// Slot returns the slot of vertex v; ok is false off the surface.
func (s *SurfaceIndex) Slot(v int32) (slot int32, ok bool) {
	if s.slotOf == nil {
		return v, v >= 0 && int(v) < len(s.slots)
	}
	slot, ok = s.slotOf[v]
	return slot, ok
}

// Boxes returns the block boxes of the buffer holding epoch. They are
// exact for epoch while the caller holds a pin on it (Mesh.PinPositions).
func (s *SurfaceIndex) Boxes(epoch uint64) *BlockBoxes { return &s.boxes[epoch&1] }

// LeafSlots returns the surface slot range [lo, hi) of leaf b.
func (s *SurfaceIndex) LeafSlots(b int) (lo, hi int) {
	lo = b * ProbeBlock
	return lo, min(lo+ProbeBlock, len(s.slots))
}

// MemoryBytes is the index's footprint: the slot array, the slot map when
// one was built, and the boxes of both levels of every buffer that has
// them — one parity for a mesh that was never Deformed.
func (s *SurfaceIndex) MemoryBytes() int64 {
	n := int64(cap(s.slots))*4 + int64(len(s.slotOf))*16
	for i := range s.boxes {
		n += int64(len(s.boxes[i].Leaf)+len(s.boxes[i].Coarse)) * 48
	}
	return n
}

// indexSlots builds the slot map from the slot order.
func (s *SurfaceIndex) indexSlots() {
	s.slotOf = make(map[int32]int32, len(s.slots))
	for i, v := range s.slots {
		s.slotOf[v] = int32(i)
	}
}

// apply folds a restructuring delta into the slot order: a removed vertex
// is swap-removed (the last slot moves into its place), an added one is
// appended.
func (s *SurfaceIndex) apply(d SurfaceDelta) {
	if s.slotOf == nil {
		s.indexSlots()
	}
	for _, v := range d.Removed {
		slot, ok := s.slotOf[v]
		if !ok {
			continue
		}
		last := int32(len(s.slots) - 1)
		moved := s.slots[last]
		s.slots[slot] = moved
		s.slotOf[moved] = slot
		s.slots = s.slots[:last]
		delete(s.slotOf, v)
	}
	for _, v := range d.Added {
		if _, ok := s.slotOf[v]; ok {
			continue
		}
		s.slotOf[v] = int32(len(s.slots))
		s.slots = append(s.slots, v)
	}
}

// refit recomputes both levels of the boxes of the buffer holding epoch
// from pos, reusing their arrays: the tight AABB of every leaf, then the
// union of every ProbeFan leaves. A layout out of the dense one gathers
// each leaf's positions first, so there is one kernel.
func (s *SurfaceIndex) refit(epoch uint64, pos []geom.Vec3) {
	bb := &s.boxes[epoch&1]
	bb.Leaf, bb.Coarse = bb.Leaf[:0], bb.Coarse[:0]
	if s.Dense() {
		bb.Leaf = appendLeafBoxes(bb.Leaf, pos[:len(s.slots)])
	} else {
		var gathered [ProbeBlock]geom.Vec3
		for lo := 0; lo < len(s.slots); lo += ProbeBlock {
			hi := min(lo+ProbeBlock, len(s.slots))
			for i, v := range s.slots[lo:hi] {
				gathered[i] = pos[v]
			}
			bb.Leaf = appendLeafBoxes(bb.Leaf, gathered[:hi-lo])
		}
	}
	for lo := 0; lo < len(bb.Leaf); lo += ProbeFan {
		bb.Coarse = append(bb.Coarse, unionBox(bb.Leaf[lo:min(lo+ProbeFan, len(bb.Leaf))]))
	}
}

// appendLeafBoxes is the refit kernel: it appends to dst the tight AABB
// of every ProbeBlock consecutive positions of pos, the last run possibly
// shorter. It reads every surface position of every step, so it runs
// without a data-dependent branch: each coordinate is mapped to an
// integer key with the same ordering (orderedKey) and the six running
// bounds are integer min/max, which compile to conditional moves; one
// call covers every leaf of a dense surface (DESIGN.md §2 has the
// alternatives measured). A NaN coordinate orders outside ±Inf and so
// becomes the bound of its axis, where no comparison can prune on it:
// loose, never wrong — the containment test accepts no NaN.
func appendLeafBoxes(dst []geom.AABB, pos []geom.Vec3) []geom.AABB {
	for lo := 0; lo < len(pos); lo += ProbeBlock {
		leaf := pos[lo:min(lo+ProbeBlock, len(pos))]
		var minX, minY, minZ int64 = math.MaxInt64, math.MaxInt64, math.MaxInt64
		var maxX, maxY, maxZ int64 = math.MinInt64, math.MinInt64, math.MinInt64
		for i := range leaf {
			x, y, z := orderedKey(leaf[i].X), orderedKey(leaf[i].Y), orderedKey(leaf[i].Z)
			if x < minX {
				minX = x
			}
			if x > maxX {
				maxX = x
			}
			if y < minY {
				minY = y
			}
			if y > maxY {
				maxY = y
			}
			if z < minZ {
				minZ = z
			}
			if z > maxZ {
				maxZ = z
			}
		}
		dst = append(dst, geom.AABB{
			Min: geom.V(fromOrderedKey(minX), fromOrderedKey(minY), fromOrderedKey(minZ)),
			Max: geom.V(fromOrderedKey(maxX), fromOrderedKey(maxY), fromOrderedKey(maxZ)),
		})
	}
	return dst
}

// unionBox is the coarse level's kernel: the smallest box around boxes
// (which must not be empty), under the same integer keys as
// appendLeafBoxes, so a NaN bound of a leaf stays the bound of its coarse
// box and prunes nothing there either. It runs once per ProbeFan leaves.
func unionBox(boxes []geom.AABB) geom.AABB {
	var minX, minY, minZ int64 = math.MaxInt64, math.MaxInt64, math.MaxInt64
	var maxX, maxY, maxZ int64 = math.MinInt64, math.MinInt64, math.MinInt64
	for i := range boxes {
		b := &boxes[i]
		minX, minY, minZ = min(minX, orderedKey(b.Min.X)), min(minY, orderedKey(b.Min.Y)), min(minZ, orderedKey(b.Min.Z))
		maxX, maxY, maxZ = max(maxX, orderedKey(b.Max.X)), max(maxY, orderedKey(b.Max.Y)), max(maxZ, orderedKey(b.Max.Z))
	}
	return geom.AABB{
		Min: geom.V(fromOrderedKey(minX), fromOrderedKey(minY), fromOrderedKey(minZ)),
		Max: geom.V(fromOrderedKey(maxX), fromOrderedKey(maxY), fromOrderedKey(maxZ)),
	}
}

// orderedKey maps f to an int64 that compares like f does: the IEEE bit
// pattern, with the magnitude bits of negative values flipped (their
// patterns grow as the value falls). -0 orders just below +0; NaNs order
// beyond the infinities. fromOrderedKey is its inverse — the map is an
// involution on the bit pattern.
func orderedKey(f float64) int64 {
	b := int64(math.Float64bits(f))
	return b ^ int64(uint64(b>>63)>>1)
}

func fromOrderedKey(k int64) float64 {
	return math.Float64frombits(uint64(k ^ int64(uint64(k>>63)>>1)))
}
