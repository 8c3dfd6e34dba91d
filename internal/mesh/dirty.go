package mesh

import (
	"slices"

	"octopus/internal/geom"
)

// This file implements dirty-region tracking, the mesh side of the
// incremental-maintenance subsystem (DESIGN.md §11). Every mesh records
// its dirt from construction: every published deformation step records
// which vertices actually moved — their ids, and a coarse AABB covering
// both their old and new positions — and every restructuring operation
// records the cells it touched. Index engines consume the accumulated
// region through TakeDirty (reset on consume) and maintain only the dirty
// part of their structures instead of paying a monolithic per-step
// rebuild. In-place writes to Positions() are not seen: they publish no
// epoch, and the engines' Step covers them.
//
// Recording costs one position-compare pass per published step, plus a
// 4-byte mark per vertex allocated with the second position buffer, so a
// mesh that is never Deformed pays nothing. Measured on neuro-l3 at K = 4
// with every vertex moving (each position a mover, the mover list filled
// to its cap), the pass costs ≈ 13–14 ns per position, about twice the
// scatter that publishes the shard (≈ 6–10 ns); before its box fold
// stopped calling math.Min/Max it cost ≈ 75–110.

// DirtyRegion describes where the mesh changed over an epoch interval.
// The zero value means "nothing changed".
type DirtyRegion struct {
	// Box is the union AABB of the old and new positions of every moved
	// vertex — the coarse region an engine must restructure over. It is
	// EmptyBox-valued when no vertex moved.
	Box geom.AABB
	// Verts lists the ids of the vertices that moved, ascending and
	// deduplicated. It is nil when Overflow is set (too many movers to be
	// worth enumerating) and empty when nothing moved.
	Verts []int32
	// Overflow reports that more vertices moved than the tracking cap:
	// Verts is nil and engines should treat every vertex as potentially
	// dirty (Box is still valid).
	Overflow bool
	// Structural reports that mesh connectivity changed (cell split or
	// delete): localized positional maintenance is insufficient and
	// engines must take their full-rebuild path.
	Structural bool
	// Cells lists the ids of the cells touched by restructuring since the
	// last consume — the dirty-cell set of the structural path. A split
	// records both the retired cell and its replacement cells, a delete
	// records the dead cell, so a consumer holds the exact cell set whose
	// membership changed (re-partitioning keys precisely these; dead cells
	// must be filtered by the consumer). Sorted and deduplicated on
	// consume.
	Cells []int32
	// AddedVerts lists the ids of vertices created by restructuring
	// (SplitCell centroids) since the last consume, sorted on consume.
	// They are never listed in Verts — they did not move, they appeared —
	// and a re-partitioner must assign them an owner.
	AddedVerts []int32
	// From and To delimit the position epochs the region covers:
	// everything that changed publishing epochs (From, To].
	From, To uint64
}

// Empty reports whether the region records no change at all.
func (d DirtyRegion) Empty() bool {
	return !d.Overflow && !d.Structural && len(d.Verts) == 0 && d.From == d.To
}

// Merge folds o (a later interval) into d so that d covers both.
func (d *DirtyRegion) Merge(o DirtyRegion) {
	if o.From < d.From || d.From == d.To {
		d.From = o.From
	}
	if o.To > d.To {
		d.To = o.To
	}
	if o.Structural {
		d.Structural = true
	}
	d.Cells = append(d.Cells, o.Cells...)
	d.AddedVerts = append(d.AddedVerts, o.AddedVerts...)
	if o.Overflow {
		d.Overflow = true
		d.Verts = nil
	}
	d.Box = d.Box.Union(o.Box)
	if d.Overflow {
		return
	}
	// Merge the sorted, deduplicated id lists.
	if len(o.Verts) == 0 {
		return
	}
	if len(d.Verts) == 0 {
		d.Verts = append(d.Verts[:0], o.Verts...)
		return
	}
	merged := make([]int32, 0, len(d.Verts)+len(o.Verts))
	i, j := 0, 0
	for i < len(d.Verts) || j < len(o.Verts) {
		switch {
		case j >= len(o.Verts) || (i < len(d.Verts) && d.Verts[i] < o.Verts[j]):
			merged = append(merged, d.Verts[i])
			i++
		case i >= len(d.Verts) || o.Verts[j] < d.Verts[i]:
			merged = append(merged, o.Verts[j])
			j++
		default: // equal
			merged = append(merged, d.Verts[i])
			i++
			j++
		}
	}
	d.Verts = merged
}

// defaultDirtyCap returns the tracking cap for a mesh of n vertices:
// past half the mesh, enumerating movers costs more than a full sweep
// saves, so tracking overflows instead.
func defaultDirtyCap(n int) int {
	return max(n/2, 64)
}

// TakeDirty returns the dirty region accumulated since the last call (or
// since construction) and resets the accumulator — the consume side of
// the contract. TakeDirty must not run concurrently with Deform or
// restructuring (the scheduler calls it from the writer goroutine between
// steps).
func (m *Mesh) TakeDirty() DirtyRegion {
	head := m.Epoch()
	d := m.dirty
	d.To = head
	slices.Sort(d.Verts)
	slices.Sort(d.Cells)
	d.Cells = slices.Compact(d.Cells)
	slices.Sort(d.AddedVerts)
	m.dirty = DirtyRegion{Box: geom.EmptyBox(), From: head, To: head}
	m.dirtyStamp++
	return d
}

// recordDeformDirty diffs the freshly published buffer against the
// previous front, folds the movers into the accumulator and returns
// their box (the step's dirty-log record). Called by publish after fn
// ran, before the epoch store; old and now have equal length. Cross-step
// deduplication is an epoch-stamped mark array (O(1) per vertex, O(1)
// reset on consume).
//
// The movers' box folds in two Vec3 corners started at EmptyBox's with
// the builtin min/max (inlined; AABB.Extend's math.Min/Max are calls) and
// is unioned into the accumulator once: bit-equal to extending the
// accumulator by old[i] then now[i] per mover, because min and max are
// associative and a step with no mover unions EmptyBox, a no-op. The
// builtins part ways with math.Min/Max only on NaN (math lets an infinity
// beat it and canonicalizes it), so a NaN box is refolded with Extend.
func (m *Mesh) recordDeformDirty(old, now []geom.Vec3) geom.AABB {
	d := &m.dirty
	old = old[:len(now)]
	mark := m.dirtyMark[:len(now)]
	e := geom.EmptyBox()
	lo, hi := e.Min, e.Max
	for i, p := range now {
		q := old[i]
		if q == p {
			continue
		}
		lo = geom.Vec3{X: min(lo.X, q.X, p.X), Y: min(lo.Y, q.Y, p.Y), Z: min(lo.Z, q.Z, p.Z)}
		hi = geom.Vec3{X: max(hi.X, q.X, p.X), Y: max(hi.Y, q.Y, p.Y), Z: max(hi.Z, q.Z, p.Z)}
		if d.Overflow || mark[i] == m.dirtyStamp {
			continue
		}
		mark[i] = m.dirtyStamp
		if len(d.Verts) >= m.dirtyCap {
			d.Overflow = true
			d.Verts = nil
			continue
		}
		d.Verts = append(d.Verts, int32(i))
	}
	moved := geom.AABB{Min: lo, Max: hi}
	if moved != moved {
		moved = geom.EmptyBox()
		for i, p := range now {
			if old[i] != p {
				moved = moved.Extend(old[i]).Extend(p)
			}
		}
	}
	d.Box = d.Box.Union(moved)
	return moved
}

// DirtySince returns the dirty log after epoch from: a tracked record per
// publish, untracked after SplitCell and DeleteCell.
func (m *Mesh) DirtySince(from uint64) DirtySince { return m.dirtyLog.Since(from) }

// recordStructuralDirty marks a restructuring operation covering the
// given cells (the retired cell plus any replacements) and drops the
// topology memos the operation made stale.
func (m *Mesh) recordStructuralDirty(touched geom.AABB, cells ...int32) {
	m.forgetTopology()
	m.dirty.Structural = true
	m.dirty.Cells = append(m.dirty.Cells, cells...)
	m.dirty.Box = m.dirty.Box.Union(touched)
}

// recordAddedVert marks a vertex created by restructuring.
func (m *Mesh) recordAddedVert(v int32) {
	m.dirty.AddedVerts = append(m.dirty.AddedVerts, v)
}

// cellBox returns the AABB of cell ci's vertices at the current epoch.
func (m *Mesh) cellBox(ci int) geom.AABB {
	b := geom.EmptyBox()
	c := &m.cells[ci]
	pos := m.front()
	for k := 0; k < c.VertexCount(); k++ {
		b = b.Extend(pos[c.Verts[k]])
	}
	return b
}
