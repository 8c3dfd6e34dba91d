package core

import (
	"math"

	"octopus/internal/geom"
	"octopus/internal/mesh"
	"octopus/internal/query"
)

// This file implements the exact surface probe: two levels of block boxes
// over the surface index (DESIGN.md §2). Every dataset and every shard
// sub-mesh is stored surface-first in Hilbert order, so mesh.ProbeBlock
// consecutive slots are one compact patch of surface, and one AABB per
// such leaf lets a probe test boxes instead of every surface position;
// one coarse box around mesh.ProbeFan consecutive leaves prunes all of
// them with one test (the recursive descent of a forest of octrees, two
// levels deep). The coarse level is what makes small, tight leaves
// affordable: a probe tests the ≈ 100 coarse boxes of neuro-l5 and the
// leaves of the few that qualify, not 1 605 leaves.
//
// The range probe descends coarse → leaf in ascending slot order and runs
// the containment kernel only inside leaves whose box meets the query, so
// its seeds and the crawl are exactly what the linear pass over the
// surface produces. The kNN probe, after the crawl, searches one
// nearest-first heap of coarse and leaf items, scanning leaves until the
// next item lies strictly beyond the k-th-best distance; it ranks vertices
// by (distance, slot), so the vertices offered and the folds are the
// linear pass's. The same two levels say where the directed walk starts —
// in the leaf nearest the query box or the kNN probe point (nearestLeaf),
// one rule for both — and where a stalled walk retries, so no path
// samples the surface or passes over every leaf. A layout without that
// locality (restructuring deltas swap slots around) only makes the boxes
// loose — more leaves scanned, never a wrong answer. The boxes belong to
// the mesh, one set per position buffer (mesh.SurfaceIndex); a query
// reads those of the epoch its cursor pinned.

// appendContained appends base+i for every pos[i] inside q: the one
// containment kernel, shared by the block probe and the stalled walk's
// scan (crawler.scanSeeds). It is a function of its own with the six
// bounds in locals because the same loop written inline with q.Contains
// copies the 48-byte box to a stack temporary on every iteration.
func appendContained(dst []int32, q geom.AABB, pos []geom.Vec3, base int) []int32 {
	minX, minY, minZ := q.Min.X, q.Min.Y, q.Min.Z
	maxX, maxY, maxZ := q.Max.X, q.Max.Y, q.Max.Z
	for i := range pos {
		p := &pos[i]
		if p.X >= minX && p.X <= maxX &&
			p.Y >= minY && p.Y <= maxY &&
			p.Z >= minZ && p.Z <= maxZ {
			dst = append(dst, int32(base+i))
		}
	}
	return dst
}

// appendContainedSlots is appendContained through the id array. It
// serves the leaves of a surface index that restructuring has taken out
// of the dense layout.
func appendContainedSlots(dst []int32, q geom.AABB, pos []geom.Vec3, ids []int32) []int32 {
	for _, v := range ids {
		if q.Contains(pos[v]) {
			dst = append(dst, v)
		}
	}
	return dst
}

// probeRange is the exact range probe: every surface vertex inside q is
// appended to cur.seeds in slot order. It descends coarse → leaf in
// ascending slot order and returns the number of containment tests made
// on boxes of either level and on surface positions.
func (o *Octopus) probeRange(cur *Cursor, q geom.AABB, pos []geom.Vec3) (boxes, positions int64) {
	bb, slots := o.idx.Boxes(cur.epoch), o.idx.Slots()
	boxes = int64(len(bb.Coarse))
	for c := range bb.Coarse {
		if disjoint(&bb.Coarse[c], &q) {
			continue
		}
		first, end := bb.Leaves(c)
		boxes += int64(end - first)
		for b := first; b < end; b++ {
			if disjoint(&bb.Leaf[b], &q) {
				continue
			}
			lo, hi := o.idx.LeafSlots(b)
			positions += int64(hi - lo)
			if o.idx.Dense() {
				cur.seeds = appendContained(cur.seeds, q, pos[lo:hi], lo)
			} else {
				cur.seeds = appendContainedSlots(cur.seeds, q, pos, slots[lo:hi])
			}
		}
	}
	return boxes, positions
}

// disjoint reports whether box bx provably misses q. It skips on
// "provably disjoint", not on !Intersects: a NaN bound (a NaN coordinate
// becomes one, see mesh.SurfaceIndex) fails every compare, and the box is
// descended into.
func disjoint(bx, q *geom.AABB) bool {
	return bx.Min.X > q.Max.X || bx.Max.X < q.Min.X ||
		bx.Min.Y > q.Max.Y || bx.Max.Y < q.Min.Y ||
		bx.Min.Z > q.Max.Z || bx.Max.Z < q.Min.Z
}

// knnProbe is the state of one kNN surface probe (step 3 of knnWith): a
// mirror of the result heap's bound, so the common iteration pays one
// float compare, not an Offer call, and the min(k, maxKNNStarts) fold
// candidates, kept in a fixed-size insertion array ordered by (distance,
// slot) — no allocation, and the same set whatever order the slots are
// scanned in. The bound starts at the smaller of the RestrictKNN ceiling
// and the crawl's k-th best; only vertices in keep (every vertex when
// nil) are offered, and the fold candidates are chosen from all of them.
// A vertex whose marks entry is epoch was marked by the crawl and is
// neither.
type knnProbe struct {
	cands [maxKNNStarts]knnFold
	nc    int
	want  int
	bound float64
	keep  []bool
	marks []uint32
	epoch uint32
}

// scan offers the unmarked surface slots in [lo, hi) that lie within the
// bound to the result heap and to the fold candidates, returning the
// number of slots read. d == bound still calls Offer, for the id
// tie-break. Every offered vertex lies within the bound, so once
// the heap is full its bound is the smaller of the ceiling and the k-th
// best. A NaN distance fails the bound test: it is neither offered nor a
// fold.
func (kp *knnProbe) scan(kb *query.KBest, surface []int32, pos []geom.Vec3, p geom.Vec3, lo, hi int) int64 {
	for idx := lo; idx < hi; idx++ {
		v := surface[idx]
		if kp.marks[v] == kp.epoch {
			continue
		}
		d := pos[v].Dist2(p)
		if !(d <= kp.bound) {
			continue
		}
		if kp.keep == nil || kp.keep[v] {
			kb.Offer(d, v)
			if kb.Full() {
				kp.bound = kb.Bound()
			}
		}
		slot, nc := int32(idx), kp.nc
		if nc == kp.want {
			if last := kp.cands[nc-1]; !(d < last.d || d == last.d && slot < last.slot) {
				continue
			}
		}
		i := nc
		if nc < kp.want {
			kp.nc++
		} else {
			i--
		}
		for i > 0 && (kp.cands[i-1].d > d || kp.cands[i-1].d == d && kp.cands[i-1].slot > slot) {
			kp.cands[i] = kp.cands[i-1]
			i--
		}
		kp.cands[i] = knnFold{d: d, v: v, slot: slot}
	}
	return int64(hi - lo)
}

// folds returns the fold candidates that lie within the final bound: of
// the unmarked surface vertices the probe scanned, the min(k,
// maxKNNStarts) nearest p by (distance, slot) that are at most kp.bound
// away. A candidate was kept under the bound of its scan, which may since
// have tightened.
func (kp *knnProbe) folds() []knnFold {
	n := kp.nc
	for n > 0 && kp.cands[n-1].d > kp.bound {
		n--
	}
	return kp.cands[:n]
}

// probeKNN is step 3 of the exact kNN: a nearest-first search over both
// levels of boxes under the probe's bound. A popped coarse box pushes its
// leaves within the bound, a popped leaf is scanned, and the probe stops
// at the first item strictly beyond the bound (one at exactly the bound
// is taken: its leaf may hold the smaller id of a tie). A coarse box is
// never farther than its leaves (nanAxis ones aside, which hold nothing to
// offer) and the bound only tightens, so every leaf not scanned has every
// vertex strictly outside the final ball: no vertex left out belongs to
// the result or to the folds, and the crawl may go on treating every
// surface vertex as offered (probedInKNN). It returns the number of
// distance tests made on boxes and of surface slots read.
func (o *Octopus) probeKNN(cur *Cursor, kp *knnProbe, p geom.Vec3, pos []geom.Vec3) (boxes, positions int64) {
	bb := o.idx.Boxes(cur.epoch)
	q := geom.AABB{Min: p, Max: p}
	order := coarseGaps(bb, cur.blocks, &q)
	boxes = int64(len(order))
	for len(order) > 0 && order[0].dist <= kp.bound {
		b := int(heapPopItem(&order).v)
		if b >= len(bb.Leaf) {
			boxes += pushLeaves(bb, &order, b-len(bb.Leaf), &q, kp.bound)
			continue
		}
		lo, hi := o.idx.LeafSlots(b)
		positions += kp.scan(&cur.kbest, o.idx.Slots(), pos, p, lo, hi)
	}
	cur.blocks = order
	return boxes, positions
}

// coarseGaps fills dst with one item per coarse box, heap-ordered: the
// start of the nearest-first searches (nearestLeaf, probeKNN,
// closestSurfaceVertex), which share one heap in the cursor's scratch. An
// item's dist is the squared distance between its box and the query box q
// (0 where they meet; for the degenerate box around a kNN probe point, the
// box's AABB.Dist2(p) bit for bit — a box is never inverted, so at most
// one of axisGap2's two tests can pass), and its v is a leaf index, or
// len(leaf)+c for coarse box c.
func coarseGaps(bb *mesh.BlockBoxes, dst []heapItem, q *geom.AABB) []heapItem {
	dst = dst[:0]
	for c := range bb.Coarse {
		dst = append(dst, heapItem{dist: gap2(&bb.Coarse[c], q), v: int32(len(bb.Leaf) + c)})
	}
	heapInit(dst)
	return dst
}

// pushLeaves pushes onto the heap h every leaf of coarse box c whose
// distance to q is at most bound, and returns the number of leaves
// tested. A leaf's box lies inside its coarse box, so its distance is
// never the smaller one.
func pushLeaves(bb *mesh.BlockBoxes, h *[]heapItem, c int, q *geom.AABB, bound float64) int64 {
	first, end := bb.Leaves(c)
	for b := first; b < end; b++ {
		if d := gap2(&bb.Leaf[b], q); d <= bound {
			heapPushItem(h, heapItem{dist: d, v: int32(b)})
		}
	}
	return int64(end - first)
}

// gap2 is the squared distance between the boxes bx and q, 0 where they
// meet.
func gap2(bx, q *geom.AABB) float64 {
	return axisGap2(bx.Min.X, bx.Max.X, q.Min.X, q.Max.X) +
		axisGap2(bx.Min.Y, bx.Max.Y, q.Min.Y, q.Max.Y) +
		axisGap2(bx.Min.Z, bx.Max.Z, q.Min.Z, q.Max.Z)
}

// axisGap2 is the squared gap along one axis between the intervals
// [lo, hi] and [qlo, qhi], 0 where they meet. For a point (lo == hi) it
// makes AABB.Dist2's two tests in the same order, so a distance summed
// from three of them is Dist2's bit for bit. A NaN compares false and
// gives 0: a NaN bound prunes nothing. It is small enough to inline, which
// AABB.Dist2 is not.
func axisGap2(lo, hi, qlo, qhi float64) float64 {
	if g := qlo - hi; g > 0 {
		return g * g
	}
	if g := lo - qhi; g > 0 {
		return g * g
	}
	return 0
}

// nearestOf returns the vertex of ids whose position is nearest q and its
// squared distance, among those strictly nearer than bound (-1 and bound
// when there is none); the first of equals wins. It is the one distance
// kernel of the directed walk: every step of the greedy descent and the
// search for its start run it. Like appendContained it holds the six
// bounds in locals, so no iteration copies the box.
func nearestOf(q geom.AABB, pos []geom.Vec3, ids []int32, bound float64) (int32, float64) {
	minX, minY, minZ := q.Min.X, q.Min.Y, q.Min.Z
	maxX, maxY, maxZ := q.Max.X, q.Max.Y, q.Max.Z
	best := int32(-1)
	for _, v := range ids {
		p := &pos[v]
		if d := axisGap2(p.X, p.X, minX, maxX) + axisGap2(p.Y, p.Y, minY, maxY) + axisGap2(p.Z, p.Z, minZ, maxZ); d < bound {
			best, bound = v, d
		}
	}
	return best, bound
}

// nearestLeaf returns the surface slots of the leaf whose box is nearest
// q, ties going to the lower leaf (nil when no box is at a finite
// distance), and the number of boxes of either level it tested: where the
// directed walk starts, for a no-seed range query (blockStart) and for a
// kNN (knnStart), each of which picks its own vertex in that leaf. It
// visits the coarse boxes nearest-first and tests the leaves of those not
// farther than the best leaf so far; a coarse box at exactly that
// distance may still hold a lower leaf of the tie. A leaf that is NaN on
// one axis throughout (nanAxis) is never the start.
func (o *Octopus) nearestLeaf(cur *Cursor, q geom.AABB) (ids []int32, boxes int64) {
	bb := o.idx.Boxes(cur.epoch)
	order := coarseGaps(bb, cur.blocks, &q)
	boxes = int64(len(order))
	first, firstDist := -1, math.Inf(1)
	for len(order) > 0 && order[0].dist <= firstDist {
		lo, hi := bb.Leaves(int(heapPopItem(&order).v) - len(bb.Leaf))
		boxes += int64(hi - lo)
		for b := lo; b < hi; b++ {
			if d := gap2(&bb.Leaf[b], &q); (d < firstDist || d == firstDist && b < first) && !nanAxis(&bb.Leaf[b]) {
				first, firstDist = b, d
			}
		}
	}
	cur.blocks = order
	if first < 0 {
		return nil, boxes
	}
	lo, hi := o.idx.LeafSlots(first)
	return o.idx.Slots()[lo:hi], boxes
}

// nanAxis reports whether every position in the leaf box bx is NaN on one
// axis (both bounds NaN): none is at a defined distance, yet gap2 reads the
// axis as 0, nearer than the leaf's coarse box may be.
func nanAxis(bx *geom.AABB) bool {
	return bx.Min.X != bx.Min.X && bx.Max.X != bx.Max.X ||
		bx.Min.Y != bx.Min.Y && bx.Max.Y != bx.Max.Y ||
		bx.Min.Z != bx.Min.Z && bx.Max.Z != bx.Max.Z
}

// blockStart returns where a no-seed range query's walk starts, -1 for
// nowhere, and the boxes and positions it tested: the vertex of the
// nearest leaf nearest q by the walk's own kernel, nearestOf.
func (o *Octopus) blockStart(cur *Cursor, q geom.AABB, pos []geom.Vec3) (start int32, boxes, positions int64) {
	ids, boxes := o.nearestLeaf(cur, q)
	start, _ = nearestOf(q, pos, ids, math.Inf(1))
	return start, boxes, int64(len(ids))
}

// knnStart is step 1 of the exact kNN, blockStart's rule for p: the
// vertex of the nearest leaf nearest p by (squared distance, slot), never
// at a NaN distance (nearestOf reads a NaN coordinate as a gap of 0, and a
// crawl started there offers it).
func (o *Octopus) knnStart(cur *Cursor, p geom.Vec3, pos []geom.Vec3) (start int32, boxes, positions int64) {
	ids, boxes := o.nearestLeaf(cur, geom.AABB{Min: p, Max: p})
	start, best := int32(-1), math.Inf(1)
	for _, v := range ids {
		if d := pos[v].Dist2(p); d < best || d == best && start < 0 {
			start, best = v, d
		}
	}
	return start, boxes, int64(len(ids))
}

// closestSurfaceVertex returns the surface vertex nearest q (-1 when none
// is at a finite distance): a best-first search over both levels of boxes
// that scans leaves in ascending box distance until the next item is no
// nearer than the best vertex found. It is the start of the one retry a
// stalled walk gets before the scan.
func (o *Octopus) closestSurfaceVertex(cur *Cursor, q geom.AABB, pos []geom.Vec3) int32 {
	bb := o.idx.Boxes(cur.epoch)
	order := coarseGaps(bb, cur.blocks, &q)
	best, bestDist := int32(-1), math.Inf(1)
	for len(order) > 0 && order[0].dist < bestDist {
		b := int(heapPopItem(&order).v)
		if b >= len(bb.Leaf) {
			pushLeaves(bb, &order, b-len(bb.Leaf), &q, bestDist)
			continue
		}
		lo, hi := o.idx.LeafSlots(b)
		if v, d := nearestOf(q, pos, o.idx.Slots()[lo:hi], bestDist); v >= 0 {
			best, bestDist = v, d
		}
	}
	cur.blocks = order
	return best
}
