package core

import (
	"math"
	"sync"
	"sync/atomic"

	"octopus/internal/geom"
	"octopus/internal/query"
)

// This file implements the exact surface probe: two levels of block boxes
// over the surface index (DESIGN.md §2). Every dataset and every shard
// sub-mesh is stored surface-first in Hilbert order, so probeBlock
// consecutive slots of Octopus.surface are one compact patch of surface,
// and one AABB per such leaf block lets a probe test boxes instead of
// every surface position; probeFan consecutive leaves are a larger patch,
// and one coarse box around them prunes all of their leaves with one test
// (the recursive descent of a forest of octrees, two levels deep). The
// coarse level is what makes small, tight leaves affordable: a probe
// tests the ≈ 100 coarse boxes of neuro-l5 and the leaves of the few
// that qualify, not 1 605 leaves.
//
// The range probe descends coarse → leaf in ascending slot order and runs
// the containment kernel only inside leaves whose box meets the query, so
// its seeds and the crawl are exactly what the linear pass over the
// surface produces. A kNN searches one nearest-first heap of coarse and
// leaf items twice: first for the surface vertex nearest the probe point,
// where its crawl starts, then — resumed after the crawl — scanning leaves
// until the next item lies strictly beyond the k-th-best distance. Both
// rank vertices by (distance, slot), so the start, the vertices offered
// and the folds are the linear pass's. The same two levels answer the
// probe's other nearest-neighbour question — where a no-seed range
// query's walk starts, and where a stalled walk retries — so no path
// samples the surface or passes over every leaf. A
// layout without that locality (restructuring deltas swap slots around)
// only makes the boxes loose — more leaves scanned, never a wrong answer.
//
// The boxes are a cache of the positions, not an index to maintain: they
// are rebuilt from scratch by the first exact query that pins a state they
// do not describe (probeBoxes) and are exact at that state by
// construction, so there is no staleness to reason about and no
// maintenance task. Approximate mode (probe stride > 1) neither reads nor
// builds them.

// probeBlock is the number of consecutive surface slots one leaf box
// covers, and probeFan the number of consecutive leaves one coarse box
// covers. Both are constants, not knobs: leaf/fan 16/16, 16/32, 32/8,
// 32/16, 32/32 and 64/16 measured flat on the benchmark's traffic.
const (
	probeBlock = 32
	probeFan   = 16
)

// blockBoxes is the probe's summary of one position state: leaf[b] bounds
// surface slots [b*probeBlock, (b+1)*probeBlock), coarse[c] bounds
// leaf[c*probeFan : (c+1)*probeFan] (both ranges cut at the end).
type blockBoxes struct {
	leaf, coarse []geom.AABB
}

// leaves returns the leaf range [lo, hi) of coarse box c.
func (bb *blockBoxes) leaves(c int) (lo, hi int) {
	lo = c * probeFan
	return lo, min(lo+probeFan, len(bb.leaf))
}

// probeSlot holds the block boxes of one position-buffer parity together
// with the state they were computed from: the pinned position epoch and
// the engine generation (Octopus.gen), kept as two words so that no pair
// of states can alias. A slot is used only when both equal the querying
// cursor's.
//
// One slot per parity suffices. Every reader pinned on parity e&1 reads
// epoch e — publishing e+2 first waits for that parity's pins to drain
// (mesh.publish), and restructuring's epoch += 2 on the same buffer
// requires exclusive access — so all cursors that can be inside a slot at
// once want the same boxes, and a rebuild never overlaps a reader of the
// slot's previous contents. In-place writes to Positions() leave the epoch
// alone and are told through the generation, which only changes under
// exclusive access (Step, BeginMaintenance, ApplySurfaceDelta).
//
// epoch and gen are stored after the boxes are complete and at least one
// of them changes with every rebuild, so a cursor that reads its own pair
// back has observed a store that follows the last box write.
type probeSlot struct {
	mu    sync.Mutex // serializes rebuilds; never taken on a tag match
	epoch atomic.Uint64
	gen   atomic.Uint64 // 0: never built (generations start at 1)
	boxes blockBoxes
}

func (s *probeSlot) describes(epoch, gen uint64) bool {
	return s.gen.Load() == gen && s.epoch.Load() == epoch
}

// probeBoxes returns the block boxes of pos, the buffer pinned at epoch,
// rebuilding them when the slot describes another state. Cursors that
// arrive on the same parity during a rebuild wait for it (at most one
// pass over the surface) and then find their tag in place.
func (o *Octopus) probeBoxes(epoch uint64, pos []geom.Vec3) blockBoxes {
	s := &o.summary[epoch&1]
	gen := o.gen.Load()
	if s.describes(epoch, gen) {
		return s.boxes
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if !s.describes(epoch, gen) {
		s.boxes = o.buildBlockBoxes(s.boxes, pos)
		s.gen.Store(gen)
		s.epoch.Store(epoch)
	}
	return s.boxes
}

// buildBlockBoxes recomputes both levels of boxes of pos into bb's arrays:
// the tight AABB of every leaf of probeBlock surface slots, then the union
// of every probeFan leaves. A surface index out of the dense layout
// gathers each leaf's positions first, so there is one kernel.
func (o *Octopus) buildBlockBoxes(bb blockBoxes, pos []geom.Vec3) blockBoxes {
	bb.leaf, bb.coarse = bb.leaf[:0], bb.coarse[:0]
	if o.denseSurface {
		bb.leaf = appendLeafBoxes(bb.leaf, pos[:len(o.surface)])
	} else {
		var gathered [probeBlock]geom.Vec3
		for lo := 0; lo < len(o.surface); lo += probeBlock {
			hi := min(lo+probeBlock, len(o.surface))
			for i, v := range o.surface[lo:hi] {
				gathered[i] = pos[v]
			}
			bb.leaf = appendLeafBoxes(bb.leaf, gathered[:hi-lo])
		}
	}
	for lo := 0; lo < len(bb.leaf); lo += probeFan {
		bb.coarse = append(bb.coarse, unionBox(bb.leaf[lo:min(lo+probeFan, len(bb.leaf))]))
	}
	return bb
}

// appendLeafBoxes is the rebuild kernel: it appends to dst the tight AABB
// of every probeBlock consecutive positions of pos, the last run possibly
// shorter. It is the one probe-side cost that remains — every position,
// once per epoch — so it runs without a data-dependent branch: each
// coordinate is mapped to an integer key with the same ordering
// (orderedKey) and the six running bounds are integer min/max, which the
// compiler turns into conditional moves. The obvious float form — six
// compare-and-branch per position — mispredicts on every new extreme of a
// Hilbert run and measured ≈ 25 % slower here; the min/max builtins
// measured slower still and math.Min/Max ≈ 10x. One call covers every
// leaf of a dense surface (too large to inline, so the six bounds stay in
// registers): a call per 32-slot leaf measured ≈ 15 % slower.
//
// A NaN coordinate orders outside ±Inf and so becomes the bound of its
// axis, where no comparison can prune on it: the leaf is scanned by every
// query that meets it on the other axes. That is loose, never wrong — the
// containment test accepts no NaN, so such a vertex can neither be
// returned nor hide its leaf-mates.
func appendLeafBoxes(dst []geom.AABB, pos []geom.Vec3) []geom.AABB {
	for lo := 0; lo < len(pos); lo += probeBlock {
		leaf := pos[lo:min(lo+probeBlock, len(pos))]
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
// appendLeafBoxes,
// so a NaN bound of a leaf stays the bound of its coarse box and prunes
// nothing there either. It runs once per probeFan leaves.
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

// probeMemoryBytes is the footprint of both slots' boxes, both levels.
func (o *Octopus) probeMemoryBytes() int64 {
	leaves := (len(o.surface) + probeBlock - 1) / probeBlock
	coarse := (leaves + probeFan - 1) / probeFan
	return int64(len(o.summary)) * int64(leaves+coarse) * 48
}

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

// appendContainedSlots is appendContained through the id array: surface
// slots lo, lo+stride, ... below hi. It serves the blocks of a surface
// index that restructuring has taken out of the dense layout and the
// strided approximate probe.
func (o *Octopus) appendContainedSlots(dst []int32, q geom.AABB, pos []geom.Vec3, lo, hi, stride int) []int32 {
	for idx := lo; idx < hi; idx += stride {
		if v := o.surface[idx]; q.Contains(pos[v]) {
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
	bb := o.probeBoxes(cur.epoch, pos)
	boxes = int64(len(bb.coarse))
	for c := range bb.coarse {
		if disjoint(&bb.coarse[c], &q) {
			continue
		}
		first, end := bb.leaves(c)
		boxes += int64(end - first)
		for b := first; b < end; b++ {
			if disjoint(&bb.leaf[b], &q) {
				continue
			}
			lo, hi := o.blockSlots(b)
			positions += int64(hi - lo)
			if o.denseSurface {
				cur.seeds = appendContained(cur.seeds, q, pos[lo:hi], lo)
			} else {
				cur.seeds = o.appendContainedSlots(cur.seeds, q, pos, lo, hi, 1)
			}
		}
	}
	return boxes, positions
}

// disjoint reports whether box bx provably misses q. It skips on
// "provably disjoint", not on !Intersects: a NaN bound (appendLeafBoxes,
// unionBox) fails every compare, and the box is descended into.
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

// scan offers the unmarked surface slots lo, lo+stride, ... below hi that
// lie within the bound to the result heap and to the fold candidates,
// returning the number of slots read. d == bound still calls Offer, for
// the id tie-break. Every offered vertex lies within the bound, so once
// the heap is full its bound is the smaller of the ceiling and the k-th
// best. A NaN distance fails the bound test: it is neither offered nor a
// fold.
func (kp *knnProbe) scan(kb *query.KBest, surface []int32, pos []geom.Vec3, p geom.Vec3, lo, hi, stride int) int64 {
	n := int64(0)
	for idx := lo; idx < hi; idx += stride {
		v := surface[idx]
		n++
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
	return n
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

// blockSlots returns the surface slot range [lo, hi) of leaf b.
func (o *Octopus) blockSlots(b int) (lo, hi int) {
	lo = b * probeBlock
	return lo, min(lo+probeBlock, len(o.surface))
}

// knnStartSearch is step 1 of the exact kNN: the surface vertex nearest p
// by (squared distance, slot), -1 when none is at a non-NaN distance. It
// searches both levels of boxes nearest-first, scanning leaves until the
// next item lies strictly beyond the best vertex found — a leaf at exactly
// that distance may hold the lower slot of a tie. The search leaves
// cur.blocks for the probe to resume (probeKNN) under the crawl's bound,
// which may be the larger one: a popped coarse box pushes the leaves
// within the best distance so far and sets the others aside in
// cur.aside, with the leaves it scans, for the probe to push back. It
// returns the number of distance tests made on boxes of either level and
// on surface positions.
func (o *Octopus) knnStartSearch(cur *Cursor, bb blockBoxes, p geom.Vec3, pos []geom.Vec3) (start int32, boxes, positions int64) {
	q := geom.AABB{Min: p, Max: p}
	order := bb.coarseGaps(cur.blocks, &q)
	boxes = int64(len(order))
	aside := cur.aside[:0]
	start, startSlot, startDist := int32(-1), len(o.surface), math.Inf(1)
	for len(order) > 0 && order[0].dist <= startDist {
		it := heapPopItem(&order)
		if c := int(it.v) - len(bb.leaf); c >= 0 {
			first, end := bb.leaves(c)
			boxes += int64(end - first)
			for b := first; b < end; b++ {
				leaf := heapItem{dist: gap2(&bb.leaf[b], &q), v: int32(b)}
				if leaf.dist <= startDist {
					heapPushItem(&order, leaf)
				} else {
					aside = append(aside, leaf)
				}
			}
			continue
		}
		aside = append(aside, it)
		lo, hi := o.blockSlots(int(it.v))
		positions += int64(hi - lo)
		for idx := lo; idx < hi; idx++ {
			v := o.surface[idx]
			if d := pos[v].Dist2(p); d < startDist || d == startDist && idx < startSlot {
				start, startSlot, startDist = v, idx, d
			}
		}
	}
	cur.blocks, cur.aside = order, aside
	return start, boxes, positions
}

// probeKNN is step 3 of the exact kNN: it pushes back the leaves the start
// search set aside that lie within the probe's bound and resumes the
// search (knnStartSearch) under it. A popped coarse box pushes those of
// its leaves that lie within the bound, a popped leaf is scanned, and the
// probe stops at the first item strictly beyond the bound. A coarse box
// is never farther than its leaves, so every leaf not scanned then has
// every vertex strictly outside the final ball (the bound only tightens):
// no vertex left out belongs to the result or to the folds, and the crawl
// may go on treating every surface vertex as offered (probedInKNN). An
// item at exactly the bound is taken: its leaf may hold the smaller id of
// a tie. It returns the number of distance tests made on leaf boxes and
// the number of surface slots read.
func (o *Octopus) probeKNN(cur *Cursor, bb blockBoxes, kp *knnProbe, p geom.Vec3, pos []geom.Vec3) (boxes, positions int64) {
	q := geom.AABB{Min: p, Max: p}
	order := cur.blocks
	for _, it := range cur.aside {
		if it.dist <= kp.bound {
			heapPushItem(&order, it)
		}
	}
	for len(order) > 0 && order[0].dist <= kp.bound {
		b := int(heapPopItem(&order).v)
		if b >= len(bb.leaf) {
			boxes += bb.pushLeaves(&order, b-len(bb.leaf), &q, kp.bound)
			continue
		}
		lo, hi := o.blockSlots(b)
		positions += kp.scan(&cur.kbest, o.surface, pos, p, lo, hi, 1)
	}
	cur.blocks = order
	return boxes, positions
}

// coarseGaps fills dst with one item per coarse box, heap-ordered: the
// start of the nearest-first searches (knnStartSearch, blockStart,
// closestSurfaceVertex), which share one heap in the cursor's scratch. An
// item's dist is the squared distance between its box and the query box q
// (0 where they meet; for the degenerate box around a kNN probe point, the
// box's AABB.Dist2(p) bit for bit — a box is never inverted, so at most
// one of axisGap2's two tests can pass), and its v is a leaf index, or
// len(leaf)+c for coarse box c.
func (bb *blockBoxes) coarseGaps(dst []heapItem, q *geom.AABB) []heapItem {
	dst = dst[:0]
	for c := range bb.coarse {
		dst = append(dst, heapItem{dist: gap2(&bb.coarse[c], q), v: int32(len(bb.leaf) + c)})
	}
	heapInit(dst)
	return dst
}

// pushLeaves pushes onto the heap h every leaf of coarse box c whose
// distance to q is at most bound, and returns the number of leaves
// tested. A leaf's box lies inside its coarse box, so its distance is
// never the smaller one.
func (bb *blockBoxes) pushLeaves(h *[]heapItem, c int, q *geom.AABB, bound float64) int64 {
	first, end := bb.leaves(c)
	for b := first; b < end; b++ {
		if d := gap2(&bb.leaf[b], q); d <= bound {
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

// blockStart returns where the exact probe's no-seed walk starts: the
// surface vertex nearest q inside the leaf whose box is nearest q, ties
// going to the lower leaf (-1 when no box is at a finite distance). It
// visits the coarse boxes nearest-first and tests the leaves of those
// not farther than the best leaf so far; a coarse box at exactly that
// distance may still hold a lower leaf of the tie.
func (o *Octopus) blockStart(cur *Cursor, q geom.AABB, pos []geom.Vec3) int32 {
	bb := o.probeBoxes(cur.epoch, pos)
	order := bb.coarseGaps(cur.blocks, &q)
	first, firstDist := -1, math.Inf(1)
	for len(order) > 0 && order[0].dist <= firstDist {
		lo, hi := bb.leaves(int(heapPopItem(&order).v) - len(bb.leaf))
		for b := lo; b < hi; b++ {
			if d := gap2(&bb.leaf[b], &q); d < firstDist || d == firstDist && b < first {
				first, firstDist = b, d
			}
		}
	}
	cur.blocks = order
	if first < 0 {
		return -1
	}
	lo, hi := o.blockSlots(first)
	v, _ := nearestOf(q, pos, o.surface[lo:hi], math.Inf(1))
	return v
}

// closestSurfaceVertex returns the surface vertex nearest q (-1 when none
// is at a finite distance): a best-first search over both levels of boxes
// that scans leaves in ascending box distance until the next item is no
// nearer than the best vertex found. It is the start of the one retry a
// stalled walk gets before the scan.
func (o *Octopus) closestSurfaceVertex(cur *Cursor, q geom.AABB, pos []geom.Vec3) int32 {
	bb := o.probeBoxes(cur.epoch, pos)
	order := bb.coarseGaps(cur.blocks, &q)
	best, bestDist := int32(-1), math.Inf(1)
	for len(order) > 0 && order[0].dist < bestDist {
		b := int(heapPopItem(&order).v)
		if b >= len(bb.leaf) {
			bb.pushLeaves(&order, b-len(bb.leaf), &q, bestDist)
			continue
		}
		lo, hi := o.blockSlots(b)
		if v, d := nearestOf(q, pos, o.surface[lo:hi], bestDist); v >= 0 {
			best, bestDist = v, d
		}
	}
	cur.blocks = order
	return best
}

// sampledStart is the approximate probe's walk start: the surface vertex
// nearest q among a sample of its sampling lattice (slots start,
// start+stride, ...), thinned to about 2 048 vertices. The approximate
// probe builds no block boxes to search.
func (o *Octopus) sampledStart(q geom.AABB, pos []geom.Vec3, start, stride int) int32 {
	sampleStride := stride * (1 + len(o.surface)/2048)
	minVertex, minDist := int32(-1), math.Inf(1)
	for idx := start; idx < len(o.surface); idx += sampleStride {
		v := o.surface[idx]
		if d := q.Dist2(pos[v]); d < minDist {
			minDist = d
			minVertex = v
		}
	}
	return minVertex
}
