package shard

import (
	"math"

	"octopus/internal/geom"
)

// occSide is the occupancy grid's resolution per axis: 8³ cells, one bit
// each, 64 B per shard.
const occSide = 8

// Occupancy is the second half of a shard's routing summary: one bit per
// cell of an 8×8×8 grid over Frame, set when an owned vertex lies in the
// cell. Frame is the partition's frame — the global mesh's bounds when
// the partition was built — so every shard of a partition grids the same
// space, and the bitmap answers what the one owned box cannot: whether
// the non-convex Hilbert run the shard owns reaches a given region at
// all (DESIGN.md §10).
//
// A coordinate outside Frame clamps to the edge cell of its axis. The
// cell of a coordinate is a monotone function of it, so the tests stay
// exact however far the vertices drift from the frame: a point inside a
// box lies in a cell between the cells of the box's corners.
type Occupancy struct {
	Frame geom.AABB
	// Bits[z] is the z-th slab of cells: bit 8y+x is cell (x, y, z).
	Bits [occSide]uint64
}

// Summary is what the fan-out plans from for one shard: the tight box
// of its owned vertices and their occupancy bitmap, both at the view's
// epoch and both built by one reader-side pass per epoch
// (Part.Summary). It is plain data, so it travels on the wire unchanged.
type Summary struct {
	Box geom.AABB
	Occ Occupancy
}

// Meets reports whether an occupied cell meets the box q. False proves
// that no owned vertex lies in q.
func (o *Occupancy) Meets(q geom.AABB) bool { return o.meetsBox(q.Min, q.Max) }

// MeetsCube is the kNN test: whether an occupied cell meets the closed
// cube around p of half-width Nextafter(√bound2, +Inf). False proves that
// no owned vertex lies within squared distance bound2 of p — a vertex
// exactly at the bound included, so the (dist, id) tie rule holds. A
// shard's d² is rounded, but the rounded root of a rounded square is the
// number itself (√fl(x²) = |x| in binary floating point) unless x²
// underflows, so one ulp more than √bound2 covers the computed per-axis
// gap, and the rounding of that gap itself is less than an ulp. bound2
// is floored at 2⁻¹⁰⁰⁰ for gaps below 2⁻⁵¹¹, whose squares underflow —
// to as little as 0. An unbounded or NaN bound2 meets every shard.
func (o *Occupancy) MeetsCube(p geom.Vec3, bound2 float64) bool {
	if !(bound2 < math.Inf(1)) {
		return true
	}
	r := math.Nextafter(math.Sqrt(max(bound2, 0x1p-1000)), math.Inf(1))
	return o.meetsBox(geom.Vec3{X: p.X - r, Y: p.Y - r, Z: p.Z - r}, geom.Vec3{X: p.X + r, Y: p.Y + r, Z: p.Z + r})
}

// meetsBox reports whether any bit of the cells from lo's to hi's is
// set: one mask covers the range's x-by-y rectangle, tested against each
// slab.
func (o *Occupancy) meetsBox(lo, hi geom.Vec3) bool {
	org, sc := o.Frame.Min, frameScale(o.Frame)
	x0, x1 := cell(lo.X, org.X, sc.X), cell(hi.X, org.X, sc.X)
	y0, y1 := cell(lo.Y, org.Y, sc.Y), cell(hi.Y, org.Y, sc.Y)
	z0, z1 := cell(lo.Z, org.Z, sc.Z), cell(hi.Z, org.Z, sc.Z)
	if x0 > x1 || y0 > y1 || z0 > z1 {
		return false
	}
	row := uint64(0xFF>>(occSide-1-(x1-x0))) << x0
	cols := uint64(0x0101010101010101) >> (8 * (occSide - 1 - (y1 - y0))) << (8 * y0)
	mask := row * cols // row < 256, so the product places it in every column byte
	for z := z0; z <= z1; z++ {
		if o.Bits[z]&mask != 0 {
			return true
		}
	}
	return false
}

// frameScale is the cells per unit length along each axis of a frame.
func frameScale(frame geom.AABB) geom.Vec3 {
	return geom.Vec3{
		X: axisScale(frame.Min.X, frame.Max.X),
		Y: axisScale(frame.Min.Y, frame.Max.Y),
		Z: axisScale(frame.Min.Z, frame.Max.Z),
	}
}

// axisScale is the cells per unit length along one axis of a frame, or 0
// — every coordinate in cell 0 — when the axis's extent is empty, NaN,
// infinite or too small for a finite scale.
func axisScale(lo, hi float64) float64 {
	s := occSide / (hi - lo)
	if !(s > 0) || math.IsInf(s, 1) {
		return 0
	}
	return s
}

// cell returns the cell of coordinate c on one axis. The clamp happens in
// float, before the conversion, so NaN and ±Inf never reach it (Go leaves
// their conversion to an integer implementation-defined); NaN lands in
// cell 0. Every step — the subtraction, the scaling, the clamp — is
// monotone, which is all the tests' exactness rests on.
func cell(c, lo, scale float64) uint {
	t := (c - lo) * scale
	if !(t >= 0) {
		return 0
	}
	if t >= occSide-1 {
		return occSide - 1
	}
	return uint(t)
}

// summaryMemo is one epoch's summary of a Part.
type summaryMemo struct {
	epoch uint64
	sum   Summary
}

// Summary returns the shard's routing summary — the owned box and the
// occupancy bitmap — at the sub-mesh's published epoch, and that epoch.
// The summary is computed by the first caller that asks at a new epoch —
// one pass over the owned positions, off the writer's path — and cached
// with its epoch; callers that ask while it is computed wait for it
// rather than repeat it. Safe for concurrent use, publishes included: a
// pass that races a publish yields the summary of the epoch it pinned,
// and says so.
func (p *Part) Summary() (Summary, uint64) {
	if m := p.sum.Load(); m != nil && m.epoch == p.Mesh.Epoch() {
		return m.sum, m.epoch
	}
	p.sumMu.Lock()
	defer p.sumMu.Unlock()
	e, pos := p.Mesh.PinPositions()
	defer p.Mesh.UnpinPositions(e)
	if m := p.sum.Load(); m != nil && m.epoch == e {
		return m.sum, e
	}
	m := &summaryMemo{epoch: e, sum: SummaryOf(p.frame, pos, p.Owned)}
	p.sum.Store(m)
	return m.sum, e
}

// SummaryOf returns the summary of the positions pos[l] with owned[l]
// set — their tight box, and their bitmap over frame — the pass behind
// Part.Summary, one read per owned position. pos must be at least as
// long as owned.
//
// The box is folded in two Vec3 corners started at EmptyBox's
// (+Inf, -Inf) with the builtin min/max, which inline where
// AABB.Extend's math.Min/Max calls do not: no IsEmpty re-test, no
// 48-byte box through memory and no call per vertex. The result is
// bit-equal to the Extend fold — the first point lands as {p, p}, an
// empty owned set stays EmptyBox — for every NaN-free position. A NaN in
// the result means some owned position held one, and there the builtins
// and math.Min/Max part ways (math lets an infinity beat NaN and
// canonicalizes it), so the Extend fold is redone.
func SummaryOf(frame geom.AABB, pos []geom.Vec3, owned []bool) Summary {
	e := geom.EmptyBox()
	lo, hi := e.Min, e.Max
	o := Occupancy{Frame: frame}
	org, sc := frame.Min, frameScale(frame)
	pos = pos[:len(owned)]
	for l, own := range owned {
		if own {
			v := pos[l]
			lo = geom.Vec3{X: min(lo.X, v.X), Y: min(lo.Y, v.Y), Z: min(lo.Z, v.Z)}
			hi = geom.Vec3{X: max(hi.X, v.X), Y: max(hi.Y, v.Y), Z: max(hi.Z, v.Z)}
			x, y, z := cell(v.X, org.X, sc.X), cell(v.Y, org.Y, sc.Y), cell(v.Z, org.Z, sc.Z)
			o.Bits[z] |= 1 << (8*y + x)
		}
	}
	box := geom.AABB{Min: lo, Max: hi}
	if box != box {
		box = geom.EmptyBox()
		for l, own := range owned {
			if own {
				box = box.Extend(pos[l])
			}
		}
	}
	return Summary{Box: box, Occ: o}
}
