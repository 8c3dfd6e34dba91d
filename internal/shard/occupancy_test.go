package shard

import (
	"fmt"
	"math"
	"testing"

	"octopus/internal/geom"
	"octopus/internal/meshgen"
	"octopus/internal/sim"
	"octopus/internal/workload"
)

// FuzzOccupancy holds the occupancy bitmap to the two promises the
// planner prunes on, for one owned position against one query box and
// one kNN probe: an owned position inside q means Meets(q) — and the
// range plan keeps the shard — and an owned position at squared distance
// d² from p means MeetsCube(p, d²), the tie at the bound included. The
// inputs reach the corners of the float range: positions inside, outside
// and on the cell edges of the frame, ±Inf, NaN and −0 anywhere, frames
// that are degenerate, inverted or tiny enough for d² to underflow, and
// query boxes that are inverted, infinite or points on a cell edge.
func FuzzOccupancy(f *testing.F) {
	inf, nan, negZero := math.Inf(1), math.NaN(), math.Copysign(0, -1)
	add := func(frame geom.AABB, v, a, b, p geom.Vec3, mode uint8) {
		f.Add(frame.Min.X, frame.Min.Y, frame.Min.Z, frame.Max.X, frame.Max.Y, frame.Max.Z,
			v.X, v.Y, v.Z, a.X, a.Y, a.Z, b.X, b.Y, b.Z, p.X, p.Y, p.Z, mode)
	}
	cube := geom.AABB{Min: geom.V(-1, -1, -1), Max: geom.V(1, 1, 1)}
	add(cube, geom.V(0.3, -0.2, 0.9), geom.V(0, -1, 0), geom.V(1, 0, 1), geom.V(0.2, 0.2, 0.2), 0)
	add(cube, geom.V(0, 0, 0), geom.V(0, 0, 0), geom.V(0, 0, 0), geom.V(0.5, 0, 0), 1|1<<1|8)   // point q on a cell edge
	add(cube, geom.V(0, 0, 0), geom.V(-1, -1, -1), geom.V(1, 1, 1), geom.V(-0.5, 0, 0), 1|3<<4) // v snapped to an edge
	add(cube, geom.V(5, -7, 2), geom.V(4, -8, 1), geom.V(inf, inf, inf), geom.V(9, -7, 2), 8)   // outside the frame
	add(cube, geom.V(negZero, negZero, 0), geom.V(negZero, 0, negZero), geom.V(0, 0, 0), geom.V(0, negZero, 0), 0)
	add(cube, geom.V(inf, -inf, 0), geom.V(-inf, -inf, -inf), geom.V(inf, inf, inf), geom.V(0, 0, 0), 0)
	add(cube, geom.V(nan, 0, 0), geom.V(nan, 0, 0), geom.V(1, 1, 1), geom.V(nan, 0, 0), 0)
	add(cube, geom.V(0.1, 0.1, 0.1), geom.V(1, 1, 1), geom.V(-1, -1, -1), geom.V(0, 0, 0), 0) // inverted q
	add(geom.AABB{Min: geom.V(2, 2, 2), Max: geom.V(2, 2, 2)}, geom.V(2, 3, 1), geom.V(2, 2, 2), geom.V(2, 3, 3), geom.V(2, 2, 2), 0)
	add(geom.EmptyBox(), geom.V(1, 2, 3), geom.V(0, 0, 0), geom.V(4, 4, 4), geom.V(1, 2, 3.5), 0)
	add(geom.AABB{Min: geom.V(-inf, 0, nan), Max: geom.V(inf, nan, 1)}, geom.V(1, 0.5, 0.5), geom.V(0, 0, 0), geom.V(2, 2, 2), geom.V(1, 0.5, 0.5), 8)
	tiny := geom.AABB{Min: geom.V(1e-200, 1e-200, 1e-200), Max: geom.V(1e-199, 1e-199, 1e-199)}
	add(tiny, geom.V(2e-200, 5e-200, 5e-200), tiny.Min, tiny.Max, geom.V(2.1e-200, 5e-200, 5e-200), 1|5<<4|8) // d² underflows
	add(geom.AABB{Max: geom.V(8, 8, 8)}, geom.V(3, 0.5, 0.5), geom.V(3, 0, 0), geom.V(3, 1, 1), geom.V(1, 0.5, 0.5), 8)

	f.Fuzz(func(t *testing.T, lox, loy, loz, hix, hiy, hiz, vx, vy, vz, ax, ay, az, bx, by, bz, px, py, pz float64, mode uint8) {
		frame := geom.AABB{Min: geom.V(lox, loy, loz), Max: geom.V(hix, hiy, hiz)}
		v := geom.V(vx, vy, vz)
		if mode&1 != 0 {
			// Move v onto cell edges of the frame, as the float
			// arithmetic places them.
			k := float64(mode >> 4 & 7)
			edge := func(lo, hi, k float64) float64 { return lo + k*(hi-lo)/occSide }
			v = geom.V(edge(lox, hix, k), edge(loy, hiy, math.Mod(k+1, occSide)), edge(loz, hiz, math.Mod(k+2, occSide)))
		}
		q := geom.AABB{Min: geom.V(ax, ay, az), Max: geom.V(bx, by, bz)}
		switch mode >> 1 & 3 {
		case 1:
			q = geom.AABB{Min: v, Max: v}
		case 2:
			q.Min = v
		case 3:
			q.Max = v
		}
		p := geom.V(px, py, pz)
		if mode&8 != 0 {
			// The whole distance lies along x: v sits on the cube's face.
			p.Y, p.Z = v.Y, v.Z
		}

		// A ghost never sets a bit; the owned position always does.
		ghost := geom.V(-v.X, -v.Y, -v.Z)
		sum := SummaryOf(frame, []geom.Vec3{ghost, v}, []bool{false, true})
		occ := sum.Occ
		if cellsOf(frame, ghost) != cellsOf(frame, v) && occ.Meets(geom.AABB{Min: ghost, Max: ghost}) {
			t.Fatalf("ghost %v set its cell (frame %v, bits %x)", ghost, frame, occ.Bits)
		}
		if q.Contains(v) {
			if !occ.Meets(q) {
				t.Fatalf("owned %v lies in %v, Meets says no (frame %v, bits %x)", v, q, frame, occ.Bits)
			}
			if plan := PlanRangeFanout([]Summary{sum}, q, nil); len(plan) != 1 {
				t.Fatalf("owned %v lies in %v, the plan drops its shard", v, q)
			}
		}
		if d2 := v.Dist2(p); !math.IsNaN(d2) && !occ.MeetsCube(p, d2) {
			t.Fatalf("owned %v at d² %v from %v, MeetsCube(%v) says no (frame %v, bits %x)", v, d2, p, d2, frame, occ.Bits)
		}
	})
}

// TestSummariesMatchTheirEpoch: at every epoch a deforming partition
// publishes, Partition.Summaries is SummaryOf over each shard's owned
// positions at that epoch — the box bit for bit — and Part.Summary names
// the epoch it pinned. The epochs come from Deform, from Resync after an
// in-place write, from a Rebalance that swaps shards without a publish
// and from a SplitCell whose next Deform re-partitions, so a summary
// kept across an epoch or a swap shows.
func TestSummariesMatchTheirEpoch(t *testing.T) {
	m, err := meshgen.Build(meshgen.NeuroL1, 1)
	if err != nil {
		t.Fatal(err)
	}
	sm, err := NewMesh(m, 4, Options{})
	if err != nil {
		t.Fatal(err)
	}
	var last []Summary
	check := func(label string) {
		t.Helper()
		part := sm.Partition()
		sums := part.Summaries(nil)
		for s, p := range part.Parts {
			e, pos := p.Mesh.PinPositions()
			want := SummaryOf(part.frame, pos, p.Owned)
			p.Mesh.UnpinPositions(e)
			if boxBits(sums[s].Box) != boxBits(want.Box) || sums[s].Occ != want.Occ {
				t.Fatalf("%s: shard %d at epoch %d: summary %v %x, want %v %x",
					label, s, e, sums[s].Box, sums[s].Occ.Bits, want.Box, want.Occ.Bits)
			}
			if _, at := p.Summary(); at != e {
				t.Fatalf("%s: shard %d: summary labelled epoch %d, pinned %d", label, s, at, e)
			}
			if last != nil && sums[s].Box == last[s].Box {
				t.Fatalf("%s: shard %d: the box did not move, the check shows nothing", label, s)
			}
		}
		last = sums
	}

	d := &sim.NoiseDeformer{Amplitude: 0.02, Frequency: 1.5, Seed: 7}
	step := 0
	deform := func() {
		sm.Deform(func(pos []geom.Vec3) { d.Step(step, pos) })
		step++
	}
	check("built")
	for i := 0; i < 3; i++ {
		deform()
		check(fmt.Sprintf("deform %d", i))
	}
	d.Step(step, m.Positions())
	step++
	sm.Resync()
	check("resync")

	if !sm.Rebalance([]float64{0.4, 1, 1, 1.6}) {
		t.Fatal("the rebalance moved no cut")
	}
	last = nil // the swap publishes nothing: the boxes may stay
	check("rebalance")
	deform()
	check("deform after the rebalance")

	if _, _, err := m.SplitCell(0); err != nil {
		t.Fatal(err)
	}
	deform()
	if st := sm.RepartitionStats(); st.Generations != 2 || st.RebuiltShards == 0 {
		t.Fatalf("the split's Deform did not re-partition: %+v", st)
	}
	check("deform after the split")
	deform()
	check("deform after the re-partition")
}

// TestOccupancyCells pins the grid: cells are eighths of the frame,
// coordinates outside it clamp to the edge cells, NaN lands in cell 0,
// and a degenerate or non-finite axis puts everything in cell 0.
func TestOccupancyCells(t *testing.T) {
	frame := geom.AABB{Min: geom.V(0, -4, 0), Max: geom.V(8, 4, 0)}
	for _, tc := range []struct {
		v    geom.Vec3
		want [3]uint
	}{
		{geom.V(0, -4, 0), [3]uint{0, 0, 0}},
		{geom.V(0.999, -3, 5), [3]uint{0, 1, 0}},
		{geom.V(1, 0, -5), [3]uint{1, 4, 0}},
		{geom.V(7.5, 4, 0), [3]uint{7, 7, 0}},
		{geom.V(8, 100, 0), [3]uint{7, 7, 0}},
		{geom.V(-1e300, math.Inf(1), math.Inf(-1)), [3]uint{0, 7, 0}},
		{geom.V(math.NaN(), math.Inf(-1), math.NaN()), [3]uint{0, 0, 0}},
	} {
		if got := cellsOf(frame, tc.v); got != tc.want {
			t.Errorf("cells(%v) = %v, want %v", tc.v, got, tc.want)
		}
	}
	for _, frame := range []geom.AABB{
		geom.EmptyBox(),
		{Min: geom.V(math.Inf(-1), 0, math.NaN()), Max: geom.V(math.Inf(1), math.NaN(), 1)},
		{Min: geom.V(0, 0, 0), Max: geom.V(math.SmallestNonzeroFloat64, 0, 0)},
	} {
		for _, v := range []geom.Vec3{geom.V(0, 0, 0), geom.V(1e308, -1e308, 0.5), geom.V(math.Inf(1), math.NaN(), math.Inf(-1))} {
			if c := cellsOf(frame, v); c != [3]uint{} {
				t.Errorf("frame %v: cells(%v) = %v, want cell 0 on every axis", frame, v, c)
			}
		}
	}
}

// cellsOf returns the occupancy cell of v in frame.
func cellsOf(frame geom.AABB, v geom.Vec3) [3]uint {
	org, sc := frame.Min, frameScale(frame)
	return [3]uint{cell(v.X, org.X, sc.X), cell(v.Y, org.Y, sc.Y), cell(v.Z, org.Z, sc.Z)}
}

// sumSink keeps BenchmarkSummary's pass from being optimized away.
var sumSink Summary

// BenchmarkSummary times the per-shard pass that builds the summary —
// the owned box and the bitmap, what the first query at a new epoch
// pays per shard — on the live-inproc shape (neuro-l3, K = 4), in ns per
// owned vertex.
func BenchmarkSummary(b *testing.B) {
	sm := benchSharded(b)
	var owned int
	for _, p := range sm.part.Parts {
		owned += p.NumOwned
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, p := range sm.part.Parts {
			sumSink = SummaryOf(p.frame, p.Mesh.Positions(), p.Owned)
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(owned), "ns/owned")
}

// BenchmarkPlanRange times one range plan over the live-inproc
// partition's summaries with the benchmark's query mix, and fails if a
// plan allocates.
func BenchmarkPlanRange(b *testing.B) {
	sm := benchSharded(b)
	sums := sm.part.Summaries(nil)
	qs := benchQueries(sm, 64)
	plan := make([]int, 0, len(sums))
	legs := 0
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		plan = PlanRangeFanout(sums, qs[i%len(qs)], plan[:0])
		legs += len(plan)
	}
	b.StopTimer()
	b.ReportMetric(float64(legs)/float64(b.N), "legs/op")
	if allocs := testing.AllocsPerRun(100, func() { plan = PlanRangeFanout(sums, qs[0], plan[:0]) }); allocs != 0 {
		b.Fatalf("PlanRangeFanout allocates %.1f times per plan, want 0", allocs)
	}
}

// benchSharded is the live-inproc shape: neuro-l3 cut K = 4 ways.
func benchSharded(b *testing.B) *Mesh {
	b.Helper()
	m, err := meshgen.BuildCached(meshgen.NeuroL3, 1)
	if err != nil {
		b.Fatal(err)
	}
	sm, err := NewMesh(m, 4, Options{})
	if err != nil {
		b.Fatal(err)
	}
	return sm
}

// benchQueries draws n boxes from the benchmark's selectivity mix.
func benchQueries(sm *Mesh, n int) []geom.AABB {
	gen := workload.NewGenerator(sm.Global(), 4096, 18)
	qs := make([]geom.AABB, n)
	for i := range qs {
		qs[i] = gen.QueryWithSelectivity([]float64{0.0001, 0.001, 0.01}[i%3])
	}
	return qs
}
