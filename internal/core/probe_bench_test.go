package core

import (
	"testing"

	"octopus/internal/geom"
	"octopus/internal/mesh"
	"octopus/internal/meshgen"
	"octopus/internal/shard"
	"octopus/internal/workload"
)

func mkpos(n int) []geom.Vec3 {
	pos := make([]geom.Vec3, n)
	for i := range pos {
		f := float64(i%1000) / 1000
		pos[i] = geom.V(f, f*0.5, f*0.25)
	}
	return pos
}

var sinkN int

// BenchmarkProbeRangeLoop is the containment pass over a dense surface
// prefix in a standalone loop: "inline" writes q.Contains in the loop (what
// the probe did before it had a kernel), "kernel" calls appendContained,
// the function the block probe and the stalled walk's scan share
// (BenchmarkNoSeedEmpty times that scan in situ).
func BenchmarkProbeRangeLoop(b *testing.B) {
	pos := mkpos(70000)[:21000]
	q := geom.BoxAround(geom.V(0.5, 0.25, 0.125), 0.01)
	b.Run("inline", func(b *testing.B) {
		for it := 0; it < b.N; it++ {
			n := 0
			for _, p := range pos {
				if q.Contains(p) {
					n++
				}
			}
			sinkN += n
		}
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(len(pos)), "ns/vtx")
	})
	b.Run("kernel", func(b *testing.B) {
		var seeds []int32
		for it := 0; it < b.N; it++ {
			seeds = appendContained(seeds[:0], q, pos, 0)
			sinkN += len(seeds)
		}
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(len(pos)), "ns/vtx")
	})
}

// BenchmarkProbeGather is the containment pass through the id array, the
// path of a non-dense surface index.
func BenchmarkProbeGather(b *testing.B) {
	pos := mkpos(70000)
	ids := make([]int32, 21000)
	for i := range ids {
		ids[i] = int32(i * 3)
	}
	q := geom.BoxAround(geom.V(0.5, 0.25, 0.125), 0.01)
	var seeds []int32
	b.ResetTimer()
	for it := 0; it < b.N; it++ {
		seeds = appendContainedSlots(seeds[:0], q, pos, ids)
		sinkN += len(seeds)
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/21000, "ns/vtx")
}

// BenchmarkProbeBlocks times the block probe on the two surfaces the
// benchmark's workloads run it on — neuro-l5 (sim-step) and one sub-mesh
// of the K=4 partition of neuro-l3 (live-inproc, serve-*) — with the
// benchmark's query mix (selectivities 1e-4, 1e-3, 1e-2 in rotation; k in
// [8, 32]). "rebuild" is Step after in-place writes: the refit that
// recomputes every block box of both levels of the written buffer, the
// pass every writer of a buffer pays (a publish refits the same way);
// "range" and "knn" run whole queries with the boxes warm — a kNN's probe
// figures add its start search to the probe that runs under the crawl's
// bound, and its positions count the start leaves twice, once in each;
// "step+range" runs Step before every query, so each one pays a refit —
// the worst case, to be read against "linear", the containment pass over
// the whole surface that the blocks replace; "noseed" runs range boxes of the same mix whose
// probe finds no seed, so each one also searches the boxes for its walk
// start and walks (walk-ns/op, Stats.DirectedWalk, and stalls/op,
// Stats.WalkStalls, per query), and it fails if the warmed cursor
// allocates. probe-ns/op is Stats.SurfaceProbe per query; boxes/op
// (Stats.ProbeBoxes) and positions/op split the probe's tests
// (Stats.ProbeChecked) between the boxes of both levels and the surface
// positions scanned inside the leaves.
func BenchmarkProbeBlocks(b *testing.B) {
	l5, err := meshgen.Build(meshgen.NeuroL5, 1)
	if err != nil {
		b.Fatal(err)
	}
	l3, err := meshgen.Build(meshgen.NeuroL3, 1)
	if err != nil {
		b.Fatal(err)
	}
	part, err := shard.NewPartition(l3, 4, shard.Options{})
	if err != nil {
		b.Fatal(err)
	}
	for _, c := range []struct {
		name string
		m    *mesh.Mesh
	}{{"neuro-l5", l5}, {"neuro-l3-shard", part.Parts[0].Mesh}} {
		o := New(c.m)
		cur := o.NewCursor().(*Cursor)
		g := workload.NewGenerator(c.m, 4096, 1)
		var ranges []geom.AABB
		for i := 0; i < 96; i++ {
			ranges = append(ranges, g.QueryWithSelectivity([]float64{0.0001, 0.001, 0.01}[i%3]))
		}
		knns := g.KNNQueries(96, 8, 32, 0)
		pos, S := c.m.Positions(), float64(o.SurfaceSize())
		var noseed []geom.AABB
		for i := 0; len(noseed) < 96 && i < 4096; i++ {
			q := g.QueryWithSelectivity([]float64{0.0001, 0.001, 0.01}[i%3])
			if len(appendContainedSlots(nil, q, pos, o.idx.Slots())) == 0 {
				noseed = append(noseed, q)
			}
		}
		var out []int32
		perQuery := func(b *testing.B, run func(i int)) {
			run(0)
			before := cur.Stats()
			b.ResetTimer()
			for it := 0; it < b.N; it++ {
				run(it)
			}
			st := cur.Stats()
			b.ReportMetric(float64(st.SurfaceProbe-before.SurfaceProbe)/float64(b.N), "probe-ns/op")
			boxes := st.ProbeBoxes - before.ProbeBoxes
			b.ReportMetric(float64(boxes)/float64(b.N), "boxes/op")
			b.ReportMetric(float64(st.ProbeChecked-before.ProbeChecked-boxes)/float64(b.N), "positions/op")
		}
		b.Run(c.name+"/rebuild", func(b *testing.B) {
			for it := 0; it < b.N; it++ {
				o.Step()
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/S, "ns/position")
		})
		b.Run(c.name+"/linear", func(b *testing.B) {
			for it := 0; it < b.N; it++ {
				out = appendContained(out[:0], ranges[it%len(ranges)], pos[:o.SurfaceSize()], 0)
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/S, "ns/position")
		})
		b.Run(c.name+"/range", func(b *testing.B) {
			perQuery(b, func(i int) { out = cur.Query(ranges[i%len(ranges)], out[:0]) })
		})
		b.Run(c.name+"/noseed", func(b *testing.B) {
			if len(noseed) == 0 {
				b.Fatal("no range box without a surface seed")
			}
			for i := range noseed { // warm the cursor on every box
				out = cur.Query(noseed[i], out[:0])
			}
			if allocs := testing.AllocsPerRun(len(noseed), func() { out = cur.Query(noseed[0], out[:0]) }); allocs != 0 {
				b.Fatalf("a warmed no-seed range query allocates %.1f objects, want 0", allocs)
			}
			before := cur.Stats()
			perQuery(b, func(i int) { out = cur.Query(noseed[i%len(noseed)], out[:0]) })
			st := cur.Stats()
			b.ReportMetric(float64(st.DirectedWalk-before.DirectedWalk)/float64(b.N), "walk-ns/op")
			b.ReportMetric(float64(st.WalkStalls-before.WalkStalls)/float64(b.N), "stalls/op")
		})
		b.Run(c.name+"/knn", func(b *testing.B) {
			perQuery(b, func(i int) { out = cur.KNN(knns[i%len(knns)].P, knns[i%len(knns)].K, out[:0]) })
		})
		b.Run(c.name+"/step+range", func(b *testing.B) {
			perQuery(b, func(i int) {
				o.Step()
				out = cur.Query(ranges[i%len(ranges)], out[:0])
			})
		})
	}
}

// BenchmarkNoSeedEmpty times the emptiness proof: a box disjoint from the
// mesh, so the probe finds no seed, the descent stalls and the fallback
// has to show that no vertex is inside. "shard" is the row the sharded
// workloads pay whenever a planned leg lands on a shard that holds
// nothing in the box — one sub-mesh of the benchmark's K=4 partition of
// neuro-l3; "unsharded" is the whole mesh. positions/op is
// Stats.WalkVisited per query. The proof needs no scratch, so it must not
// allocate.
func BenchmarkNoSeedEmpty(b *testing.B) {
	m, err := meshgen.Build(meshgen.NeuroL3, 1)
	if err != nil {
		b.Fatal(err)
	}
	part, err := shard.NewPartition(m, 4, shard.Options{})
	if err != nil {
		b.Fatal(err)
	}
	bounds := m.Bounds()
	q := geom.BoxAround(bounds.Max.Add(bounds.Size().Scale(0.1)), bounds.Size().X*0.02)
	for _, c := range []struct {
		name string
		m    *mesh.Mesh
	}{{"shard", part.Parts[0].Mesh}, {"unsharded", m}} {
		b.Run(c.name, func(b *testing.B) {
			cur := New(c.m).NewCursor().(*Cursor)
			var out []int32
			run := func() { out = cur.Query(q, out[:0]) }
			if allocs := testing.AllocsPerRun(5, run); allocs != 0 {
				b.Fatalf("empty proof allocates %.1f objects/query, want 0", allocs)
			}
			if len(out) != 0 {
				b.Fatalf("disjoint box returned %d vertices", len(out))
			}
			visited := cur.Stats().WalkVisited
			b.ResetTimer()
			for it := 0; it < b.N; it++ {
				run()
			}
			b.ReportMetric(float64(cur.Stats().WalkVisited-visited)/float64(b.N), "positions/op")
		})
	}
}
