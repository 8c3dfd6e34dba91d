package core

import (
	"testing"

	"octopus/internal/geom"
	"octopus/internal/mesh"
	"octopus/internal/meshgen"
	"octopus/internal/shard"
)

// TestShardedProbeSteadyStateAllocs pins the sharded exact probe's
// allocation behavior: after warm-up, a query whose probe is sharded
// across workers must not allocate — the per-shard seed buffers and the
// worker closures live on the cursor and are reused, so the only possible
// allocations are result-slice growth (excluded by reusing out) and
// runtime goroutine bookkeeping (recycled in steady state).
func TestShardedProbeSteadyStateAllocs(t *testing.T) {
	m := buildBox(t, 8)
	o := New(m)
	o.probeWorkers = 4
	o.shardThreshold = 1 // force sharding despite the small test surface

	q := geom.BoxAround(geom.V(0.5, 0.5, 0.5), 0.4)
	out := make([]int32, 0, m.NumVertices())
	for i := 0; i < 32; i++ { // warm up buffers, goroutine pool, idSet
		out = o.Query(q, out[:0])
	}
	if len(out) == 0 {
		t.Fatal("probe found nothing; test geometry broken")
	}
	allocs := testing.AllocsPerRun(200, func() {
		out = o.Query(q, out[:0])
	})
	if allocs > 1 {
		t.Errorf("sharded probe allocates %.1f objects/query in steady state, want 0", allocs)
	}
}

func mkpos(n int) []geom.Vec3 {
	pos := make([]geom.Vec3, n)
	for i := range pos {
		f := float64(i%1000) / 1000
		pos[i] = geom.V(f, f*0.5, f*0.25)
	}
	return pos
}

var sinkN int

func BenchmarkProbeRangeLoop(b *testing.B) {
	pos := mkpos(70000)
	q := geom.BoxAround(geom.V(0.5, 0.25, 0.125), 0.01)
	b.ResetTimer()
	for it := 0; it < b.N; it++ {
		n := 0
		for _, p := range pos[:21000] {
			if q.Contains(p) {
				n++
			}
		}
		sinkN += n
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/21000, "ns/vtx")
}

func BenchmarkProbeFullScan(b *testing.B) {
	pos := mkpos(70000)
	q := geom.BoxAround(geom.V(0.5, 0.25, 0.125), 0.01)
	b.ResetTimer()
	for it := 0; it < b.N; it++ {
		n := 0
		for _, p := range pos {
			if q.Contains(p) {
				n++
			}
		}
		sinkN += n
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/70000, "ns/vtx")
}

func BenchmarkProbeGather(b *testing.B) {
	pos := mkpos(70000)
	ids := make([]int32, 21000)
	for i := range ids {
		ids[i] = int32(i * 3)
	}
	q := geom.BoxAround(geom.V(0.5, 0.25, 0.125), 0.01)
	b.ResetTimer()
	for it := 0; it < b.N; it++ {
		n := 0
		for _, v := range ids {
			if q.Contains(pos[v]) {
				n++
			}
		}
		sinkN += n
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/21000, "ns/vtx")
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
