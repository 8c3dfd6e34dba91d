package shard

import (
	"fmt"
	"math/rand"
	"testing"

	"octopus/internal/core"
	"octopus/internal/geom"
	"octopus/internal/grid"
	"octopus/internal/kdtree"
	"octopus/internal/linearscan"
	"octopus/internal/lurtree"
	"octopus/internal/maintain"
	"octopus/internal/mesh"
	"octopus/internal/octree"
	"octopus/internal/query"
	"octopus/internal/qutrade"
	"octopus/internal/sim"
)

// engineCase names one of the nine engines and builds it with the tests'
// standard tuning (mirroring internal/bench's factory table — bench
// imports this package, so the table cannot be imported here).
type engineCase struct {
	name string
	make func(m *mesh.Mesh) query.ParallelKNNEngine
	// convexOnly marks engines whose exactness contract assumes convex
	// geometry (OCTOPUS-CON's directed walk): they are exercised on the
	// convex datasets only, where shards stay walkable.
	convexOnly bool
}

func engineCases() []engineCase {
	return []engineCase{
		{name: "LinearScan", make: func(m *mesh.Mesh) query.ParallelKNNEngine { return linearscan.New(m) }},
		{name: "OCTOPUS", make: func(m *mesh.Mesh) query.ParallelKNNEngine { return core.New(m) }},
		{name: "OCTOPUS-CON", convexOnly: true,
			make: func(m *mesh.Mesh) query.ParallelKNNEngine { return core.NewCon(m, 0) }},
		{name: "OCTOPUS-Hybrid", make: func(m *mesh.Mesh) query.ParallelKNNEngine {
			return core.NewHybrid(m, 0, core.Constants{CS: 1, CR: 4})
		}},
		{name: "KD-Tree", make: func(m *mesh.Mesh) query.ParallelKNNEngine { return kdtree.NewEngine(m, 0) }},
		{name: "OCTREE", make: func(m *mesh.Mesh) query.ParallelKNNEngine { return octree.NewEngine(m, 0) }},
		{name: "LU-Grid", make: func(m *mesh.Mesh) query.ParallelKNNEngine { return grid.NewLUEngine(m, 4096) }},
		{name: "LUR-Tree", make: func(m *mesh.Mesh) query.ParallelKNNEngine { return lurtree.New(m, 0) }},
		{name: "QU-Trade", make: func(m *mesh.Mesh) query.ParallelKNNEngine { return qutrade.New(m, 0, 0) }},
	}
}

// equivDataset is one geometry of the equivalence matrix.
type equivDataset struct {
	name   string
	convex bool
	build  func(t *testing.T) *mesh.Mesh
}

func equivDatasets(t *testing.T) []equivDataset {
	ds := []equivDataset{
		{name: "box-6", convex: true, build: func(t *testing.T) *mesh.Mesh { return buildBoxTet(t, 6, 1.0/6) }},
		{name: "partial-5", build: func(t *testing.T) *mesh.Mesh {
			return buildPartialGrid(t, 5, 0.65, rand.New(rand.NewSource(11)))
		}},
	}
	if !testing.Short() {
		ds = append(ds, equivDataset{name: "box-9", convex: true, build: func(t *testing.T) *mesh.Mesh {
			return buildBoxTet(t, 9, 1.0/9)
		}})
	}
	return ds
}

// equivQueries builds a deterministic mixed range workload over the
// mesh's current bounds: vertex-centred boxes of several sizes, thin
// slabs, the whole mesh, and a disjoint box. Callers exercising an
// engine outside its exactness contract (OCTOPUS-CON with a deformed
// mesh, where a thin slab's in-box subgraph can disconnect) slice off
// the slab tail with equivCubeQueries.
func equivQueries(m *mesh.Mesh, seed int64) []geom.AABB {
	r := rand.New(rand.NewSource(seed))
	bounds := m.Bounds()
	diag := bounds.Size().Len()
	var qs []geom.AABB
	for i := 0; i < 10; i++ {
		c := m.Position(int32(r.Intn(m.NumVertices())))
		qs = append(qs, geom.BoxAround(c, diag*(0.02+0.3*r.Float64())))
	}
	// Thin slabs through the interior: likely to straddle shard cuts.
	c := bounds.Center()
	s := bounds.Size()
	qs = append(qs,
		geom.Box(geom.V(bounds.Min.X, c.Y-0.02*s.Y, bounds.Min.Z), geom.V(bounds.Max.X, c.Y+0.02*s.Y, bounds.Max.Z)),
		geom.Box(geom.V(c.X-0.02*s.X, bounds.Min.Y, bounds.Min.Z), geom.V(c.X+0.02*s.X, bounds.Max.Y, bounds.Max.Z)),
	)
	qs = append(qs, bounds)
	qs = append(qs, geom.BoxAround(bounds.Max.Add(geom.V(diag, diag, diag)), diag*0.1))
	return qs
}

// equivCubeQueries is equivQueries without the thin slabs: the workload
// whose in-box subgraphs stay connected on a (deformed) convex mesh —
// the class OCTOPUS-CON's walk guarantees exactness for.
func equivCubeQueries(m *mesh.Mesh, seed int64) []geom.AABB {
	qs := equivQueries(m, seed)
	out := qs[:0]
	for _, q := range qs {
		s := q.Size()
		thin := s.X < s.Y/4 || s.Y < s.X/4 // the two slab shapes
		if !thin {
			out = append(out, q)
		}
	}
	return out
}

// equivProbes builds deterministic kNN probes: on-mesh points with jitter
// across a spread of k, including k > V.
func equivProbes(m *mesh.Mesh, seed int64) []query.KNNQuery {
	r := rand.New(rand.NewSource(seed))
	bounds := m.Bounds()
	diag := bounds.Size().Len()
	var ps []query.KNNQuery
	for _, k := range []int{1, 3, 8, 40} {
		for i := 0; i < 3; i++ {
			p := m.Position(int32(r.Intn(m.NumVertices())))
			jitter := geom.V(
				(r.Float64()*2-1)*0.05*diag,
				(r.Float64()*2-1)*0.05*diag,
				(r.Float64()*2-1)*0.05*diag,
			)
			ps = append(ps, query.KNNQuery{P: p.Add(jitter), K: k})
		}
	}
	ps = append(ps, query.KNNQuery{P: bounds.Center(), K: m.NumVertices() + 5})
	ps = append(ps, query.KNNQuery{P: bounds.Max.Add(geom.V(diag, 0, 0)), K: 2})
	return ps
}

// checkRangeEquiv asserts the router's result for q equals both the
// single-mesh engine's and brute force (all sorted: order is
// unspecified).
func checkRangeEquiv(t *testing.T, label string, m *mesh.Mesh, single query.Cursor, sharded query.Cursor, q geom.AABB) {
	t.Helper()
	got := sharded.Query(q, nil)
	want := single.Query(q, nil)
	if d := query.Diff(append([]int32(nil), got...), want); d != "" {
		t.Fatalf("%s: sharded vs single-mesh: %s (box %v)", label, d, q)
	}
	truth := query.BruteForce(m, q)
	if d := query.Diff(got, truth); d != "" {
		t.Fatalf("%s: sharded vs brute force: %s (box %v)", label, d, q)
	}
}

// checkKNNEquiv asserts bit-for-bit (dist,id)-ordered equality of the
// router's kNN against the single-mesh engine and brute force.
func checkKNNEquiv(t *testing.T, label string, m *mesh.Mesh, single query.KNNCursor, sharded query.KNNCursor, p geom.Vec3, k int) {
	t.Helper()
	got := sharded.KNN(p, k, nil)
	want := single.KNN(p, k, nil)
	if !equalIDs(got, want) {
		t.Fatalf("%s: sharded kNN %v != single-mesh %v (p %v k %d)", label, got, want, p, k)
	}
	truth := query.BruteForceKNN(m, p, k)
	if !equalIDs(got, truth) {
		t.Fatalf("%s: sharded kNN %v != brute force %v (p %v k %d)", label, got, truth, p, k)
	}
}

func equalIDs(a, b []int32) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// drainTargets brings every shard engine to the head after a Deform,
// without publishing again (Router.Step would).
func drainTargets(r *Router) {
	maintain.NewScheduler(r.MaintainStates(), maintain.Options{}).Drain()
}

// newRouter builds the sharded mesh and router for one engine case.
func newRouter(t *testing.T, m *mesh.Mesh, k int, ec engineCase) *Router {
	t.Helper()
	sm, err := NewMesh(m, k, Options{})
	if err != nil {
		t.Fatal(err)
	}
	return NewRouter(sm, ec.make)
}

// TestEquivalenceStatic is the static half of the cross-shard
// equivalence matrix: for every engine × K ∈ {1,2,4,8} × dataset, the
// sharded range and kNN results must equal the single-mesh engine's
// bit-for-bit after global-id remap.
func TestEquivalenceStatic(t *testing.T) {
	for _, ds := range equivDatasets(t) {
		m := ds.build(t)
		queries := equivQueries(m, 21)
		probes := equivProbes(m, 22)
		for _, ec := range engineCases() {
			if ec.convexOnly && !ds.convex {
				continue
			}
			single := ec.make(m)
			sCur := single.NewCursor()
			sKNN := sCur.(query.KNNCursor)
			for _, k := range []int{1, 2, 4, 8} {
				t.Run(fmt.Sprintf("%s/%s/K=%d", ds.name, ec.name, k), func(t *testing.T) {
					r := newRouter(t, m, k, ec)
					cur := r.NewCursor()
					knn := cur.(query.KNNCursor)
					for qi, q := range queries {
						checkRangeEquiv(t, fmt.Sprintf("query %d", qi), m, sCur, cur, q)
					}
					for pi, p := range probes {
						checkKNNEquiv(t, fmt.Sprintf("probe %d", pi), m, sKNN, knn, p.P, p.K)
					}
					cur.Close()
				})
			}
			sCur.Close()
		}
	}
}

// TestEquivalenceDeforming is the deforming half: each step deforms the
// shared global mesh, republishes the shards through Deform, performs
// per-engine maintenance on both sides (the router's by draining its
// targets, as a pipeline does), and re-checks equivalence. The final step
// also runs the whole workload through concurrent router cursors
// (ExecuteBatch) to exercise pinning under parallel execution.
func TestEquivalenceDeforming(t *testing.T) {
	steps := 3
	if testing.Short() {
		steps = 2
	}
	for _, ds := range equivDatasets(t) {
		for _, ec := range engineCases() {
			if ec.convexOnly && !ds.convex {
				continue
			}
			for _, k := range []int{1, 2, 4, 8} {
				t.Run(fmt.Sprintf("%s/%s/K=%d", ds.name, ec.name, k), func(t *testing.T) {
					m := ds.build(t)
					single := ec.make(m)
					sCur := single.NewCursor()
					sKNN := sCur.(query.KNNCursor)
					r := newRouter(t, m, k, ec)
					cur := r.NewCursor()
					knn := cur.(query.KNNCursor)
					// Convex-contract engines get a convexity-preserving
					// affine deformation (the earthquake meshes' motion
					// class); the rest get free-form noise.
					var d sim.Deformer = &sim.NoiseDeformer{Amplitude: 0.04, Frequency: 2, Seed: 77}
					if ec.convexOnly {
						d = &sim.AffineDeformer{
							Pivot: m.Bounds().Center(), MaxScale: 0.05,
							MaxRotate: 0.1, MaxShift: 0.05, Seed: 77,
						}
					}

					for step := 0; step < steps; step++ {
						// Deform the global mesh in place (the single-mesh
						// side's stop-the-world contract), then publish the
						// same state into every shard with one epoch.
						d.Step(step, m.Positions())
						r.Mesh().Deform(func([]geom.Vec3) {})
						single.Step()
						drainTargets(r)
						if got, want := r.Mesh().Epoch(), uint64(step+1); got != want {
							t.Fatalf("step %d: shard epoch %d, want %d", step, got, want)
						}

						queries := equivQueries(m, int64(100+step))
						if ec.convexOnly {
							queries = equivCubeQueries(m, int64(100+step))
						}
						probes := equivProbes(m, int64(200+step))
						for qi, q := range queries {
							checkRangeEquiv(t, fmt.Sprintf("step %d query %d", step, qi), m, sCur, cur, q)
						}
						for pi, p := range probes {
							checkKNNEquiv(t, fmt.Sprintf("step %d probe %d", step, pi), m, sKNN, knn, p.P, p.K)
						}
					}

					// Concurrent cursors over the deformed, epoch-pinned state.
					queries := equivQueries(m, 999)
					if ec.convexOnly {
						queries = equivCubeQueries(m, 999)
					}
					batch := query.ExecuteBatch(r, queries, 4)
					for qi, q := range queries {
						want := query.BruteForce(m, q)
						if d := query.Diff(batch[qi], want); d != "" {
							t.Fatalf("batch query %d: %s", qi, d)
						}
					}
					probes := equivProbes(m, 998)
					kbatch := query.ExecuteKNNBatch(r, probes, 4)
					for pi, p := range probes {
						want := query.BruteForceKNN(m, p.P, p.K)
						if !equalIDs(kbatch[pi], want) {
							t.Fatalf("batch probe %d: got %v want %v", pi, kbatch[pi], want)
						}
					}
					cur.Close()
					sCur.Close()
				})
			}
		}
	}
}
