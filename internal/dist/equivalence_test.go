package dist_test

import (
	"fmt"
	"math/rand"
	"testing"

	"octopus/internal/core"
	"octopus/internal/dist"
	"octopus/internal/geom"
	"octopus/internal/grid"
	"octopus/internal/kdtree"
	"octopus/internal/linearscan"
	"octopus/internal/lurtree"
	"octopus/internal/maintain"
	"octopus/internal/mesh"
	"octopus/internal/meshgen"
	"octopus/internal/octree"
	"octopus/internal/query"
	"octopus/internal/qutrade"
	"octopus/internal/shard"
	"octopus/internal/sim"
)

// The cross-process equivalence matrix: for every engine × transport ×
// dataset, the distributed router's range and kNN answers must be
// bit-equal to the in-process shard.Router over identical geometry —
// static and while deforming — and both must equal brute force. The
// engine table and workloads mirror internal/shard's equivalence suite
// (test helpers cannot be imported across packages, so they are
// replicated here).

type engineCase struct {
	name string
	make func(m *mesh.Mesh) query.ParallelKNNEngine
	// convexOnly marks engines whose exactness contract assumes convex
	// geometry (OCTOPUS-CON's directed walk).
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

func buildBoxTet(t *testing.T, n int, h float64) *mesh.Mesh {
	t.Helper()
	m, err := meshgen.BuildBoxTet(n, n, n, h)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// buildPartialGrid builds a random subset of an n^3 Kuhn-tet grid —
// non-convex, possibly disconnected. Deterministic in the seed, so two
// calls build bit-identical meshes for the two sides of the comparison.
func buildPartialGrid(t *testing.T, n int, keepProb float64, seed int64) *mesh.Mesh {
	t.Helper()
	r := rand.New(rand.NewSource(seed))
	kuhn := [6][4]int{{0, 1, 3, 7}, {0, 1, 5, 7}, {0, 2, 3, 7}, {0, 2, 6, 7}, {0, 4, 5, 7}, {0, 4, 6, 7}}
	b := mesh.NewBuilder(0, 0)
	vid := map[[3]int]int32{}
	vertex := func(x, y, z int) int32 {
		key := [3]int{x, y, z}
		if id, ok := vid[key]; ok {
			return id
		}
		id := b.AddVertex(geom.V(float64(x), float64(y), float64(z)))
		vid[key] = id
		return id
	}
	for z := 0; z < n; z++ {
		for y := 0; y < n; y++ {
			for x := 0; x < n; x++ {
				if r.Float64() > keepProb {
					continue
				}
				var c [8]int32
				for bit := 0; bit < 8; bit++ {
					c[bit] = vertex(x+bit&1, y+(bit>>1)&1, z+(bit>>2)&1)
				}
				for _, k := range kuhn {
					b.AddTet(c[k[0]], c[k[1]], c[k[2]], c[k[3]])
				}
			}
		}
	}
	m, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return m
}

type equivDataset struct {
	name   string
	convex bool
	build  func(t *testing.T) *mesh.Mesh
}

func equivDatasets() []equivDataset {
	return []equivDataset{
		{name: "box-6", convex: true, build: func(t *testing.T) *mesh.Mesh { return buildBoxTet(t, 6, 1.0/6) }},
		{name: "partial-5", build: func(t *testing.T) *mesh.Mesh { return buildPartialGrid(t, 5, 0.65, 11) }},
	}
}

// equivQueries builds the deterministic mixed range workload:
// vertex-centred boxes, thin slabs straddling shard cuts, the whole
// mesh, and a disjoint box.
func equivQueries(m *mesh.Mesh, seed int64) []geom.AABB {
	r := rand.New(rand.NewSource(seed))
	bounds := m.Bounds()
	diag := bounds.Size().Len()
	var qs []geom.AABB
	for i := 0; i < 10; i++ {
		c := m.Position(int32(r.Intn(m.NumVertices())))
		qs = append(qs, geom.BoxAround(c, diag*(0.02+0.3*r.Float64())))
	}
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

// equivCubeQueries strips the thin slabs — the workload OCTOPUS-CON's
// walk stays exact for on a deformed convex mesh.
func equivCubeQueries(m *mesh.Mesh, seed int64) []geom.AABB {
	qs := equivQueries(m, seed)
	out := qs[:0]
	for _, q := range qs {
		s := q.Size()
		if thin := s.X < s.Y/4 || s.Y < s.X/4; !thin {
			out = append(out, q)
		}
	}
	return out
}

// equivProbes builds deterministic kNN probes across a spread of k,
// including k > V and a probe far outside the mesh.
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

// harness holds the two sides of one comparison: an in-process
// shard.Router and a dist cluster + router over bit-identical geometry.
type harness struct {
	// In-process side.
	m1  *mesh.Mesh
	sm1 *shard.Mesh
	r1  *shard.Router

	// Distributed side.
	m2 *mesh.Mesh
	cl *dist.Cluster
	rt *dist.Router
}

const (
	transportLoopback = "loopback"
	transportTCP      = "tcp"
)

// newHarness builds both sides over k shards, served through the named
// transport. build must be deterministic: it is called twice and the two
// meshes must be bit-identical.
func newHarness(t *testing.T, build func(t *testing.T) *mesh.Mesh, k int, ec engineCase, transport string) *harness {
	t.Helper()
	h := &harness{m1: build(t), m2: build(t)}
	if h.m1.NumVertices() != h.m2.NumVertices() {
		t.Fatalf("non-deterministic dataset builder: %d vs %d vertices", h.m1.NumVertices(), h.m2.NumVertices())
	}

	sm1, err := shard.NewMesh(h.m1, k, shard.Options{})
	if err != nil {
		t.Fatal(err)
	}
	h.sm1 = sm1
	h.r1 = shard.NewRouter(sm1, ec.make)

	sm2, err := shard.NewMesh(h.m2, k, shard.Options{})
	if err != nil {
		t.Fatal(err)
	}
	h.cl = dist.NewCluster(sm2, ec.make)
	switch transport {
	case transportLoopback:
		lb := dist.NewLoopback()
		addrs := h.cl.ServeLoopback(lb)
		h.rt = dist.NewRouter(lb, addrs, dist.RetryPolicy{})
	case transportTCP:
		addrs, err := h.cl.ServeTCP()
		if err != nil {
			t.Fatal(err)
		}
		h.rt = dist.NewRouter(&dist.TCPTransport{}, addrs, dist.RetryPolicy{})
	default:
		t.Fatalf("unknown transport %q", transport)
	}
	t.Cleanup(func() {
		h.rt.Close()
		h.cl.Close()
	})
	return h
}

// deform applies one deterministic step to both sides, through each
// side's Deform fn (the deformer is a pure function of the step and the
// positions, so both sides compute bit-identical updates), then a
// lockstep publish — shard.Mesh.Deform in process, publish RPCs (the
// ghost exchange, delta or full) across the wire. Mutating through fn
// matters on the cluster side: the global mesh is double-buffered with
// dirty tracking, and the published delta is the diff fn produced.
func (h *harness) deform(t *testing.T, d sim.Deformer, step int) {
	t.Helper()
	h.sm1.Deform(func(pos []geom.Vec3) { d.Step(step, pos) })
	if err := h.cl.DeformErr(func(pos []geom.Vec3) { d.Step(step, pos) }); err != nil {
		t.Fatalf("step %d: publish: %v", step, err)
	}
	if got, want := h.cl.Epoch(), h.sm1.Epoch(); got != want {
		t.Fatalf("step %d: cluster epoch %d, in-process epoch %d", step, got, want)
	}
}

// maintain drives both sides' per-shard maintenance to the head. The
// in-process side drains its targets (Router.Step would publish again).
func (h *harness) maintain(t *testing.T) {
	t.Helper()
	maintain.NewScheduler(h.r1.MaintainStates(), maintain.Options{}).Drain()
	if err := h.cl.MaintainToHead(); err != nil {
		t.Fatal(err)
	}
}

// checkRange asserts the distributed answer equals the in-process
// router's (set equality: range order is unspecified on both sides),
// equals brute force, and is exact at the expected epoch.
func (h *harness) checkRange(t *testing.T, label string, cur query.Cursor, q geom.AABB, wantEpoch uint64) {
	t.Helper()
	got, epoch, err := h.rt.Range(q, nil)
	if err != nil {
		t.Fatalf("%s: dist range: %v", label, err)
	}
	if epoch != wantEpoch {
		t.Fatalf("%s: dist range answered at epoch %d, want %d", label, epoch, wantEpoch)
	}
	want := cur.Query(q, nil)
	if d := query.Diff(append([]int32(nil), got...), want); d != "" {
		t.Fatalf("%s: dist vs in-process: %s (box %v)", label, d, q)
	}
	truth := query.BruteForce(h.m1, q)
	if d := query.Diff(got, truth); d != "" {
		t.Fatalf("%s: dist vs brute force: %s (box %v)", label, d, q)
	}
}

// checkKNN asserts bit-for-bit (dist,id)-ordered equality of the
// distributed kNN against the in-process router and brute force.
func (h *harness) checkKNN(t *testing.T, label string, knn query.KNNCursor, p geom.Vec3, k int, wantEpoch uint64) {
	t.Helper()
	got, epoch, err := h.rt.KNN(p, k, nil)
	if err != nil {
		t.Fatalf("%s: dist kNN: %v", label, err)
	}
	if epoch != wantEpoch {
		t.Fatalf("%s: dist kNN answered at epoch %d, want %d", label, epoch, wantEpoch)
	}
	want := knn.KNN(p, k, nil)
	if !equalIDs(got, want) {
		t.Fatalf("%s: dist kNN %v != in-process %v (p %v k %d)", label, got, want, p, k)
	}
	truth := query.BruteForceKNN(h.m1, p, k)
	if !equalIDs(got, truth) {
		t.Fatalf("%s: dist kNN %v != brute force %v (p %v k %d)", label, got, truth, p, k)
	}
}

func (h *harness) checkAll(t *testing.T, phase string, cur query.Cursor, knn query.KNNCursor,
	queries []geom.AABB, probes []query.KNNQuery, wantEpoch uint64) {
	t.Helper()
	for qi, q := range queries {
		h.checkRange(t, fmt.Sprintf("%s query %d", phase, qi), cur, q, wantEpoch)
	}
	for pi, p := range probes {
		h.checkKNN(t, fmt.Sprintf("%s probe %d", phase, pi), knn, p.P, p.K, wantEpoch)
	}
}

// transports returns the transport dimension of the matrix. TCP is the
// same byte-level protocol through real sockets; the loopback transport
// already exercises every encode/decode path deterministically.
func transports() []string { return []string{transportLoopback, transportTCP} }

// TestDistEquivalenceStatic: every engine × transport × dataset on a
// static mesh — the distributed router must be bit-equal to the
// in-process shard.Router and brute force.
func TestDistEquivalenceStatic(t *testing.T) {
	for _, tr := range transports() {
		for _, ds := range equivDatasets() {
			m := ds.build(t)
			queries := equivQueries(m, 21)
			probes := equivProbes(m, 22)
			for _, ec := range engineCases() {
				if ec.convexOnly && !ds.convex {
					continue
				}
				for _, k := range []int{1, 4} {
					t.Run(fmt.Sprintf("%s/%s/%s/K=%d", tr, ds.name, ec.name, k), func(t *testing.T) {
						h := newHarness(t, ds.build, k, ec, tr)
						cur := h.r1.NewCursor()
						defer cur.Close()
						knn := cur.(query.KNNCursor)
						h.checkAll(t, "static", cur, knn, queries, probes, 0)
						st := h.rt.Stats()
						if st.RangeQueries != int64(len(queries)) || st.KNNQueries != int64(len(probes)) {
							t.Fatalf("router stats: %+v, want %d range / %d kNN queries", st, len(queries), len(probes))
						}
						// Both tiers plan with the same planner and scan each
						// shard with the same shard.Exec, so they must have
						// done the same work, not just reached the same answers.
						_, rangeFan, _, knnScanned, knnWiden := h.r1.FanoutStats()
						if st.RangeFanout != rangeFan || st.KNNScanned != knnScanned || st.Widenings != knnWiden {
							t.Fatalf("router did fan-out %d, scanned %d, widened %d; in-process did %d, %d, %d",
								st.RangeFanout, st.KNNScanned, st.Widenings, rangeFan, knnScanned, knnWiden)
						}
					})
				}
			}
		}
	}
}

// TestDistEquivalenceDeforming: each step deforms both sides with the
// same deterministic deformer and publishes in lockstep (Publish RPCs on
// the distributed side — the ghost exchange). Equivalence is asserted
// twice per step: in the publish-to-maintenance window, where stale
// engines must fall back to the exact owned scan on both sides (and the
// distributed router must re-pin the new epoch through the skew gate),
// and again after both sides' maintenance reaches the head.
func TestDistEquivalenceDeforming(t *testing.T) {
	const steps = 2
	for _, tr := range transports() {
		if tr == transportTCP && testing.Short() {
			continue
		}
		for _, ds := range equivDatasets() {
			for _, ec := range engineCases() {
				if ec.convexOnly && !ds.convex {
					continue
				}
				t.Run(fmt.Sprintf("%s/%s/%s", tr, ds.name, ec.name), func(t *testing.T) {
					h := newHarness(t, ds.build, 3, ec, tr)
					cur := h.r1.NewCursor()
					defer cur.Close()
					knn := cur.(query.KNNCursor)
					// Warm the metadata cache at epoch 0 so every published
					// step invalidates it through the skew gate below.
					if err := h.rt.Refresh(); err != nil {
						t.Fatal(err)
					}

					var d sim.Deformer = &sim.NoiseDeformer{Amplitude: 0.04, Frequency: 2, Seed: 77}
					if ec.convexOnly {
						d = &sim.AffineDeformer{
							Pivot: h.m1.Bounds().Center(), MaxScale: 0.05,
							MaxRotate: 0.1, MaxShift: 0.05, Seed: 77,
						}
					}

					for step := 0; step < steps; step++ {
						h.deform(t, d, step)
						epoch := uint64(step + 1)

						queries := equivQueries(h.m1, int64(100+step))
						if ec.convexOnly {
							queries = equivCubeQueries(h.m1, int64(100+step))
						}
						probes := equivProbes(h.m1, int64(200+step))

						// Publish-to-maintenance window: engines answering
						// from internal snapshots are stale; both sides must
						// take the exact owned-scan fallback at the new head.
						h.checkAll(t, fmt.Sprintf("step %d mid-window", step), cur, knn, queries, probes, epoch)

						h.maintain(t)
						h.checkAll(t, fmt.Sprintf("step %d maintained", step), cur, knn, queries, probes, epoch)
					}

					// The skew gate must have re-pinned the router's cached
					// metadata at least once per published step.
					if st := h.rt.Stats(); st.SkewRequeries < steps {
						t.Fatalf("expected >= %d skew re-queries across %d published steps, got %+v", steps, steps, st)
					}
					if err := h.cl.Err(); err != nil {
						t.Fatalf("cluster latched control-plane error: %v", err)
					}
				})
			}
		}
	}
}

// TestDistStatelessRouters: two independent router instances over the
// same cluster answer identically — the tier holds no authoritative
// state, so any instance can serve any query (the scaling contract).
func TestDistStatelessRouters(t *testing.T) {
	ec := engineCases()[1] // OCTOPUS
	h := newHarness(t, equivDatasets()[0].build, 3, ec, transportLoopback)
	lb := dist.NewLoopback()
	addrs := h.cl.ServeLoopback(lb) // re-register: same servers, second transport
	rt2 := dist.NewRouter(lb, addrs, dist.RetryPolicy{})
	defer rt2.Close()

	d := &sim.NoiseDeformer{Amplitude: 0.03, Frequency: 2, Seed: 5}
	for step := 0; step < 2; step++ {
		h.deform(t, d, step)
		h.maintain(t)
	}
	for qi, q := range equivQueries(h.m1, 31) {
		a, ea, err := h.rt.Range(q, nil)
		if err != nil {
			t.Fatal(err)
		}
		b, eb, err := rt2.Range(q, nil)
		if err != nil {
			t.Fatal(err)
		}
		if ea != eb {
			t.Fatalf("query %d: routers answered at different epochs: %d vs %d", qi, ea, eb)
		}
		if diff := query.Diff(a, b); diff != "" {
			t.Fatalf("query %d: routers disagree: %s", qi, diff)
		}
	}
	for pi, p := range equivProbes(h.m1, 32) {
		a, _, err := h.rt.KNN(p.P, p.K, nil)
		if err != nil {
			t.Fatal(err)
		}
		b, _, err := rt2.KNN(p.P, p.K, nil)
		if err != nil {
			t.Fatal(err)
		}
		if !equalIDs(a, b) {
			t.Fatalf("probe %d: routers disagree: %v vs %v", pi, a, b)
		}
	}
}
