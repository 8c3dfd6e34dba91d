package dist

import (
	"testing"

	"octopus/internal/core"
	"octopus/internal/geom"
	"octopus/internal/mesh"
	"octopus/internal/meshgen"
	"octopus/internal/query"
	"octopus/internal/shard"
	"octopus/internal/sim"
	"octopus/internal/workload"
)

// The wire tier's deterministic counters on neuro-l2 split K = 4 ways
// with OCTOPUS per shard: range legs and kNN shards per query, widenings,
// skew re-queries and retries, and published bytes per step. Each is a
// pure function of the dataset, the shard cut and the seeded workload, so
// each is pinned exactly: a plan that sends one more leg, or a delta that
// ships a mover twice, fails here. Whether the answers are right is the
// equivalence suite's business.

const (
	counterShards = 4
	counterSeed   = 42
)

// counterCluster builds neuro-l2 and an unserved K = 4 cluster over it.
func counterCluster(t *testing.T) (*mesh.Mesh, *Cluster) {
	t.Helper()
	m, err := meshgen.Build(meshgen.NeuroL2, 1)
	if err != nil {
		t.Fatal(err)
	}
	sm, err := shard.NewMesh(m, counterShards, shard.Options{})
	if err != nil {
		t.Fatal(err)
	}
	cl := NewCluster(sm, func(sub *mesh.Mesh) query.ParallelKNNEngine { return core.New(sub) })
	t.Cleanup(cl.Close)
	return m, cl
}

// runCounted answers every query and probe through rt and returns the
// router's counters.
func runCounted(t *testing.T, rt *Router, boxes []geom.AABB, probes []query.KNNQuery) RouterStats {
	t.Helper()
	var out []int32
	var err error
	for _, q := range boxes {
		if out, _, err = rt.Range(q, out[:0]); err != nil {
			t.Fatal(err)
		}
	}
	for _, p := range probes {
		if out, _, err = rt.KNN(p.P, p.K, out[:0]); err != nil {
			t.Fatal(err)
		}
	}
	return rt.Stats()
}

// TestDistPlanCounters: on the pristine mesh, 32 range boxes at 1e-3
// selectivity take 39 legs (1.219 per query) and 8 kNN probes scan 12
// shards (1.5 per probe) without widening, over loopback and over TCP
// alike — the plan is the router's, not the transport's.
func TestDistPlanCounters(t *testing.T) {
	m, cl := counterCluster(t)
	gen := workload.NewGenerator(m, 4096, counterSeed)
	boxes := gen.UniformQueries(32, 1e-3)
	probes := gen.KNNQueries(8, 4, 16, 0.05)
	want := RouterStats{RangeQueries: 32, RangeFanout: 39, KNNQueries: 8, KNNScanned: 12}

	for _, tr := range []string{"loopback", "tcp"} {
		var rt *Router
		if tr == "loopback" {
			lb := NewLoopback()
			rt = NewRouter(lb, cl.ServeLoopback(lb), RetryPolicy{})
		} else {
			addrs, err := cl.ServeTCP()
			if err != nil {
				t.Fatal(err)
			}
			rt = NewRouter(&TCPTransport{}, addrs, RetryPolicy{})
		}
		if got := runCounted(t, rt, boxes, probes); got != want {
			t.Errorf("%s: counters %+v, want %+v", tr, got, want)
		}
		rt.Close()
		cl.Close()
	}
}

// TestDistSkewRequeryPerStep: a router whose metadata is pinned before a
// publish meets the new epoch through the skew gate — exactly one
// re-query per published step, and no transport retries on a healthy
// cluster.
func TestDistSkewRequeryPerStep(t *testing.T) {
	const steps = 2
	m, cl := counterCluster(t)
	lb := NewLoopback()
	rt := NewRouter(lb, cl.ServeLoopback(lb), RetryPolicy{})
	defer rt.Close()
	if err := rt.Refresh(); err != nil {
		t.Fatal(err)
	}
	deformer, err := sim.DefaultDeformer(meshgen.NeuroL2, sim.DefaultAmplitude)
	if err != nil {
		t.Fatal(err)
	}
	gen := workload.NewGenerator(m, 4096, counterSeed+1)
	for step := 0; step < steps; step++ {
		if err := cl.DeformErr(func(pos []geom.Vec3) { deformer.Step(step, pos) }); err != nil {
			t.Fatal(err)
		}
		if err := cl.MaintainToHead(); err != nil {
			t.Fatal(err)
		}
		runCounted(t, rt, gen.UniformQueries(8, 1e-3), gen.KNNQueries(3, 4, 16, 0.05))
	}
	if st := rt.Stats(); st.SkewRequeries != steps || st.Retries != 0 {
		t.Errorf("%d skew re-queries and %d retries over %d published steps, want %d and 0",
			st.SkewRequeries, st.Retries, steps, steps)
	}
}

// deformFull is DeformErr forced onto the full-array publish path, which
// DeformErr itself takes only when the dirty tracker overflows.
func deformFull(cl *Cluster, fn func(pos []geom.Vec3)) error {
	g := cl.sm.Global()
	g.Deform(fn)
	g.TakeDirty()
	return cl.publishFull(cl.epoch.Add(1), g.Positions())
}

// publishBoth serves full and delta on loopback, then drives both through
// the same steps of d, full through deformFull and delta through
// DeformErr, and requires every shard sub-mesh to end bit-identical: the
// delta encoding is a pure compression of the publish, never a different
// state.
func publishBoth(t *testing.T, full, delta *Cluster, d sim.Deformer, steps int) {
	t.Helper()
	full.ServeLoopback(NewLoopback())
	delta.ServeLoopback(NewLoopback())
	for step := 0; step < steps; step++ {
		fn := func(pos []geom.Vec3) { d.Step(step, pos) }
		if err := deformFull(full, fn); err != nil {
			t.Fatalf("step %d, full: %v", step, err)
		}
		if err := delta.DeformErr(fn); err != nil {
			t.Fatalf("step %d, delta: %v", step, err)
		}
	}
	shards := len(full.servers)
	wf, wd := full.WireStats(), delta.WireStats()
	if wf.Publish.Calls != int64(steps*shards) || wf.PublishDelta.Calls != 0 {
		t.Fatalf("full cluster published %d full / %d delta, want %d / 0",
			wf.Publish.Calls, wf.PublishDelta.Calls, steps*shards)
	}
	if wd.PublishDelta.Calls != int64(steps*shards) || wd.Publish.Calls != 0 {
		t.Fatalf("delta cluster published %d delta / %d full, want %d / 0",
			wd.PublishDelta.Calls, wd.Publish.Calls, steps*shards)
	}
	pf, pd := full.Mesh().Partition().Parts, delta.Mesh().Partition().Parts
	for s := range pf {
		a, b := pf[s].Mesh.Positions(), pd[s].Mesh.Positions()
		if len(a) != len(b) {
			t.Fatalf("shard %d: %d vs %d vertices", s, len(a), len(b))
		}
		for l := range a {
			if a[l] != b[l] {
				t.Fatalf("shard %d local %d: full publish %v != delta publish %v", s, l, a[l], b[l])
			}
		}
	}
}

// TestDistDeltaMatchesFullPublish: localized blob steps on a 3-shard box
// land the same state through deltas as through full publishes, for
// fewer bytes.
func TestDistDeltaMatchesFullPublish(t *testing.T) {
	mk := func() *Cluster {
		m, err := meshgen.BuildBoxTet(6, 6, 6, 1.0/6)
		if err != nil {
			t.Fatal(err)
		}
		sm, err := shard.NewMesh(m, 3, shard.Options{})
		if err != nil {
			t.Fatal(err)
		}
		cl := NewCluster(sm, func(sub *mesh.Mesh) query.ParallelKNNEngine { return core.New(sub) })
		t.Cleanup(cl.Close)
		return cl
	}
	full, delta := mk(), mk()
	publishBoth(t, full, delta, &sim.BlobDeformer{Radius: 0.35, Amplitude: 0.02, Seed: 17}, 4)
	if d, f := delta.WireStats().PublishedBytes(), full.WireStats().PublishedBytes(); d >= f {
		t.Fatalf("delta publishes shipped %d bytes, full %d — no reduction", d, f)
	}
}

// TestDistPublishBytes: a blob moving 15 % of neuro-l2's extent per step
// publishes 129 408 payload bytes per step as deltas (every replica of
// every mover, once), at least 5x fewer than the full arrays.
func TestDistPublishBytes(t *testing.T) {
	const steps = 2
	m, full := counterCluster(t)
	_, delta := counterCluster(t)
	b := m.Bounds()
	ext := max(b.Max.X-b.Min.X, b.Max.Y-b.Min.Y, b.Max.Z-b.Min.Z)
	publishBoth(t, full, delta, &sim.BlobDeformer{Radius: 0.15 * ext, Amplitude: 0.01 * ext, Seed: counterSeed}, steps)

	f, d := full.WireStats().PublishedBytes()/steps, delta.WireStats().PublishedBytes()/steps
	if d != 129408 {
		t.Errorf("delta publishes shipped %d bytes per step, want 129408", d)
	}
	if f < 5*d {
		t.Errorf("delta publishes cut the wire bytes %.2fx (full %d, delta %d per step), want >= 5x",
			float64(f)/float64(d), f, d)
	}
}
