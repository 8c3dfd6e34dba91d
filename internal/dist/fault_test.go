package dist_test

import (
	"strings"
	"testing"
	"time"

	"octopus/internal/dist"
	"octopus/internal/geom"
	"octopus/internal/query"
	"octopus/internal/shard"
	"octopus/internal/sim"
)

// faultPolicy keeps the drills fast: tight backoff, short per-attempt
// deadline, the default three attempts.
func faultPolicy() dist.RetryPolicy {
	return dist.RetryPolicy{Attempts: 3, Backoff: 100 * time.Microsecond, Deadline: time.Second}
}

// buildSides fills a harness's two sides (in-process router and cluster)
// without serving it — the fault tests pick their own transport wiring.
func buildSides(t *testing.T, h *harness, k int, ec engineCase) {
	t.Helper()
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
}

// newFaultHarness builds a loopback-served cluster whose servers can be
// killed, plus a router under the fast fault policy.
func newFaultHarness(t *testing.T) (*harness, *dist.Loopback) {
	t.Helper()
	ec := engineCases()[1] // OCTOPUS
	h := &harness{m1: buildBoxTet(t, 6, 1.0/6), m2: buildBoxTet(t, 6, 1.0/6)}
	buildSides(t, h, 3, ec)
	lb := dist.NewLoopback()
	addrs := h.cl.ServeLoopback(lb)
	h.rt = dist.NewRouter(lb, addrs, faultPolicy())
	t.Cleanup(func() {
		h.rt.Close()
		h.cl.Close()
	})
	return h, lb
}

// soloBox finds a query box whose fan-out plan names exactly one shard
// other than avoid — queries there must keep working while avoid is
// dead. Returns ok=false when the shard boxes overlap too much for one
// to be isolated (then that sub-check is skipped).
func soloBox(h *harness, avoid int) (geom.AABB, bool) {
	sums := h.cl.Mesh().Partition().Summaries(nil)
	for s := range sums {
		if s == avoid {
			continue
		}
		cand := geom.BoxAround(sums[s].Box.Center(), 0.01)
		if plan := shard.PlanRangeFanout(sums, cand, nil); len(plan) == 1 && plan[0] == s {
			return cand, true
		}
	}
	return geom.AABB{}, false
}

// TestDistFaultDrillKilledShard: with one shard server dead, every query
// that needs it must return an honest error — never a silently narrowed
// result — with the retry trail visible in the stats; after a revival
// the same router serves exact answers again.
func TestDistFaultDrillKilledShard(t *testing.T) {
	h, lb := newFaultHarness(t)
	if err := h.rt.Refresh(); err != nil {
		t.Fatal(err)
	}
	bounds := h.m1.Bounds()
	victim := h.cl.Addrs()[1]
	lb.Kill(victim)

	// The whole-bounds range query needs every shard, the dead one
	// included: it must fail, and the result must be empty, not partial.
	ids, _, err := h.rt.Range(bounds, nil)
	if err == nil {
		t.Fatal("range over a dead shard succeeded")
	}
	if !dist.IsTransportError(err) {
		t.Fatalf("killed-shard failure is not a transport error: %v", err)
	}
	if !strings.Contains(err.Error(), "shard 1") || !strings.Contains(err.Error(), "after 3 attempts") {
		t.Fatalf("terminal error does not name the shard and the retry count: %v", err)
	}
	if len(ids) != 0 {
		t.Fatalf("failed range returned %d ids — a partial result presented alongside an error", len(ids))
	}

	// A kNN with k = V must visit every shard: same honest failure.
	nn, _, err := h.rt.KNN(bounds.Center(), h.m1.NumVertices(), nil)
	if err == nil {
		t.Fatal("kNN over a dead shard succeeded")
	}
	if len(nn) != 0 {
		t.Fatalf("failed kNN returned %d ids", len(nn))
	}

	// Two failed fan-outs, three attempts each: four recorded retries.
	if st := h.rt.Stats(); st.Retries < 4 {
		t.Fatalf("expected >= 4 transport retries, got %+v", st)
	}

	// Queries whose plan avoids the dead shard keep being served exactly.
	if box, ok := soloBox(h, 1); ok {
		ids, _, err = h.rt.Range(box, nil)
		if err != nil {
			t.Fatalf("range avoiding the dead shard failed: %v", err)
		}
		if d := query.Diff(ids, query.BruteForce(h.m1, box)); d != "" {
			t.Fatalf("range avoiding the dead shard is wrong: %s", d)
		}
	}

	// Revive: the router recovers with no reconstruction (it is
	// stateless; the connection redials lazily).
	lb.Revive(victim)
	ids, _, err = h.rt.Range(bounds, nil)
	if err != nil {
		t.Fatalf("range after revival failed: %v", err)
	}
	if d := query.Diff(ids, query.BruteForce(h.m1, bounds)); d != "" {
		t.Fatalf("range after revival is wrong: %s", d)
	}
}

// TestDistFaultDrillTransientOutage: a shard that comes back while the
// router is still retrying costs retries, not correctness — the bounded
// backoff absorbs the outage and the answer is exact.
func TestDistFaultDrillTransientOutage(t *testing.T) {
	h, lb := newFaultHarness(t)
	// Generous retry budget so the revival always lands inside it.
	rt := dist.NewRouter(lb, h.cl.Addrs(), dist.RetryPolicy{
		Attempts: 50, Backoff: time.Millisecond, Deadline: time.Second,
	})
	defer rt.Close()
	if err := rt.Refresh(); err != nil {
		t.Fatal(err)
	}

	victim := h.cl.Addrs()[2]
	lb.Kill(victim)
	// The outage lasts until the router has paid for it once: it has to
	// outlast the two healthy legs the plan runs first, and no fixed
	// sleep does that reliably (a GC cycle under -race stretches a leg
	// from 0.4 ms to several).
	revived := make(chan struct{})
	go func() {
		defer close(revived)
		for rt.Stats().Retries == 0 {
			time.Sleep(100 * time.Microsecond)
		}
		lb.Revive(victim)
	}()

	bounds := h.m1.Bounds()
	ids, _, err := rt.Range(bounds, nil)
	if err != nil {
		t.Fatalf("range across the transient outage failed: %v", err)
	}
	if d := query.Diff(ids, query.BruteForce(h.m1, bounds)); d != "" {
		t.Fatalf("range across the transient outage is wrong: %s", d)
	}
	if st := rt.Stats(); st.Retries == 0 {
		t.Fatalf("outage left no retry trail: %+v", st)
	}
	<-revived
}

// TestDistFaultDrillTCPKill: the same drill over real sockets — kill one
// shard's TCP server mid-run (listener and live connections) and the
// router must degrade honestly, naming the shard once its retries are
// spent.
func TestDistFaultDrillTCPKill(t *testing.T) {
	ec := engineCases()[1]
	h := &harness{m1: buildBoxTet(t, 6, 1.0/6), m2: buildBoxTet(t, 6, 1.0/6)}
	buildSides(t, h, 3, ec)
	addrs, err := h.cl.ServeTCP()
	if err != nil {
		t.Fatal(err)
	}
	defer h.cl.Close()
	h.rt = dist.NewRouter(&dist.TCPTransport{DialTimeout: 200 * time.Millisecond}, addrs,
		dist.RetryPolicy{Attempts: 2, Backoff: 100 * time.Microsecond, Deadline: time.Second})
	defer h.rt.Close()

	bounds := h.m1.Bounds()
	ids, _, err := h.rt.Range(bounds, nil)
	if err != nil {
		t.Fatal(err)
	}
	if d := query.Diff(ids, query.BruteForce(h.m1, bounds)); d != "" {
		t.Fatalf("healthy TCP range is wrong: %s", d)
	}

	h.cl.KillShard(0)
	ids, _, err = h.rt.Range(bounds, nil)
	if err == nil {
		t.Fatal("range over a killed TCP shard succeeded")
	}
	if !strings.Contains(err.Error(), "shard 0") {
		t.Fatalf("terminal error does not name the dead shard: %v", err)
	}
	if len(ids) != 0 {
		t.Fatalf("failed range returned %d ids", len(ids))
	}
}

// TestDistPipelineOverRemote: a query.Pipeline drives the distributed
// engine like a local one — the Cluster stands in as the DeformableMesh,
// publishes ride the control plane, and every healthy result is exact.
// The identity deformation keeps positions constant across epochs, so
// every result must equal brute force regardless of which epoch its
// query pinned.
func TestDistPipelineOverRemote(t *testing.T) {
	h, _ := newFaultHarness(t)
	eng := dist.NewEngine(h.rt, h.cl)

	queries := equivQueries(h.m2, 51)
	probes := equivProbes(h.m2, 52)
	p := &query.Pipeline{
		Engine:   eng,
		Mesh:     h.cl,
		Deform:   func(step int, pos []geom.Vec3) {},
		Tick:     time.Millisecond,
		Workers:  2,
		MinSteps: 3,
		MaxSteps: 8,
	}
	report := p.Run(queries, probes)

	if err := h.cl.Err(); err != nil {
		t.Fatalf("healthy run latched a control-plane error: %v", err)
	}
	if report.Degraded != 0 {
		t.Fatalf("healthy run reported %d degraded queries", report.Degraded)
	}
	for i, tr := range report.RangeTraces {
		if tr.Err != nil {
			t.Fatalf("range %d: unexpected degraded trace: %v", i, tr.Err)
		}
	}
	for i, res := range report.RangeResults {
		if d := query.Diff(append([]int32(nil), res...), query.BruteForce(h.m2, queries[i])); d != "" {
			t.Fatalf("pipeline range %d: %s", i, d)
		}
	}
	for i, res := range report.KNNResults {
		if want := query.BruteForceKNN(h.m2, probes[i].P, probes[i].K); !equalIDs(res, want) {
			t.Fatalf("pipeline probe %d: got %v want %v", i, res, want)
		}
	}
	if report.Steps < p.MinSteps {
		t.Fatalf("pipeline published %d steps, want >= %d", report.Steps, p.MinSteps)
	}
}

// TestDistPipelineDegradedHonest: the same pipeline with a shard killed
// before the run — every query needing that shard must surface
// QueryTrace.Err with an empty result (and count into Degraded), and the
// writer's first publish must latch the cluster error. No wrong answers,
// no partial results.
func TestDistPipelineDegradedHonest(t *testing.T) {
	h, lb := newFaultHarness(t)
	eng := dist.NewEngine(h.rt, h.cl)
	lb.Kill(h.cl.Addrs()[1])

	// The whole-bounds workload guarantees every query needs the dead
	// shard.
	bounds := h.m2.Bounds()
	queries := []geom.AABB{bounds, bounds, bounds, bounds}
	probes := []query.KNNQuery{{P: bounds.Center(), K: h.m2.NumVertices()}}
	p := &query.Pipeline{
		Engine:   eng,
		Mesh:     h.cl,
		Deform:   (&sim.NoiseDeformer{Amplitude: 0.01, Frequency: 1, Seed: 3}).Step,
		Workers:  2,
		MinSteps: 1,
		MaxSteps: 2,
	}
	report := p.Run(queries, probes)

	if err := h.cl.Err(); err == nil {
		t.Fatal("publish to a dead shard did not latch a cluster error")
	}
	want := int64(len(queries) + len(probes))
	if report.Degraded != want {
		t.Fatalf("report.Degraded = %d, want %d (every query needs the dead shard)", report.Degraded, want)
	}
	traces := append(append([]query.QueryTrace(nil), report.RangeTraces...), report.KNNTraces...)
	for i, tr := range traces {
		if tr.Err == nil {
			t.Fatalf("trace %d: query over a dead shard has no error", i)
		}
	}
	for i, res := range report.RangeResults {
		if len(res) != 0 {
			t.Fatalf("degraded range %d returned %d ids — partial results must not survive", i, len(res))
		}
	}
	for i, res := range report.KNNResults {
		if len(res) != 0 {
			t.Fatalf("degraded probe %d returned %d ids", i, len(res))
		}
	}
}
