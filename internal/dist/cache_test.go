package dist_test

import (
	"fmt"
	"sync"
	"testing"

	"octopus/internal/dist"
	"octopus/internal/mesh"
	"octopus/internal/query"
	"octopus/internal/sim"
)

// The router-side result cache: hits must cost zero network traffic,
// every hit must replay bit-equal to recomputation at the epoch it
// claims, and delta-publish dirty boxes must invalidate precisely.

// TestDistRouterCacheZeroRPCOnHit: replaying an identical workload
// through a cache-enabled router answers every query from memory — the
// wire counters must not move at all across the second pass.
func TestDistRouterCacheZeroRPCOnHit(t *testing.T) {
	build := func(t *testing.T) *mesh.Mesh { return buildBoxTet(t, 6, 1.0/6) }
	h := newHarness(t, build, 3, engineCases()[1], transportLoopback)
	h.rt.EnableCache(0)

	queries := equivQueries(h.m1, 61)
	probes := equivProbes(h.m1, 62)

	run := func() (rs [][]int32, ks [][]int32) {
		for _, q := range queries {
			got, _, err := h.rt.Range(q, nil)
			if err != nil {
				t.Fatal(err)
			}
			rs = append(rs, got)
		}
		for _, p := range probes {
			got, _, err := h.rt.KNN(p.P, p.K, nil)
			if err != nil {
				t.Fatal(err)
			}
			ks = append(ks, got)
		}
		return rs, ks
	}

	r1, k1 := run()
	before := h.rt.WireStats()
	r2, k2 := run()
	after := h.rt.WireStats()

	if before.Total() != after.Total() {
		t.Fatalf("cache hits touched the network: %+v -> %+v", before.Total(), after.Total())
	}
	n := int64(len(queries) + len(probes))
	if st := h.rt.Stats(); st.CacheHits != n {
		t.Fatalf("second pass scored %d cache hits, want %d", st.CacheHits, n)
	}
	if cs := h.rt.CacheStats(); cs.Hits != n || cs.Misses != n {
		t.Fatalf("cache counters %+v, want %d hits / %d misses", cs, n, n)
	}
	for i := range r1 {
		if d := query.Diff(r2[i], r1[i]); d != "" {
			t.Fatalf("range %d: cached replay differs: %s", i, d)
		}
	}
	for i := range k1 {
		if !equalIDs(k2[i], k1[i]) {
			t.Fatalf("kNN %d: cached replay differs: %v vs %v", i, k2[i], k1[i])
		}
	}
}

// TestDistRouterCacheCoherentUnderDeform: the same query set replays
// every published step; SyncCache pulls the delta publishes' dirty boxes
// and invalidates exactly the touched entries. Every answer — cached or
// recomputed — must match the in-process router and brute force at the
// step's epoch, and both hits and invalidations must actually occur (a
// cache that silently flushes everything would also pass the equality
// checks).
func TestDistRouterCacheCoherentUnderDeform(t *testing.T) {
	const steps = 4
	build := func(t *testing.T) *mesh.Mesh { return buildBoxTet(t, 6, 1.0/6) }
	h := newHarness(t, build, 3, engineCases()[1], transportLoopback)
	h.rt.EnableCache(0)
	cur := h.r1.NewCursor()
	defer cur.Close()
	knn := cur.(query.KNNCursor)

	// A small blob: most of the cube is untouched each step, so entries
	// both survive (hits) and die (invalidations) every round.
	d := &sim.BlobDeformer{Radius: 0.2, Amplitude: 0.02, Seed: 3}
	queries := equivQueries(h.m1, 71)
	probes := equivProbes(h.m1, 72)

	h.checkAll(t, "epoch 0", cur, knn, queries, probes, 0)
	for step := 0; step < steps; step++ {
		h.deform(t, d, step)
		h.maintain(t)
		if err := h.rt.SyncCache(); err != nil {
			t.Fatalf("step %d: sync cache: %v", step, err)
		}
		h.checkAll(t, fmt.Sprintf("step %d", step), cur, knn, queries, probes, uint64(step+1))
	}

	cs := h.rt.CacheStats()
	if cs.Hits == 0 {
		t.Fatal("no entry survived any delta publish: invalidation is too coarse")
	}
	if cs.Invalidated == 0 {
		t.Fatal("no entry was invalidated across deforming steps: invalidation is broken")
	}
	if cs.Flushes != 0 {
		t.Fatalf("delta-published steps flushed the cache %d times; flushes are for untracked publishes", cs.Flushes)
	}
	if cs.ValidEpoch != steps {
		t.Fatalf("cache valid epoch %d after %d synced steps", cs.ValidEpoch, steps)
	}
}

// TestDistRouterCacheFullPublishFlushes: a full publish carries no dirty
// box (nobody enumerated the movers), so the sync must flush the cache
// wholesale — correctness before precision.
func TestDistRouterCacheFullPublishFlushes(t *testing.T) {
	build := func(t *testing.T) *mesh.Mesh { return buildBoxTet(t, 6, 1.0/6) }
	h := newHarness(t, build, 3, engineCases()[1], transportLoopback)
	h.rt.EnableCache(0)
	cur := h.r1.NewCursor()
	defer cur.Close()
	knn := cur.(query.KNNCursor)

	queries := equivQueries(h.m1, 81)
	probes := equivProbes(h.m1, 82)
	h.checkAll(t, "epoch 0", cur, knn, queries, probes, 0)

	noise := &sim.NoiseDeformer{Amplitude: 0.03, Frequency: 2, Seed: 11}
	h.deform(t, noise, 0) // overflow: full publish, untracked log record
	h.maintain(t)
	if err := h.rt.SyncCache(); err != nil {
		t.Fatal(err)
	}
	cs := h.rt.CacheStats()
	if cs.Flushes == 0 {
		t.Fatal("full publish did not flush the cache")
	}
	if cs.Entries != 0 {
		t.Fatalf("%d entries survived an untracked full publish", cs.Entries)
	}
	h.checkAll(t, "after flush", cur, knn, queries, probes, 1)
}

// TestDistRouterCacheLogWrapFlushesOnce: a router that syncs only after
// DirtyLogCap+1 delta publishes asks from an epoch the servers' logs no
// longer hold. The answer is incomplete, so the sync flushes exactly once
// — every publish was tracked — and the refilled cache's next hits are
// bit-equal to fresh queries at the head.
func TestDistRouterCacheLogWrapFlushesOnce(t *testing.T) {
	build := func(t *testing.T) *mesh.Mesh { return buildBoxTet(t, 5, 1.0/5) }
	h := newHarness(t, build, 3, engineCases()[0], transportLoopback)
	h.rt.EnableCache(0)
	cur := h.r1.NewCursor()
	defer cur.Close()
	knn := cur.(query.KNNCursor)

	queries := equivQueries(h.m1, 91)
	probes := equivProbes(h.m1, 92)
	h.checkAll(t, "epoch 0", cur, knn, queries, probes, 0)

	const steps = mesh.DirtyLogCap + 1
	d := &sim.BlobDeformer{Radius: 0.15, Amplitude: 0.001, Seed: 5}
	for step := 0; step < steps; step++ {
		h.deform(t, d, step)
	}
	h.maintain(t)
	if err := h.rt.SyncCache(); err != nil {
		t.Fatal(err)
	}
	cs := h.rt.CacheStats()
	if cs.Flushes != 1 || cs.Entries != 0 || cs.ValidEpoch != steps {
		t.Fatalf("sync after %d publishes: %+v, want one flush, no entries, valid at %d", steps, cs, steps)
	}
	h.checkAll(t, "refill", cur, knn, queries, probes, steps)
	hits := h.rt.Stats().CacheHits
	h.checkAll(t, "replay", cur, knn, queries, probes, steps)
	if got, want := h.rt.Stats().CacheHits-hits, int64(len(queries)+len(probes)); got != want {
		t.Fatalf("replay scored %d cache hits, want %d", got, want)
	}
	if cs := h.rt.CacheStats(); cs.Flushes != 1 {
		t.Fatalf("%d flushes, want the one from the wrapped log", cs.Flushes)
	}
}

// TestDistCacheConcurrentRouters: several cache-enabled routers serve
// the same cluster concurrently over TCP (the multiplexed wire), each
// replaying the workload twice. Every answer must match the in-process
// reference — zero wrong answers — and each router's second pass must
// run entirely from its own cache.
func TestDistCacheConcurrentRouters(t *testing.T) {
	const routers = 4
	build := func(t *testing.T) *mesh.Mesh { return buildBoxTet(t, 6, 1.0/6) }
	h := newHarness(t, build, 3, engineCases()[1], transportTCP)

	queries := equivQueries(h.m1, 91)
	probes := equivProbes(h.m1, 92)
	cur := h.r1.NewCursor()
	knn := cur.(query.KNNCursor)
	wantRange := make([][]int32, len(queries))
	for i, q := range queries {
		wantRange[i] = append([]int32(nil), cur.Query(q, nil)...)
	}
	wantKNN := make([][]int32, len(probes))
	for i, p := range probes {
		wantKNN[i] = append([]int32(nil), knn.KNN(p.P, p.K, nil)...)
	}
	cur.Close()

	addrs := h.cl.Addrs()
	var wg sync.WaitGroup
	errs := make(chan error, routers)
	for r := 0; r < routers; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			rt := dist.NewRouter(&dist.TCPTransport{}, addrs, dist.RetryPolicy{})
			defer rt.Close()
			rt.EnableCache(0)
			for pass := 0; pass < 2; pass++ {
				for i, q := range queries {
					got, _, err := rt.Range(q, nil)
					if err != nil {
						errs <- fmt.Errorf("router %d pass %d: %w", r, pass, err)
						return
					}
					if d := query.Diff(got, append([]int32(nil), wantRange[i]...)); d != "" {
						errs <- fmt.Errorf("router %d pass %d range %d: %s", r, pass, i, d)
						return
					}
				}
				for i, p := range probes {
					got, _, err := rt.KNN(p.P, p.K, nil)
					if err != nil {
						errs <- fmt.Errorf("router %d pass %d: %w", r, pass, err)
						return
					}
					if !equalIDs(got, wantKNN[i]) {
						errs <- fmt.Errorf("router %d pass %d probe %d: %v != %v", r, pass, i, got, wantKNN[i])
						return
					}
				}
			}
			n := int64(len(queries) + len(probes))
			if cs := rt.CacheStats(); cs.Hits != n {
				errs <- fmt.Errorf("router %d: second pass hit %d of %d", r, cs.Hits, n)
			}
		}(r)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}
