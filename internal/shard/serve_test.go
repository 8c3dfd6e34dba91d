package shard

// Serving-layer tests for the sharded router: the kNN-side coverage
// merge (CrawlCoverage.Add's per-field contract across shards) plus the
// invalidation-ball report, and cache replay-exactness through the live
// sharded pipeline — a cache hit at a pinned epoch must be bit-equal to
// re-executing the query at that epoch, with invalidations driven by the
// per-shard dirty-region stream.

import (
	"testing"

	"octopus/internal/core"
	"octopus/internal/geom"
	"octopus/internal/mesh"
	"octopus/internal/query"
	"octopus/internal/sim"
)

// TestShardedKNNCoverageMergeAndBound checks the router cursor's two
// per-query reports on the kNN path. Exact mode: zero coverage and an
// invalidation ball equal to the k-th result's squared distance. Budgeted
// mode: the merged coverage follows Add's contract — Truncated ORs,
// Visited sums across shards (so it exceeds any single shard's budget),
// and BoundGap takes the max, staying inside [0, 1] where a summing
// merge over several truncated shards would overflow it.
func TestShardedKNNCoverageMergeAndBound(t *testing.T) {
	m := buildBoxTet(t, 10, 1.0/10)
	router := routerOver(t, m, 4)
	cur, ok := router.NewCursor().(*Cursor)
	if !ok {
		t.Fatal("router cursor type")
	}
	p := m.Bounds().Center()
	const k = 12

	exact := cur.KNN(p, k, nil)
	if len(exact) != k {
		t.Fatalf("exact kNN returned %d results, want %d", len(exact), k)
	}
	if cov := cur.LastCoverage(); cov.Truncated || cov.Frontier != 0 || cov.BoundGap != 0 {
		t.Fatalf("exact kNN reports truncation: %+v", cov)
	}
	ball2, okB := cur.LastKNNBound2()
	if !okB {
		t.Fatal("exact kNN did not report an invalidation ball")
	}
	if want := m.Position(exact[k-1]).Dist2(p); ball2 != want {
		t.Fatalf("ball2 = %v, want the k-th result's squared distance %v", ball2, want)
	}

	const budget = 16
	cur.SetBudget(query.CrawlBudget{MaxVisited: budget})
	res := cur.KNN(p, k, nil)
	if len(res) == 0 {
		t.Fatal("budgeted kNN returned nothing")
	}
	cov := cur.LastCoverage()
	if !cov.Truncated {
		t.Fatal("budgeted kNN did not report Truncated (the OR across shards)")
	}
	// The probe at the domain center fans several shards; each crawl is
	// individually capped at `budget` visits, so a merged count well past
	// one budget proves Visited sums across the per-shard reports.
	if cov.Visited <= 2*budget {
		t.Fatalf("merged Visited = %d, want > %d (sum over multiple capped shard crawls)", cov.Visited, 2*budget)
	}
	if cov.Frontier <= 0 {
		t.Fatalf("merged Frontier = %d, want > 0 after truncation", cov.Frontier)
	}
	// Several shards truncated with positive gaps: a sum would exceed 1,
	// the max cannot.
	if cov.BoundGap <= 0 || cov.BoundGap > 1 {
		t.Fatalf("merged BoundGap = %v, want in (0, 1] (max across shards)", cov.BoundGap)
	}
	if _, okB := cur.LastKNNBound2(); !okB {
		t.Fatal("budgeted kNN lost the invalidation-ball report")
	}

	cur.SetBudget(query.CrawlBudget{})
	back := cur.KNN(p, k, nil)
	if !equalIDs(back, exact) {
		t.Fatalf("zero budget not exact: got %v want %v", back, exact)
	}
	if cov := cur.LastCoverage(); cov.Truncated || cov.BoundGap != 0 {
		t.Fatalf("restored-exact kNN reports truncation: %+v", cov)
	}
}

// TestShardedCacheReplayExactness runs the live sharded pipeline (K=4,
// per-shard OCTOPUS engines and maintenance targets) over a workload that
// repeats every query three times with the result cache on. Every result
// — cached hits included — must equal brute force over the replayed
// positions at the epoch its trace claims, which exercises the whole
// serving chain: per-shard dirty regions flowing through the scheduler's
// observer into cache.Advance, the epoch-claim protocol, and the router
// cursor's invalidation-ball report gating kNN fills.
func TestShardedCacheReplayExactness(t *testing.T) {
	const seed = 47
	m := buildBoxTet(t, 7, 1.0/7)
	orig := append([]geom.Vec3(nil), m.Positions()...)
	sm, err := NewMesh(m, 4, Options{})
	if err != nil {
		t.Fatal(err)
	}
	router := NewRouter(sm, func(sub *mesh.Mesh) query.ParallelKNNEngine { return core.New(sub) })

	d := &sim.NoiseDeformer{Amplitude: 0.03, Frequency: 2, Seed: seed}
	var base []geom.AABB
	for i := 0; i < 12; i++ {
		base = append(base, geom.BoxAround(orig[(i*37)%len(orig)], 0.12+0.02*float64(i%5)))
	}
	baseProbes := make([]query.KNNQuery, 6)
	for i := range baseProbes {
		baseProbes[i] = query.KNNQuery{P: orig[(i*53)%len(orig)], K: 1 + i%7}
	}
	var queries []geom.AABB
	var probes []query.KNNQuery
	for rep := 0; rep < 3; rep++ {
		queries = append(queries, base...)
		probes = append(probes, baseProbes...)
	}

	pl := &query.Pipeline{
		Engine:   router,
		Mesh:     sm,
		Deform:   d.Step,
		Workers:  4,
		MinSteps: 3,
		// Crawl-exactness horizon for this amplitude: the accumulated
		// deformation first strands a query box past the crawl's reach at
		// epoch 13 (measured by sweeping the base workload per epoch
		// against brute force), so the writer must stop at 12.
		MaxSteps:  12,
		CacheSize: 512,
	}
	report := pl.Run(queries, probes)
	if report.Steps < 3 {
		t.Fatalf("writer published %d steps, want >= 3", report.Steps)
	}

	cached := 0
	for i, res := range report.RangeResults {
		tr := report.RangeTraces[i]
		if tr.Cached {
			cached++
		}
		pos := replayPositions(orig, seed, tr.Epoch)
		want := query.ScanPositions(pos, queries[i], nil)
		if df := query.Diff(append([]int32(nil), res...), want); df != "" {
			t.Fatalf("range %d at epoch %d (cached=%v): %s", i, tr.Epoch, tr.Cached, df)
		}
	}
	for i, res := range report.KNNResults {
		tr := report.KNNTraces[i]
		if tr.Cached {
			cached++
		}
		pos := replayPositions(orig, seed, tr.Epoch)
		want := query.ScanKNNPositions(pos, probes[i].P, probes[i].K, nil)
		if !equalIDs(res, want) {
			t.Fatalf("kNN %d at epoch %d (cached=%v): got %v want %v", i, tr.Epoch, tr.Cached, res, want)
		}
	}

	cs := pl.CacheStats()
	if cs.Hits == 0 {
		t.Fatalf("no cache hits on a 3x-repeated workload: %+v", cs)
	}
	if int64(cached) != cs.Hits {
		t.Fatalf("%d cached traces vs %d recorded hits", cached, cs.Hits)
	}
	t.Logf("sharded cache: %d hits / %d misses (%.0f%%), %d invalidated, %d flushes",
		cs.Hits, cs.Misses, 100*cs.HitRate(), cs.Invalidated, cs.Flushes)
}
