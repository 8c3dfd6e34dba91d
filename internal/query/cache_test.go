package query_test

// Unit tests for the epoch-keyed result cache: the epoch-claim protocol,
// the geometric invalidation rules (box intersection for range entries,
// the closed kNN ball for probe entries), the flush triggers, and the
// FIFO capacity discipline. The end-to-end proof that hits are bit-equal
// to fresh execution lives in the serve tests.

import (
	"math"
	"testing"
	"time"

	"octopus/internal/geom"
	"octopus/internal/mesh"
	"octopus/internal/query"
)

// dirtyAt is a complete dirty-log answer for (from, to] whose one
// tracked record, at epoch to, holds box.
func dirtyAt(box geom.AABB, from, to uint64) mesh.DirtySince {
	return mesh.DirtySince{Head: to, Complete: true, Recs: []mesh.DirtyRec{{Epoch: to, Tracked: true, Box: box}}}
}

// cleanTo is a complete dirty-log answer with no records up to head.
func cleanTo(head uint64) mesh.DirtySince { return mesh.DirtySince{Head: head, Complete: true} }

func TestResultCacheRangeHitProtocol(t *testing.T) {
	c := query.NewResultCache(8)
	q := geom.BoxAround(geom.Vec3{X: 1}, 0.5)

	if _, _, hit := c.GetRange(q); hit {
		t.Fatal("empty cache must miss")
	}
	c.PutRange(q, []int32{3, 1, 4}, 5)
	res, epoch, hit := c.GetRange(q)
	if !hit || epoch != 5 {
		t.Fatalf("hit=%v epoch=%d, want hit at the insertion epoch 5", hit, epoch)
	}
	if len(res) != 3 || res[0] != 3 || res[1] != 1 || res[2] != 4 {
		t.Fatalf("res = %v, want the stored [3 1 4]", res)
	}
	// Hits hand out copies: mutating the returned slice must not corrupt
	// the entry.
	res[0] = 99
	res2, _, _ := c.GetRange(q)
	if res2[0] != 3 {
		t.Fatal("cache entry aliased by a returned result")
	}

	// Advancing past the entry without touching it raises the claimed
	// epoch: the entry was checked against every dirty interval through 9.
	c.Apply(cleanTo(9))
	if _, epoch, hit := c.GetRange(q); !hit || epoch != 9 {
		t.Fatalf("after Advance: hit=%v epoch=%d, want hit at validEpoch 9", hit, epoch)
	}
	// An entry newer than validEpoch claims its own epoch.
	q2 := geom.BoxAround(geom.Vec3{X: -4}, 0.5)
	c.PutRange(q2, []int32{7}, 12)
	if _, epoch, hit := c.GetRange(q2); !hit || epoch != 12 {
		t.Fatalf("fresh entry: hit=%v epoch=%d, want its own epoch 12", hit, epoch)
	}

	st := c.Stats()
	if st.Hits != 4 || st.Misses != 1 || st.Puts != 2 {
		t.Fatalf("stats = %+v, want 4 hits / 1 miss / 2 puts", st)
	}
	if hr := st.HitRate(); hr != 0.8 {
		t.Fatalf("hit rate = %v, want 0.8", hr)
	}
}

func TestResultCachePutRejectsStaleEpoch(t *testing.T) {
	c := query.NewResultCache(8)
	c.Apply(cleanTo(10))
	q := geom.BoxAround(geom.Vec3{}, 1)
	c.PutRange(q, []int32{1}, 9) // predates validEpoch: unprovable
	if _, _, hit := c.GetRange(q); hit {
		t.Fatal("a rejected put must not be visible")
	}
	c.PutRange(q, []int32{1}, 10) // exactly validEpoch is fine
	if _, _, hit := c.GetRange(q); !hit {
		t.Fatal("a put at validEpoch must be accepted")
	}
	if st := c.Stats(); st.Rejected != 1 || st.Puts != 1 {
		t.Fatalf("stats = %+v, want 1 rejected / 1 put", st)
	}
}

func TestResultCacheRangeInvalidation(t *testing.T) {
	c := query.NewResultCache(8)
	hot := geom.Box(geom.Vec3{X: 0, Y: 0, Z: 0}, geom.Vec3{X: 1, Y: 1, Z: 1})
	far := geom.Box(geom.Vec3{X: 5, Y: 5, Z: 5}, geom.Vec3{X: 6, Y: 6, Z: 6})
	c.PutRange(hot, []int32{1}, 1)
	c.PutRange(far, []int32{2}, 1)

	// A dirty box overlapping only the hot query drops exactly it — edge
	// touch counts (inclusive bounds: a vertex on the face is in both).
	dirty := geom.Box(geom.Vec3{X: 1, Y: 1, Z: 1}, geom.Vec3{X: 2, Y: 2, Z: 2})
	c.Apply(dirtyAt(dirty, 1, 2))
	if _, _, hit := c.GetRange(hot); hit {
		t.Fatal("touched entry survived")
	}
	if _, epoch, hit := c.GetRange(far); !hit || epoch != 2 {
		t.Fatalf("untouched entry: hit=%v epoch=%d, want hit at 2", hit, epoch)
	}
	if st := c.Stats(); st.Invalidated != 1 {
		t.Fatalf("invalidated = %d, want 1", st.Invalidated)
	}
}

func TestResultCacheKNNBallInvalidation(t *testing.T) {
	c := query.NewResultCache(8)
	p := geom.Vec3{}
	// Ball of radius 2 (ball2 = 4) around the origin.
	c.PutKNN(p, 3, []int32{0, 1, 2}, 1, 4)

	// Dirty box at distance 3 (> 2): the entry provably survives.
	c.Apply(dirtyAt(geom.BoxAround(geom.Vec3{X: 4}, 1), 1, 2))
	if _, _, hit := c.GetKNN(p, 3); !hit {
		t.Fatal("entry outside the ball was invalidated")
	}
	// Dirty box at distance exactly 2: the CLOSED ball must invalidate —
	// a vertex at the k-th-best distance can displace a result under the
	// (dist, id) tie-break.
	c.Apply(dirtyAt(geom.BoxAround(geom.Vec3{X: 3}, 1), 2, 3))
	if _, _, hit := c.GetKNN(p, 3); hit {
		t.Fatal("dirty box touching the closed ball boundary must invalidate")
	}

	// A short result (fewer than k vertices in the mesh) carries an
	// infinite ball: any movement anywhere invalidates.
	c.PutKNN(p, 5, []int32{0, 1}, 3, math.Inf(1))
	c.Apply(dirtyAt(geom.BoxAround(geom.Vec3{X: 1e9}, 1), 3, 4))
	if _, _, hit := c.GetKNN(p, 5); hit {
		t.Fatal("infinite-ball entry survived a distant dirty box")
	}
	// Distinct k is a distinct key.
	c.PutKNN(p, 2, []int32{0, 1}, 4, 1)
	if _, _, hit := c.GetKNN(p, 3); hit {
		t.Fatal("k=2 entry answered a k=3 probe")
	}
}

func TestResultCacheFlushTriggers(t *testing.T) {
	q := geom.BoxAround(geom.Vec3{}, 1)
	fill := func(c *query.ResultCache) {
		c.PutRange(q, []int32{1}, 1)
		c.PutKNN(geom.Vec3{X: 9}, 2, []int32{2, 3}, 1, 0.25)
	}

	// Untracked record (a restructuring, a full publish): new vertices
	// can appear anywhere — it flushes everything.
	c := query.NewResultCache(8)
	fill(c)
	c.Apply(mesh.DirtySince{Head: 2, Complete: true, Recs: []mesh.DirtyRec{{Epoch: 2, Box: geom.EmptyBox()}}})
	if c.Len() != 0 || c.Stats().Flushes != 1 {
		t.Fatalf("structural region: %d entries, %d flushes — want 0, 1", c.Len(), c.Stats().Flushes)
	}

	// Incomplete answer: the log no longer reaches back to the cache's
	// epoch, so nothing can be proven valid.
	c = query.NewResultCache(8)
	fill(c)
	c.Apply(mesh.DirtySince{Head: 2})
	if c.Len() != 0 {
		t.Fatalf("untracked interval left %d entries", c.Len())
	}

	// A tracked record localizes however many vertices moved: only
	// intersecting entries drop.
	c = query.NewResultCache(8)
	fill(c)
	c.Apply(dirtyAt(geom.BoxAround(geom.Vec3{X: 100}, 1), 1, 2))
	if c.Len() != 2 {
		t.Fatalf("boxed overflow flushed %d entries", 2-c.Len())
	}

	// A flush keeps validEpoch.
	c.Apply(cleanTo(7))
	c.Apply(mesh.DirtySince{Head: 7})
	if c.Len() != 0 {
		t.Fatal("Flush left entries")
	}
	if st := c.Stats(); st.ValidEpoch != 7 {
		t.Fatalf("Flush moved validEpoch to %d", st.ValidEpoch)
	}
}

func TestResultCacheFIFOEviction(t *testing.T) {
	c := query.NewResultCache(2)
	qs := []geom.AABB{
		geom.BoxAround(geom.Vec3{X: 0}, 0.1),
		geom.BoxAround(geom.Vec3{X: 10}, 0.1),
		geom.BoxAround(geom.Vec3{X: 20}, 0.1),
	}
	c.PutRange(qs[0], []int32{0}, 1)
	c.PutRange(qs[1], []int32{1}, 1)
	// Refreshing the oldest keeps its FIFO slot: it is still evicted
	// first when capacity is hit.
	c.PutRange(qs[0], []int32{0, 9}, 2)
	c.PutRange(qs[2], []int32{2}, 2)
	if _, _, hit := c.GetRange(qs[0]); hit {
		t.Fatal("refreshed-in-place entry must keep its eviction slot")
	}
	for _, q := range qs[1:] {
		if _, _, hit := c.GetRange(q); !hit {
			t.Fatalf("entry %v evicted out of FIFO order", q)
		}
	}
	if st := c.Stats(); st.Evicted != 1 || st.Entries != 2 {
		t.Fatalf("stats = %+v, want 1 evicted / 2 entries", st)
	}
}

// TestCrawlCoverageAddContract pins the per-field aggregation rules the
// CrawlCoverage doc promises (and the sharded router relies on when
// merging per-shard reports): counters sum, Truncated ORs, BoundGap takes
// the max — never the sum, which could leave the [0, 1] range.
func TestCrawlCoverageAddContract(t *testing.T) {
	var cov query.CrawlCoverage
	parts := []query.CrawlCoverage{
		{Truncated: false, Visited: 10, Frontier: 0, BoundGap: 0},
		{Truncated: true, Visited: 5, Frontier: 7, BoundGap: 0.75},
		{Truncated: true, Visited: 3, Frontier: 2, BoundGap: 0.5},
	}
	for _, p := range parts {
		cov.Add(p)
	}
	if !cov.Truncated {
		t.Fatal("Truncated must OR")
	}
	if cov.Visited != 18 || cov.Frontier != 9 {
		t.Fatalf("counters = %d/%d, want 18/9 (sum)", cov.Visited, cov.Frontier)
	}
	if cov.BoundGap != 0.75 {
		t.Fatalf("BoundGap = %v, want max 0.75 — summing would give 1.25, outside [0,1]", cov.BoundGap)
	}
	if got := cov.VisitedFrac(); got != 18.0/27.0 {
		t.Fatalf("VisitedFrac = %v, want 18/27", got)
	}
}

// TestLatencyStatsNearestRank is the external half of the quantile
// bugfix regression: p99 over 100 served samples is the 99th smallest,
// not the maximum, and shed traces are excluded entirely.
func TestLatencyStatsNearestRank(t *testing.T) {
	traces := make([]query.QueryTrace, 0, 101)
	for i := 1; i <= 100; i++ {
		traces = append(traces, query.QueryTrace{Latency: time.Duration(i)})
	}
	// A shed "latency" of 1000 would dominate every percentile if counted.
	traces = append(traces, query.QueryTrace{Latency: 1000, Shed: true})
	mean, p99 := query.LatencyStats(traces, 0.99)
	if p99 != 99 {
		t.Fatalf("p99 = %v, want 99 (nearest rank over served queries only)", p99)
	}
	if mean != 50 {
		t.Fatalf("mean = %v, want 50 (sheds excluded; 5050/100 truncates to 50)", mean)
	}
	if _, p50 := query.LatencyStats(traces[:2], 0.5); p50 != 1 {
		t.Fatalf("median of two = %v, want the lower sample", p50)
	}
}

// TestResultCacheEvictAfterInvalidateRePut is the regression test for the
// FIFO aging bug: an entry invalidated by Apply and then re-Put used to
// append its key to the FIFO a second time, so the eviction scan popped
// the stale slot, found the key live, and evicted the freshly re-inserted
// entry as if it were the oldest. Slot sequence numbers make the stale
// slot read as dead, so eviction falls through to the true oldest.
func TestResultCacheEvictAfterInvalidateRePut(t *testing.T) {
	c := query.NewResultCache(2)
	qa := geom.BoxAround(geom.Vec3{X: 0}, 0.1)
	qb := geom.BoxAround(geom.Vec3{X: 10}, 0.1)
	qc := geom.BoxAround(geom.Vec3{X: 20}, 0.1)

	c.PutRange(qa, []int32{0}, 0)
	c.PutRange(qb, []int32{1}, 0)
	// A dirty box over qa invalidates only that entry.
	c.Apply(dirtyAt(qa, 0, 1))
	if _, _, hit := c.GetRange(qa); hit {
		t.Fatal("dirtied entry must be invalidated")
	}
	// Re-insert qa: it is now the NEWEST entry, but its key still has a
	// stale slot at the front of the FIFO.
	c.PutRange(qa, []int32{0}, 1)
	// Capacity eviction must drop qb (the oldest live entry), not the
	// just-re-inserted qa.
	c.PutRange(qc, []int32{2}, 1)
	if _, _, hit := c.GetRange(qa); !hit {
		t.Fatal("freshly re-inserted entry evicted through its stale FIFO slot")
	}
	if _, _, hit := c.GetRange(qb); hit {
		t.Fatal("oldest live entry survived eviction")
	}
	if _, _, hit := c.GetRange(qc); !hit {
		t.Fatal("newest entry missing")
	}
}
