package core

import (
	"math"
	"time"

	"octopus/internal/geom"
	"octopus/internal/mesh"
	"octopus/internal/query"
)

// cursorOwner is the engine side of the cursor contract: the engine
// executes a query against its immutable index state using the cursor's
// private scratch, and folds the cursor's accumulated statistics back into
// its resident totals when the cursor is closed.
type cursorOwner interface {
	queryWith(cur *Cursor, q geom.AABB, out []int32) []int32
	knnWith(cur *Cursor, p geom.Vec3, k int, out []int32) []int32
	mergeStats(s Stats)
}

// Cursor is the per-worker mutable state of a query: the crawl scratch
// (mark array, kNN frontier — the range BFS queues in the caller's out),
// the seed buffer, the crawl budget and a local Stats accumulator. The
// engine that created a cursor holds only immutable index state at query
// time, and the block boxes a query reads belong to the position buffer
// it pinned, so any number of cursors over the same engine may execute
// queries concurrently — one cursor per goroutine.
//
// A Cursor is not safe for concurrent use; it is cheap enough to create
// one per worker: nothing is allocated until its first seeded crawl, which
// sizes the mark array to the mesh (4 bytes per vertex); the other buffers
// grow to roughly the largest result set the worker has seen.
type Cursor struct {
	owner cursorOwner
	crawler
	seeds []int32
	stats Stats

	// blocks is the heap of the exact probe's nearest-first searches over
	// its two levels of boxes (probe.go): the kNN start search and the
	// probe that resumes it, and the start searches of a no-seed range
	// query. aside holds the leaves the kNN start search scanned or left
	// beyond its bound, for the probe to push back.
	blocks []heapItem
	aside  []heapItem

	// epoch is the position snapshot of the query in flight: beginQuery
	// pins the mesh's head epoch (crawler.pos becomes the pinned buffer)
	// and endQuery releases it. It remains readable after the query as
	// LastEpoch — the state the last result set was consistent with.
	epoch uint64

	// kbest is the bounded k-candidate max-heap of the kNN crawl (DESIGN.md
	// §8): it holds the k closest vertices found so far and its Bound is
	// the crawl's stop radius. The crawls and the surface probe all feed
	// the heap, and a vertex occupying two slots would evict a legitimate
	// candidate: the probe skips the vertices the first crawl marked, and
	// the fold crawl skips those the probe covers. knnIdx is the surface
	// index the probe covers, nil while nothing is probed.
	kbest  query.KBest
	knnIdx *mesh.SurfaceIndex

	// knnBound2/knnBoundOK record the k-th-best squared distance of the
	// last kNN before AppendSorted drains the heap (Bound reads the heap
	// root, so it must be captured pre-drain). Surfaced as LastKNNBound2.
	knnBound2  float64
	knnBoundOK bool

	// knnKeep and knnCeiling2 restrict what a kNN offers to its result
	// (RestrictKNN): only vertices v with knnKeep[v] (every vertex when
	// nil) and at squared distance at most knnCeiling2 (+Inf: no ceiling).
	knnKeep     []bool
	knnCeiling2 float64
}

func newCursor(owner cursorOwner, m *mesh.Mesh) *Cursor {
	return &Cursor{owner: owner, crawler: crawler{m: m}, knnCeiling2: math.Inf(1)}
}

// RestrictKNN implements query.KNNRestrictor: the cursor's later kNN
// queries rank only the vertices v with keep[v] whose squared distance
// is at most ceiling2, and return fewer than k when fewer qualify. The
// probe and the crawl still read and cross every vertex; only what they
// offer to the result is filtered. On OCTOPUS the ceiling also caps the
// k-th-best bound the probe and the crawl stop at; CON, with no probe to
// offer what its crawl cannot reach, cuts its answer at the ceiling
// instead. keep nil and ceiling2 = +Inf lift the restriction; ceiling2 is
// never NaN.
// keep is read, never written, and must cover every vertex of the mesh.
func (c *Cursor) RestrictKNN(keep []bool, ceiling2 float64) {
	c.knnKeep, c.knnCeiling2 = keep, ceiling2
}

// SetBudget implements query.BudgetedCursor.
func (c *Cursor) SetBudget(b query.CrawlBudget) { c.budget = b }

// beginQuery installs the position view for one query and returns it:
// the mesh's head epoch is pinned for the duration of the query so no
// concurrent Deform can rewrite the buffer mid-read. Every call is paired
// with an endQuery.
func (c *Cursor) beginQuery(m *mesh.Mesh) []geom.Vec3 {
	c.epoch, c.pos = m.PinPositions()
	return c.pos
}

// endQuery releases the pin taken by beginQuery.
func (c *Cursor) endQuery(m *mesh.Mesh) { m.UnpinPositions(c.epoch) }

// beginRange opens a range query on the cursor's mesh: it counts the
// query, arms the crawl budget, empties the seed buffer and pins the
// positions (beginQuery), which it returns.
func (c *Cursor) beginRange() []geom.Vec3 {
	c.stats.Queries++
	c.armCrawl()
	c.seeds = c.seeds[:0]
	return c.beginQuery(c.m)
}

// crawlRange is the last phase of a range query opened by beginRange:
// the crawl from the seeds, appended to out (whose first before entries
// are the caller's), timed from t. It releases the pin.
func (c *Cursor) crawlRange(q geom.AABB, out []int32, before int, t time.Time) []int32 {
	out = c.crawl(q, c.seeds, out)
	c.endQuery(c.m)
	c.stats.Crawl += time.Since(t)
	c.stats.Results += int64(len(out) - before)
	return out
}

// SeedProbe is a surface probe that QuerySeeded runs in place of the
// engine's. Probe appends the vertices it finds inside q to seeds, reading
// the pinned positions pos, and returns them with the vertex a walk starts
// from when it found none (-1: no walk).
type SeedProbe interface {
	Probe(q geom.AABB, pos []geom.Vec3, seeds []int32) ([]int32, int32)
}

// QuerySeeded answers q like Query with probe in place of the surface
// probe. When the probe finds no seed, the plain greedy walk from its
// start seeds the crawl, and a stall answers nothing: no retry, no scan
// (the paper's walk). Budget and statistics are Query's, except that
// ProbeChecked counts nothing; it allocates nothing the probe does not.
func (c *Cursor) QuerySeeded(q geom.AABB, probe SeedProbe, out []int32) []int32 {
	before := len(out)
	t0 := time.Now()
	pos := c.beginRange()
	var start int32
	c.seeds, start = probe.Probe(q, pos, c.seeds)
	t1 := time.Now()
	c.stats.SurfaceProbe += t1.Sub(t0)
	if len(c.seeds) == 0 && start >= 0 {
		c.stats.DirectedWalks++
		c.walkFrom(q, start)
		t2 := time.Now()
		c.stats.DirectedWalk += t2.Sub(t1)
		t1 = t2
	}
	return c.crawlRange(q, out, before, t1)
}

// walkFrom is the directed walk of a range query whose probe found no
// seed: the greedy descent from start (start < 0: the engine had no start
// vertex), seeding the crawl with the vertex it arrives at. It reports
// false when the descent stalls.
func (c *Cursor) walkFrom(q geom.AABB, start int32) bool {
	if start < 0 {
		return false
	}
	seed, ok := c.greedyWalk(q, start)
	if ok {
		c.seeds = append(c.seeds, seed)
	}
	return ok
}

// scanStalled ends an exact walk that found no seed: the scan of
// pos[unprobed:], the one place a stall is turned into either seeds or a
// proof that the mesh holds nothing in q.
func (c *Cursor) scanStalled(q geom.AABB, unprobed int) {
	c.stats.WalkStalls++
	c.seeds = c.scanSeeds(q, unprobed, c.seeds)
}

// LastEpoch implements query.PinnedCursor: the position epoch the
// cursor's most recent query executed against.
func (c *Cursor) LastEpoch() uint64 { return c.epoch }

// probedInKNN reports whether the current kNN query's surface probe
// covers v, that is whether v is a surface vertex. The probe has then
// offered v, or found it strictly beyond the final bound, or v was marked
// by the crawl before it — which the fold crawl, in the same mark epoch,
// never reaches. It is false for
// every vertex before the probe (knnIdx nil), so the first crawl offers
// surface and interior alike. It runs on every vertex a kNN crawl pops;
// on a dense layout the slot lookup is one compare.
func (c *Cursor) probedInKNN(v int32) bool {
	if c.knnIdx == nil {
		return false
	}
	_, ok := c.knnIdx.Slot(v)
	return ok
}

// Query implements query.Cursor: it executes q against the owning engine
// using this cursor's scratch, appending result ids to out.
func (c *Cursor) Query(q geom.AABB, out []int32) []int32 {
	return c.owner.queryWith(c, q, out)
}

// KNN implements query.KNNCursor: it executes a k-nearest-neighbor query
// against the owning engine using this cursor's scratch, appending the k
// closest vertex ids to out, nearest first.
func (c *Cursor) KNN(p geom.Vec3, k int, out []int32) []int32 {
	return c.owner.knnWith(c, p, k, out)
}

// Close implements query.Cursor: it folds the cursor's accumulated
// statistics into the owning engine's resident totals and zeroes the local
// accumulator. The cursor remains usable afterwards. Close is safe to call
// from any goroutine (the merge is mutex-guarded engine-side), but must
// not race with the same cursor's Query.
func (c *Cursor) Close() {
	c.owner.mergeStats(c.takeStats())
}

// Stats returns the statistics accumulated by this cursor since it was
// created or last closed.
func (c *Cursor) Stats() Stats {
	s := c.stats
	s.WalkVisited = c.walkVisited
	s.CrawlVisited = c.crawlVisited
	return s
}

// takeStats returns the cursor's statistics and resets the accumulator.
func (c *Cursor) takeStats() Stats {
	s := c.Stats()
	c.stats = Stats{}
	c.walkVisited = 0
	c.crawlVisited = 0
	return s
}

// LastCoverage implements query.CoverageReporter: the crawl coverage of
// the cursor's most recent Query/KNN. The engine arms a fresh coverage
// record per query, so a budget truncation never leaks into the report of
// a later exact query.
func (c *Cursor) LastCoverage() query.CrawlCoverage {
	cov := c.cov
	cov.Visited = c.expanded
	return cov
}

// LastKNNBound2 implements query.KNNBoundReporter: the squared k-th-best
// distance of the cursor's most recent kNN (+Inf when the mesh held fewer
// than k vertices), ok=false when the last kNN took a degenerate early
// return and no ball was established.
func (c *Cursor) LastKNNBound2() (float64, bool) { return c.knnBound2, c.knnBoundOK }

// MemoryBytes reports the cursor's full scratch footprint: the crawl
// structures (mark array, kNN frontier), the seed buffer, the box heap
// of the exact probe with the kNN start search's leaves set aside, and the
// kNN candidate heap.
func (c *Cursor) MemoryBytes() int64 {
	return c.crawler.memoryBytes() + int64(cap(c.seeds))*4 + int64(cap(c.blocks)+cap(c.aside))*16 + c.kbest.MemoryBytes()
}
