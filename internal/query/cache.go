package query

import (
	"sync"

	"octopus/internal/geom"
	"octopus/internal/mesh"
)

// ResultCache is the epoch-keyed result cache of the serving layer
// (DESIGN.md §14): repeated hot-region queries — the dominant shape of a
// many-reader monitoring workload — answer from cached result sets until
// the mesh actually changes under them.
//
// Correctness rests on the dirty-log contract (DESIGN.md §11): every
// tracked record's Box is the union AABB of the old AND new positions of
// every vertex that moved in its epoch. A cached range result therefore
// stays exact as long as no dirty box intersects its query box — a result
// vertex cannot leave the box, and an outside vertex cannot enter it,
// without its movement being covered by some dirty box. A cached kNN
// result stays exact as long as no dirty box intersects the closed ball
// of squared radius ball2 (the k-th-best squared distance) around the
// probe: a result vertex cannot move (its old position is inside the
// ball), and an outside vertex cannot come to rank among the k best (its
// new position would be inside the ball), without intersecting it.
// Untracked epochs (cell splits and deletes — new vertices can appear
// anywhere in the touched region —, full publishes, re-partitions) carry
// no location information and flush the whole cache.
//
// Epoch accounting: validEpoch is the head epoch through which Apply
// has applied invalidations. An entry is valid at max(its insertion
// epoch, validEpoch) — at its own epoch by construction (it is a fresh
// execution), and at validEpoch because every dirty interval up to
// validEpoch was checked against it. Get reports that epoch so traces
// stay honest; Put rejects entries older than validEpoch, whose validity
// the cache can no longer prove.
//
// All methods are safe for concurrent use (one mutex — the cache is a
// fast-path shortcut, not a scalability bottleneck: a hit replaces an
// entire index traversal). Only exact results may be cached, since a later
// hit replays them bit-for-bit: KeepRange and KeepKNN are the fill rule
// every serving layer applies, and it refuses failed answers and answers
// truncated by a CrawlBudget.
type ResultCache struct {
	mu      sync.Mutex
	entries map[cacheKey]*cacheEntry
	// fifo holds insertion order as (key, seq) slots starting at head;
	// seq ties a slot to the exact insertion that created it, so a key
	// re-inserted after invalidation gets a fresh slot and its stale one
	// reads as dead on eviction. The head index replaces re-slicing
	// (fifo = fifo[1:] would retain the backing array's dead prefix for
	// the life of the server); compactLocked reclaims dead slots and the
	// consumed prefix once they dominate.
	fifo       []fifoSlot
	head       int
	seq        uint64
	cap        int
	validEpoch uint64

	stats CacheStats
}

// fifoSlot is one insertion-order record: the key plus the sequence
// number of the insertion that appended it. A slot is live iff the
// key's current entry carries the same sequence number.
type fifoSlot struct {
	key cacheKey
	seq uint64
}

// cacheKey identifies one query. Range and kNN keys live in one map,
// discriminated by kind; the struct is comparable (AABB and Vec3 are
// plain float64 structs).
type cacheKey struct {
	kind byte // 'r' = range, 'k' = kNN
	box  geom.AABB
	p    geom.Vec3
	k    int
}

// cacheEntry is one cached result set.
type cacheEntry struct {
	res   []int32
	epoch uint64
	// ball2 is the squared kNN ball radius (the k-th-best squared
	// distance; +Inf when the mesh held fewer than k vertices, so any
	// movement invalidates). Unused (0) for range entries.
	ball2 float64
	// seq is the sequence number of the insertion that created the
	// entry's FIFO slot; eviction matches it against the slot to tell a
	// live slot from the stale slot of an invalidated-then-re-inserted
	// key.
	seq uint64
}

// DefaultCacheSize is the entry capacity Pipeline uses when the cache is
// enabled without an explicit size.
const DefaultCacheSize = 4096

// NewResultCache returns a cache holding at most capacity entries
// (evicted FIFO); capacity <= 0 uses DefaultCacheSize.
func NewResultCache(capacity int) *ResultCache {
	if capacity <= 0 {
		capacity = DefaultCacheSize
	}
	return &ResultCache{
		entries: make(map[cacheKey]*cacheEntry, capacity),
		cap:     capacity,
	}
}

// CacheStats is a snapshot of the cache's counters.
type CacheStats struct {
	// Hits and Misses count Get outcomes.
	Hits, Misses int64
	// Puts counts accepted insertions; Rejected counts Puts refused
	// because the entry's epoch predated validEpoch (its validity at the
	// cache's epoch can no longer be proven).
	Puts, Rejected int64
	// Invalidated counts entries dropped by a dirty box; Evicted counts
	// capacity evictions; Flushes counts whole-cache flushes (an
	// untracked record, or a log that no longer reaches back).
	Invalidated, Evicted, Flushes int64
	// Entries is the current entry count; ValidEpoch the epoch through
	// which invalidations have been applied.
	Entries    int
	ValidEpoch uint64
}

// HitRate returns Hits / (Hits + Misses), or 0 before any Get.
func (s CacheStats) HitRate() float64 {
	total := s.Hits + s.Misses
	if total == 0 {
		return 0
	}
	return float64(s.Hits) / float64(total)
}

// Stats snapshots the counters.
func (c *ResultCache) Stats() CacheStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	s := c.stats
	s.Entries = len(c.entries)
	s.ValidEpoch = c.validEpoch
	return s
}

// Len returns the current entry count.
func (c *ResultCache) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.entries)
}

// GetRange looks up the cached result of range query q. On a hit it
// returns a copy of the result set and the epoch the result is provably
// exact at (see the type comment); the caller reports that epoch as the
// query's answer epoch.
func (c *ResultCache) GetRange(q geom.AABB) ([]int32, uint64, bool) {
	return c.get(cacheKey{kind: 'r', box: q})
}

// GetKNN looks up the cached result of a kNN probe.
func (c *ResultCache) GetKNN(p geom.Vec3, k int) ([]int32, uint64, bool) {
	return c.get(cacheKey{kind: 'k', p: p, k: k})
}

func (c *ResultCache) get(key cacheKey) ([]int32, uint64, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	e, ok := c.entries[key]
	if !ok {
		c.stats.Misses++
		return nil, 0, false
	}
	c.stats.Hits++
	epoch := e.epoch
	if c.validEpoch > epoch {
		epoch = c.validEpoch
	}
	return append([]int32(nil), e.res...), epoch, true
}

// PutRange caches the exact result of range query q as executed at epoch.
// The cache takes ownership of res (callers pass freshly built slices and
// hits hand out copies). Entries older than validEpoch are rejected: a
// dirty interval they predate has already been applied, so their validity
// cannot be proven anymore.
func (c *ResultCache) PutRange(q geom.AABB, res []int32, epoch uint64) {
	c.put(cacheKey{kind: 'r', box: q}, res, epoch, 0)
}

// PutKNN caches the exact result of a kNN probe as executed at epoch.
// ball2 is the squared distance of the k-th-best result (KBest.Bound
// before draining — +Inf when fewer than k vertices exist), the radius
// inside which any movement invalidates the entry.
func (c *ResultCache) PutKNN(p geom.Vec3, k int, res []int32, epoch uint64, ball2 float64) {
	c.put(cacheKey{kind: 'k', p: p, k: k}, res, epoch, ball2)
}

// KeepRange is the fill rule for a fresh range answer: res, just returned
// by cur for query q, is cached at cur's LastEpoch unless cur reports an
// error (ErrorReporter) or a truncated crawl (CoverageReporter). The cache
// takes ownership of res, as with PutRange.
func (c *ResultCache) KeepRange(q geom.AABB, cur PinnedCursor, res []int32) {
	if exactAnswer(cur) {
		c.PutRange(q, res, cur.LastEpoch())
	}
}

// KeepKNN is KeepRange's rule for a fresh kNN answer, which is cached only
// when cur also reports its ball (KNNBoundReporter).
func (c *ResultCache) KeepKNN(p geom.Vec3, k int, cur PinnedCursor, res []int32) {
	br, ok := cur.(KNNBoundReporter)
	if !ok || !exactAnswer(cur) {
		return
	}
	if ball2, known := br.LastKNNBound2(); known {
		c.PutKNN(p, k, res, cur.LastEpoch(), ball2)
	}
}

// exactAnswer reports whether cur's most recent answer is exact: it did not
// fail, and no crawl budget truncated it. Truncated is the exactness
// signal — an untruncated crawl still reports Visited as work accounting.
func exactAnswer(cur PinnedCursor) bool {
	if er, ok := cur.(ErrorReporter); ok && er.LastError() != nil {
		return false
	}
	cr, ok := cur.(CoverageReporter)
	return !ok || !cr.LastCoverage().Truncated
}

func (c *ResultCache) put(key cacheKey, res []int32, epoch uint64, ball2 float64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if epoch < c.validEpoch {
		c.stats.Rejected++
		return
	}
	if e, ok := c.entries[key]; ok {
		// Refresh in place; the key keeps its FIFO slot (and its seq).
		e.res, e.epoch, e.ball2 = res, epoch, ball2
		c.stats.Puts++
		return
	}
	for len(c.entries) >= c.cap {
		c.evictOldestLocked()
	}
	c.seq++
	c.entries[key] = &cacheEntry{res: res, epoch: epoch, ball2: ball2, seq: c.seq}
	c.fifo = append(c.fifo, fifoSlot{key: key, seq: c.seq})
	c.stats.Puts++
	c.maybeCompactLocked()
}

// evictOldestLocked drops the oldest live entry. Dead slots — keys whose
// entries were invalidated, and stale slots of keys that were invalidated
// and later re-inserted (their entry's seq no longer matches) — are
// skipped; each slot is consumed exactly once, so the skip cost is
// amortized over the puts that created them.
func (c *ResultCache) evictOldestLocked() {
	for c.head < len(c.fifo) {
		slot := c.fifo[c.head]
		c.head++
		if e, ok := c.entries[slot.key]; ok && e.seq == slot.seq {
			delete(c.entries, slot.key)
			c.stats.Evicted++
			return
		}
	}
	// FIFO drained but entries remain: impossible by construction, but
	// never loop forever on a future bookkeeping bug.
	for key := range c.entries {
		delete(c.entries, key)
		c.stats.Evicted++
		return
	}
}

// maybeCompactLocked reclaims FIFO storage on a long-running server: the
// consumed prefix before head, and dead slots left behind by
// invalidations. Compaction copies only the live tail and runs when dead
// slots dominate, so its cost amortizes to O(1) per put while the slice's
// live region stays within a small constant of the entry count.
func (c *ResultCache) maybeCompactLocked() {
	const slack = 32
	pending := len(c.fifo) - c.head
	headHeavy := c.head > slack && c.head*2 >= len(c.fifo)
	deadHeavy := pending > 2*len(c.entries)+slack
	if !headHeavy && !deadHeavy {
		return
	}
	live := c.fifo[:0]
	for _, slot := range c.fifo[c.head:] {
		if e, ok := c.entries[slot.key]; ok && e.seq == slot.seq {
			live = append(live, slot)
		}
	}
	c.fifo = live
	c.head = 0
}

// Apply applies a publisher's dirty log read from the cache's ValidEpoch
// (mesh.DirtyLog.Since) and marks the cache valid through its head:
// entries whose query box (or kNN ball) intersects a tracked record's box
// are dropped; an untracked record, or an incomplete answer, flushes
// everything.
func (c *ResultCache) Apply(d mesh.DirtySince) {
	c.mu.Lock()
	defer c.mu.Unlock()
	flush := !d.Complete
	boxes := make([]geom.AABB, 0, len(d.Recs))
	for _, r := range d.Recs {
		if !r.Tracked {
			flush = true
			break
		}
		if !r.Box.IsEmpty() {
			boxes = append(boxes, r.Box)
		}
	}
	switch {
	case flush:
		c.flushLocked()
	case len(boxes) > 0:
		for key, e := range c.entries {
			if entryDirty(key, e, boxes) {
				delete(c.entries, key)
				c.stats.Invalidated++
			}
		}
	}
	if d.Head > c.validEpoch {
		c.validEpoch = d.Head
	}
}

// entryDirty reports whether any dirty box can affect the entry.
func entryDirty(key cacheKey, e *cacheEntry, boxes []geom.AABB) bool {
	for _, b := range boxes {
		if key.kind == 'r' {
			if b.Intersects(key.box) {
				return true
			}
		} else if b.Dist2(key.p) <= e.ball2 {
			// Closed-ball test: a vertex at exactly the k-th-best distance
			// can still displace a result entry under the (dist, id) order.
			return true
		}
	}
	return false
}

func (c *ResultCache) flushLocked() {
	clear(c.entries)
	c.fifo = c.fifo[:0]
	c.head = 0
	c.stats.Flushes++
}
