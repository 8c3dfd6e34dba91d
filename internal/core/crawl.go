package core

import (
	"math"
	"time"

	"octopus/internal/geom"
	"octopus/internal/mesh"
	"octopus/internal/query"
)

// crawler implements the two mesh-graph phases shared by OCTOPUS and
// OCTOPUS-CON: the breadth-first crawl (§IV-B) and the directed walk
// (§IV-D) with its exact fallback, the scan of the unprobed positions. It
// owns the reusable visited structures and frontiers so queries do not
// allocate.
//
// The crawl has three execution tiers (DESIGN.md §12), chosen per query by
// the tuning the engine installs through armCrawl:
//
//   - Hash crawl: the original path. The visited set is an open-addressing
//     hash sized by the result, so small queries touch memory proportional
//     to what they return — the footprint property of Figure 10(b).
//   - Dense crawl: once a crawl has expanded escalateAt vertices it has
//     proven large, and the hash set's probing and growth dominate; the
//     visited set migrates to an epoch-stamped mark array with one word
//     per vertex (allocated once per cursor, O(1) reset) and the BFS
//     continues with plain array stamps — same traversal, same output
//     order, 2-4x less time per vertex.
//   - Parallel crawl: with crawl workers > 1, a crawl that escalates (or
//     starts with enough probe seeds to split) hands its frontier to a
//     work-stealing worker pool sharing the mark array via atomic claims
//     (see pcrawl.go). Result sets are identical to serial; result order
//     is not (order is unspecified by the Query contract).
type crawler struct {
	m       *mesh.Mesh
	visited *idSet
	heap    []heapItem // kNN crawl frontier

	// marks is the dense visited array of the escalated tiers: marks[v] ==
	// markEpoch means v was visited by the current crawl. Sized to the
	// vertex count on first escalation; reset is an epoch bump.
	marks     []uint32
	markEpoch uint32

	// par is the parallel crawl scratch (worker frontiers, result buffers,
	// prebuilt goroutine closures), built lazily on first parallel crawl.
	par *parCrawl

	// pos is the position view of the query in flight, installed by
	// Cursor.beginQuery: the epoch-pinned snapshot buffer, or the live
	// array on a mesh without snapshots (the stop-the-world contract).
	// Every graph phase reads positions through
	// it, never through m.Positions(), so a whole query sees exactly one
	// epoch.
	pos []geom.Vec3

	// Per-query crawl tuning and budget state, installed by armCrawl at
	// query start. expanded counts budget-relevant expansions across all
	// crawl phases of the query (range crawl, or one kNN crawl per
	// component); cov accumulates the coverage report.
	tun      crawlTuning
	budLimit int64
	deadline time.Time
	expanded int64
	cov      query.CrawlCoverage

	// counters (cumulative across queries)
	crawlVisited int64 // vertices discovered by range crawls / expanded by kNN crawls
	walkVisited  int64 // vertices accessed by directed walks and their fallback scans
}

// crawlTuning is the per-query snapshot of an engine's crawl knobs.
type crawlTuning struct {
	workers    int  // resolved worker count (>= 1)
	dense      bool // dense/parallel tiers enabled; false = legacy hash-only crawl
	escalateAt int  // expansions before a hash crawl escalates to the mark array
	parSeedMin int  // seed count at which a range crawl goes parallel immediately
	parMinK    int  // k at which a kNN crawl goes parallel
}

// Crawl tier defaults. The thresholds gate overhead, not correctness:
// below them the hash crawl's locality wins or the fork/join cost of the
// worker pool would dominate. Tests lower them through the engines'
// unexported fields to exercise every tier on small meshes.
const (
	// defaultCrawlEscalate is the expansion count at which a crawl has
	// proven large enough for the dense mark array (and the worker pool).
	// At ~100ns/vertex the hash prefix costs ~0.1ms — a few percent of
	// the crawls the escalation exists for.
	defaultCrawlEscalate = 1024
	// defaultParSeedMin is the probe-seed count at which a range crawl
	// skips the hash tier and splits the seeds across workers directly.
	defaultParSeedMin = 128
	// defaultParMinK is the k at which a kNN crawl (which expands O(k)
	// vertices) is worth running on the worker pool.
	defaultParMinK = 256
	// budgetStride is how many expansions pass between wall-clock budget
	// checks — the crawl's analog of the maintenance scheduler's slice
	// stride (checking time.Now per vertex would dominate the crawl).
	budgetStride = 64
)

func newCrawler(m *mesh.Mesh) crawler {
	return crawler{m: m, visited: newIDSet()}
}

// armCrawl installs one query's crawl tuning and budget, resetting the
// budget accounting and the coverage report. Engines call it at query
// start, before any crawl phase runs.
func (c *crawler) armCrawl(t crawlTuning, b query.CrawlBudget) {
	if t.workers < 1 {
		t.workers = 1
	}
	if t.escalateAt <= 0 {
		t.escalateAt = defaultCrawlEscalate
	}
	if t.parSeedMin <= 0 {
		t.parSeedMin = defaultParSeedMin
	}
	if t.parMinK <= 0 {
		t.parMinK = defaultParMinK
	}
	c.tun = t
	c.budLimit = b.MaxVisited
	if b.Wall > 0 {
		c.deadline = time.Now().Add(b.Wall)
	} else {
		c.deadline = time.Time{}
	}
	c.expanded = 0
	c.cov = query.CrawlCoverage{}
}

// resetCoverage zeroes the per-query coverage accounting without changing
// the tuning — used by query paths that bypass the crawl entirely (the
// hybrid's scan route), so LastCoverage never reports a stale truncation.
func (c *crawler) resetCoverage() {
	c.expanded = 0
	c.cov = query.CrawlCoverage{}
}

// wallExpired reports whether the query's wall budget has run out. Callers
// check it every budgetStride expansions, never per vertex.
func (c *crawler) wallExpired() bool {
	return !c.deadline.IsZero() && time.Now().After(c.deadline)
}

// bumpMarks prepares the dense mark array for a fresh crawl: sized to the
// mesh, cleared in O(1) by an epoch bump (hard-cleared on the ~4G wrap).
func (c *crawler) bumpMarks() {
	if n := c.m.NumVertices(); len(c.marks) < n {
		c.marks = make([]uint32, n)
		c.markEpoch = 0
	}
	c.markEpoch++
	if c.markEpoch == 0 {
		for i := range c.marks {
			c.marks[i] = 0
		}
		c.markEpoch = 1
	}
}

// crawl runs the BFS from seeds (each of which must lie inside q),
// appending every vertex of the query result to out. Edges are never
// followed past a vertex outside q — the paper's stop criterion that makes
// crawl cost proportional to the result size, not the dataset size. The
// result slice doubles as the BFS queue: every discovered in-box vertex is
// appended once and expanded when the head pointer reaches it, so the
// output order is exactly the BFS discovery order.
//
// Large crawls escalate to the dense tiers per the installed tuning; a
// budget cutoff keeps everything discovered so far (a subset of the exact
// result) and records the abandoned frontier in the coverage report.
func (c *crawler) crawl(q geom.AABB, seeds []int32, out []int32) []int32 {
	base := len(out)
	if c.tun.dense && c.tun.workers > 1 && len(seeds) >= c.tun.parSeedMin {
		// Enough independent seeds to split across workers immediately:
		// mark and dedupe them serially, then let the pool crawl.
		c.bumpMarks()
		p := c.ensurePar(c.tun.workers)
		n := 0
		for _, s := range seeds {
			if c.marks[s] != c.markEpoch {
				c.marks[s] = c.markEpoch
				p.ws[n%len(p.ws)].stack = append(p.ws[n%len(p.ws)].stack, s)
				n++
			}
		}
		return c.crawlParallel(q, n, out)
	}

	c.visited.reset()
	for _, s := range seeds {
		if c.visited.add(s) {
			out = append(out, s)
		}
	}
	pos := c.pos
	for head := base; head < len(out); head++ {
		if c.budLimit > 0 && c.expanded >= c.budLimit ||
			c.expanded&(budgetStride-1) == 0 && c.wallExpired() {
			c.cov.Truncated = true
			c.cov.Frontier += int64(len(out) - head)
			c.crawlVisited += int64(len(out) - base)
			return out
		}
		if c.tun.dense && head-base >= c.tun.escalateAt {
			return c.escalateCrawl(q, out, base, head)
		}
		v := out[head]
		c.expanded++
		for _, w := range c.m.Neighbors(v) {
			// Mark before testing: every vertex pays the position gather
			// and containment test at most once, not once per incident
			// edge. Out-of-box vertices enter the visited set but never
			// the queue, so the result stays exact and the stop criterion
			// (never expand past an outside vertex) is unchanged.
			if c.visited.add(w) && q.Contains(pos[w]) {
				out = append(out, w)
			}
		}
	}
	c.crawlVisited += int64(len(out) - base)
	return out
}

// escalateCrawl moves a hash crawl that has proven large onto the dense
// mark array: the hash set's contents (in-box and out-of-box visits alike)
// are stamped into the marks, and the BFS continues — serially on the
// marks, or on the worker pool when crawl workers are configured. The
// pending queue entries out[head:] become the continuation's frontier.
//
// crawlVisited counts each discovered id exactly once, at its final
// placement: the serial continuation keeps the whole queue in out, so the
// full prefix is counted here; the parallel continuation moves the
// unexpanded tail into the worker stacks, so only the kept prefix is
// counted here and the collector counts what the workers produce.
func (c *crawler) escalateCrawl(q geom.AABB, out []int32, base, head int) []int32 {
	c.bumpMarks()
	c.visited.stamp(c.marks, c.markEpoch)
	if c.tun.workers > 1 {
		p := c.ensurePar(c.tun.workers)
		n := 0
		for _, v := range out[head:] {
			p.ws[n%len(p.ws)].stack = append(p.ws[n%len(p.ws)].stack, v)
			n++
		}
		c.crawlVisited += int64(head - base)
		return c.crawlParallel(q, n, out[:head])
	}
	c.crawlVisited += int64(len(out) - base)
	return c.crawlDense(q, out, head)
}

// crawlDense is the BFS continuation on the dense mark array: identical
// traversal and output order to the hash tier, with the visited test a
// single array stamp. head indexes the next unexpanded entry of out.
func (c *crawler) crawlDense(q geom.AABB, out []int32, head int) []int32 {
	pos := c.pos
	marks, epoch := c.marks, c.markEpoch
	for ; head < len(out); head++ {
		if c.budLimit > 0 && c.expanded >= c.budLimit ||
			c.expanded&(budgetStride-1) == 0 && c.wallExpired() {
			c.cov.Truncated = true
			c.cov.Frontier += int64(len(out) - head)
			return out
		}
		v := out[head]
		c.expanded++
		for _, w := range c.m.Neighbors(v) {
			if marks[w] != epoch {
				marks[w] = epoch
				if q.Contains(pos[w]) {
					out = append(out, w)
					c.crawlVisited++
				}
			}
		}
	}
	return out
}

// greedyWalk is Algorithm 1's directed walk: from start, move to the
// neighbour strictly closest to the query box until a vertex inside q is
// reached. On convex meshes the descent provably arrives; on non-convex
// meshes it can stall in a local minimum of the graph distance (ok ==
// false), a case the paper treats as "query does not intersect the mesh".
// Approximate query modes accept that — they already trade accuracy for
// time; exact queries hand a stall to scanSeeds (Cursor.walkSeeds).
func (c *crawler) greedyWalk(q geom.AABB, start int32) (seed int32, ok bool) {
	pos := c.pos
	cur := start
	curDist := q.Dist2(pos[cur])
	c.walkVisited++
	for curDist > 0 {
		best := int32(-1)
		bestDist := curDist
		for _, w := range c.m.Neighbors(cur) {
			if d := q.Dist2(pos[w]); d < bestDist {
				best, bestDist = w, d
			}
		}
		if best < 0 {
			return 0, false
		}
		cur, curDist = best, bestDist
		c.walkVisited++
	}
	return cur, true
}

// scanSeeds is the exact fallback of a stalled walk (a strengthening over
// the paper, DESIGN.md §4): one sequential containment pass over
// pos[from:] — the positions the probe has not already tested — appending
// every vertex inside q to seeds. No seed means the mesh holds nothing in
// q, by inspection of every position at the pinned epoch; otherwise every
// component and every isolated vertex inside q is seeded, so the crawl
// returns exactly brute force's answer. The pass is the linear scan the
// walk replaces, so a stall never costs more than that scan, and it needs
// no scratch. Scanned positions count as walk accesses.
func (c *crawler) scanSeeds(q geom.AABB, from int, seeds []int32) []int32 {
	c.walkVisited += int64(len(c.pos) - from)
	return appendContained(seeds, q, c.pos[from:], from)
}

// pointDescent greedily walks from start to a local minimum of the
// Euclidean distance to p: the kNN analog of the directed walk, moving to
// the strictly closest neighbour until no neighbour improves. The returned
// vertex seeds the best-first kNN crawl; it need not be the globally
// closest vertex of the component — the crawl's expansion corrects for an
// imperfect start.
func (c *crawler) pointDescent(p geom.Vec3, start int32) int32 {
	pos := c.pos
	cur := start
	curDist := pos[cur].Dist2(p)
	c.walkVisited++
	for {
		best := int32(-1)
		bestDist := curDist
		for _, w := range c.m.Neighbors(cur) {
			if d := pos[w].Dist2(p); d < bestDist {
				best, bestDist = w, d
			}
		}
		if best < 0 {
			return cur
		}
		cur, curDist = best, bestDist
		c.walkVisited++
	}
}

// knnGap converts a truncated kNN crawl's state into the coverage
// report's bound gap: frontier is the squared distance of the closest
// abandoned frontier vertex, bound the squared k-th-best distance.
func knnGap(frontier, bound float64) float64 {
	if math.IsInf(bound, 1) {
		return 1 // the k-best set was not even full
	}
	if bound <= 0 || frontier >= bound {
		return 0 // the frontier could not have improved the result
	}
	return 1 - math.Sqrt(frontier/bound)
}

// heapItem is a frontier entry of the kNN crawls.
type heapItem struct {
	dist float64
	v    int32
}

// heapPushItem adds an item to the min-heap (by dist) backing h.
func heapPushItem(h *[]heapItem, it heapItem) {
	s := append(*h, it)
	i := len(s) - 1
	for i > 0 {
		p := (i - 1) / 2
		if s[p].dist <= s[i].dist {
			break
		}
		s[p], s[i] = s[i], s[p]
		i = p
	}
	*h = s
}

// heapPopItem removes the minimum item.
func heapPopItem(h *[]heapItem) heapItem {
	s := *h
	top := s[0]
	last := len(s) - 1
	s[0] = s[last]
	s = s[:last]
	i := 0
	for {
		l, r := 2*i+1, 2*i+2
		smallest := i
		if l < len(s) && s[l].dist < s[smallest].dist {
			smallest = l
		}
		if r < len(s) && s[r].dist < s[smallest].dist {
			smallest = r
		}
		if smallest == i {
			break
		}
		s[i], s[smallest] = s[smallest], s[i]
		i = smallest
	}
	*h = s
	return top
}

// memoryBytes reports the crawl structures' footprint: visited set, dense
// mark array, kNN frontier and the parallel pool's per-worker scratch.
func (c *crawler) memoryBytes() int64 {
	b := c.visited.memoryBytes() + int64(cap(c.marks))*4 + int64(cap(c.heap))*16
	if c.par != nil {
		b += c.par.memoryBytes()
	}
	return b
}
