package core

import (
	"math"

	"octopus/internal/geom"
	"octopus/internal/mesh"
	"octopus/internal/query"
)

// crawler implements the two mesh-graph phases shared by OCTOPUS and
// OCTOPUS-CON: the breadth-first crawl (§IV-B) and the directed walk
// (§IV-D) with its exact fallback, the scan of the unprobed positions. It
// owns the reusable visited structure and frontiers so queries do not
// allocate.
//
// There is one crawl (DESIGN.md §12). Its visited set is the mark array:
// one epoch-stamped word per vertex, allocated by the first crawl that has
// a seed and cleared in O(1) by an epoch bump. Every dataset and sub-mesh
// is laid out in Hilbert order, so a vertex's neighbours have nearby ids
// and marks[w] is touched with the locality the layout exists to buy. What
// that gives up is Figure 10(b)'s footprint property: a cursor that has
// crawled holds 4 bytes per mesh vertex, whatever its results were; only
// the result queue, the seed buffer and the kNN heaps still grow with the
// result.
type crawler struct {
	m    *mesh.Mesh
	heap []heapItem // kNN crawl frontier

	// marks is the visited set: marks[v] == markEpoch means v was visited
	// by the current crawl. Sized to the vertex count by bumpMarks; reset
	// is an epoch bump.
	marks     []uint32
	markEpoch uint32

	// pos is the position view of the query in flight, installed by
	// Cursor.beginQuery: the epoch-pinned buffer. Every graph phase reads
	// positions through it, never through m.Positions(), so a whole query
	// sees exactly one epoch.
	pos []geom.Vec3

	// budget is the cursor's CrawlBudget (Cursor.SetBudget). expanded
	// counts budget-relevant expansions across all crawl phases of the
	// query (range crawl, or every kNN crawl); cov accumulates the
	// coverage report, and knnCut2 is the squared distance of the nearest
	// kNN frontier vertex a cutoff abandoned. armCrawl resets them at
	// query start.
	budget   query.CrawlBudget
	expanded int64
	cov      query.CrawlCoverage
	knnCut2  float64

	// counters (cumulative across queries)
	crawlVisited int64 // vertices discovered by range crawls / expanded by kNN crawls
	walkVisited  int64 // vertices accessed by directed walks and their fallback scans
}

// armCrawl resets the budget accounting and the coverage report. Engines
// call it at query start, before any crawl phase runs.
func (c *crawler) armCrawl() {
	c.expanded = 0
	c.cov = query.CrawlCoverage{}
	c.knnCut2 = math.Inf(1)
}

// overBudget reports whether the query's crawl budget has run out; it is
// checked before every expansion.
func (c *crawler) overBudget() bool {
	return c.budget.MaxVisited > 0 && c.expanded >= c.budget.MaxVisited
}

// bumpMarks prepares the mark array for a fresh crawl: sized to the mesh
// (re-sized when restructuring has added vertices), cleared in O(1) by an
// epoch bump (hard-cleared on the ~4G wrap).
func (c *crawler) bumpMarks() {
	if n := c.m.NumVertices(); len(c.marks) < n {
		c.marks = make([]uint32, n)
		c.markEpoch = 0
	}
	c.markEpoch++
	if c.markEpoch == 0 {
		clear(c.marks)
		c.markEpoch = 1
	}
}

// crawl runs the BFS from seeds (each of which must lie inside q),
// appending every vertex of the query result to out. Edges are never
// followed past a vertex outside q — the paper's stop criterion that makes
// crawl cost proportional to the result size, not the dataset size. The
// result slice doubles as the BFS queue: every discovered in-box vertex is
// appended once and expanded when the head pointer reaches it, so the
// output order is exactly the BFS discovery order from the seeds in the
// order given — deterministic per cursor.
//
// No seed means no result and no marks: the emptiness proof of a stalled
// walk allocates nothing. A budget cutoff keeps everything discovered so
// far (a subset of the exact result) and records the abandoned frontier in
// the coverage report.
func (c *crawler) crawl(q geom.AABB, seeds []int32, out []int32) []int32 {
	if len(seeds) == 0 {
		return out
	}
	c.bumpMarks()
	pos := c.pos
	marks, epoch := c.marks, c.markEpoch
	base := len(out)
	for _, s := range seeds {
		if marks[s] != epoch {
			marks[s] = epoch
			out = append(out, s)
		}
	}
	for head := base; head < len(out); head++ {
		if c.overBudget() {
			c.cov.Truncated = true
			c.cov.Frontier += int64(len(out) - head)
			break
		}
		c.expanded++
		for _, w := range c.m.Neighbors(out[head]) {
			// Mark before testing: every vertex pays the position gather
			// and containment test at most once, not once per incident
			// edge. Out-of-box vertices enter the visited set but never
			// the queue, so the result stays exact and the stop criterion
			// (never expand past an outside vertex) is unchanged.
			if marks[w] != epoch {
				marks[w] = epoch
				if q.Contains(pos[w]) {
					out = append(out, w)
				}
			}
		}
	}
	c.crawlVisited += int64(len(out) - base)
	return out
}

// greedyWalk is Algorithm 1's directed walk: from start, move to the
// neighbour strictly closest to the query box until a vertex inside q is
// reached. On convex meshes the descent provably arrives; on non-convex
// meshes it can stall in a local minimum of the graph distance (ok ==
// false), a case the paper treats as "query does not intersect the mesh".
// Cursor.QuerySeeded accepts that, as the paper's approximate probe
// trades accuracy for time; Query hands a stall to scanSeeds
// (Cursor.scanStalled).
func (c *crawler) greedyWalk(q geom.AABB, start int32) (seed int32, ok bool) {
	pos := c.pos
	cur := start
	curDist := q.Dist2(pos[cur])
	c.walkVisited++
	for curDist > 0 {
		best, bestDist := nearestOf(q, pos, c.m.Neighbors(cur), curDist)
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

// knnGap converts a truncated kNN query's state into the coverage
// report's bound gap: frontier is the squared distance of the closest
// abandoned frontier vertex, bound the squared k-th-best distance of the
// returned answer.
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
	heapDown(s, 0)
	*h = s
	return top
}

// heapInit orders s as a min-heap (by dist) in O(len(s)).
func heapInit(s []heapItem) {
	for i := len(s)/2 - 1; i >= 0; i-- {
		heapDown(s, i)
	}
}

// heapDown sifts s[i] down to its place in the min-heap s.
func heapDown(s []heapItem, i int) {
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
			return
		}
		s[i], s[smallest] = s[smallest], s[i]
		i = smallest
	}
}

// memoryBytes reports the crawl structures' footprint: the mark array and
// the kNN frontier.
func (c *crawler) memoryBytes() int64 {
	return int64(cap(c.marks))*4 + int64(cap(c.heap))*16
}
