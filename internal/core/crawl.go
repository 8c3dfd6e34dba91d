package core

import (
	"math"

	"octopus/internal/geom"
	"octopus/internal/mesh"
	"octopus/internal/query"
)

// crawler implements the two mesh-graph phases shared by OCTOPUS and
// OCTOPUS-CON: the range crawl (§IV-B) and the directed walk (§IV-D) with
// its exact fallback, the scan of the unprobed positions. It owns the
// reusable visited structures and frontiers so queries do not allocate.
//
// There is one range crawl (DESIGN.md §12), and it moves in crawl blocks,
// runs of mesh.CrawlBlock consecutive vertex ids, not in vertices. Its
// visited set is one epoch-stamped word per block, allocated by the first
// crawl that has a seed and cleared in O(1) by an epoch bump: 4 bytes per
// 32 vertices. The kNN crawl keeps the per-vertex mark array (4 bytes per
// vertex), allocated by the first kNN. Everything else — the result
// queue, the seed buffer and the kNN heaps — grows with the result.
type crawler struct {
	m    *mesh.Mesh
	heap []heapItem // kNN crawl frontier

	// blockMarks is the range crawl's visited set: blockMarks[b] ==
	// blockEpoch means crawl block b was queued by the current crawl.
	// Sized to the block count by crawl; reset is an epoch bump. queue is
	// the crawl's block queue.
	blockMarks []uint32
	blockEpoch uint32
	queue      []int32

	// marks is the kNN crawl's visited set: marks[v] == markEpoch means v
	// was visited by the current query. Sized to the vertex count by
	// bumpMarks; reset is an epoch bump.
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
	crawlVisited int64 // vertices found by range crawls / expanded by kNN crawls
	walkVisited  int64 // vertices accessed by directed walks and their fallback scans
	crawlTested  int64 // positions tested by range crawls' block visits
	crawlReads   int64 // adjacency entries (block graph and vertex lists) read by range crawls
}

// armCrawl resets the budget accounting and the coverage report. Engines
// call it at query start, before any crawl phase runs.
func (c *crawler) armCrawl() {
	c.expanded = 0
	c.cov = query.CrawlCoverage{}
	c.knnCut2 = math.Inf(1)
}

// overBudget reports whether expanding n more vertices would take the
// query past its crawl budget; it is checked before every expansion.
func (c *crawler) overBudget(n int) bool {
	return c.budget.MaxVisited > 0 && c.expanded+int64(n) > c.budget.MaxVisited
}

// bumpStamps prepares an epoch-stamped visited set over n slots for a
// fresh pass: sized to n (re-sized when restructuring has added
// vertices), cleared in O(1) by an epoch bump, hard-cleared on the ~4G
// wrap. Epoch 0 is never current, so a zeroed slot reads unvisited.
func bumpStamps(s []uint32, epoch uint32, n int) ([]uint32, uint32) {
	if len(s) < n {
		s, epoch = make([]uint32, n), 0
	}
	epoch++
	if epoch == 0 {
		clear(s)
		epoch = 1
	}
	return s, epoch
}

// bumpMarks prepares the kNN mark array for a fresh query.
func (c *crawler) bumpMarks() {
	c.marks, c.markEpoch = bumpStamps(c.marks, c.markEpoch, c.m.NumVertices())
}

// graphExpandMin is the fewest in-box vertices for which a crawl block is
// expanded through the mesh's block graph instead of through its in-box
// vertices' own neighbour lists. Below it the lists queue fewer blocks to
// scan; at it and above, the one short list of the block's neighbours is
// cheaper than reading that many lists, and the few extra blocks it
// queues cost less than the reads it saves. Chosen from BenchmarkCrawl's
// per-selectivity rows and the sim-step and live-inproc workloads
// (DESIGN.md §12): half a block.
const graphExpandMin = mesh.CrawlBlock / 2

// crawl appends every vertex of q it reaches from seeds (each of which
// must lie inside q) to out. It moves in crawl blocks: the seeds' blocks
// are queued, and visiting a queued block runs the containment kernel over
// its positions and appends its in-box vertices. A block that holds one is
// expanded: the blocks it touches are queued — those of its in-box
// vertices' neighbours, or, when it holds at least graphExpandMin, its
// neighbours in the mesh's block graph, a superset read from one short
// list. Nothing is expanded past a block with no vertex in q, the paper's
// stop criterion applied to blocks, so the cost stays proportional to the
// result.
//
// Every in-box path from a seed is followed, so the answer holds the
// vertex BFS's from the same seeds; a vertex that shares a block with a
// reached one is found too, though no in-box path may lead to it. Each
// block is visited once and only in-box vertices are appended, so the
// answer has no duplicate and is a subset of brute force. The order is the
// block BFS order from the seeds' blocks, each block's vertices ascending:
// deterministic per cursor.
//
// No seed means no result and no stamps: the emptiness proof of a stalled
// walk allocates nothing. The budget counts the in-box vertices expanded
// and is checked before each block is expanded: a block that would exceed
// it expands only as many of its vertices as the budget has left, and the
// crawl stops there. The cutoff keeps everything visited so far (a subset
// of the exact result); the block's unexpanded vertices and the in-box
// vertices of the queued blocks it abandons are the frontier.
func (c *crawler) crawl(q geom.AABB, seeds []int32, out []int32) []int32 {
	if len(seeds) == 0 {
		return out
	}
	g := c.m.BlockGraph()
	pos := c.pos
	n := int32(len(pos))
	c.blockMarks, c.blockEpoch = bumpStamps(c.blockMarks, c.blockEpoch, mesh.NumCrawlBlocks(int(n)))
	marks, epoch := c.blockMarks, c.blockEpoch
	queue := c.queue[:0]
	for _, s := range seeds {
		if b := s >> mesh.CrawlBlockShift; marks[b] != epoch {
			marks[b] = epoch
			queue = append(queue, b)
		}
	}
	base := len(out)
	var tested, reads int64
	for i := 0; i < len(queue); i++ {
		b := queue[i]
		lo := b << mesh.CrawlBlockShift
		hi := min(lo+mesh.CrawlBlock, n)
		tested += int64(hi - lo)
		first := len(out)
		out = appendContained(out, q, pos[lo:hi], int(lo))
		found := out[first:]
		if len(found) == 0 {
			continue
		}
		expand := found
		if c.overBudget(len(found)) {
			expand = found[:c.budget.MaxVisited-c.expanded]
		}
		c.expanded += int64(len(expand))
		if len(expand) == len(found) && len(found) >= graphExpandMin {
			nb := g.Neighbors(b)
			reads += int64(len(nb))
			for _, w := range nb {
				if marks[w] != epoch {
					marks[w] = epoch
					queue = append(queue, w)
				}
			}
		} else {
			for _, v := range expand {
				nv := c.m.Neighbors(v)
				reads += int64(len(nv))
				for _, w := range nv {
					if w >>= mesh.CrawlBlockShift; marks[w] != epoch {
						marks[w] = epoch
						queue = append(queue, w)
					}
				}
			}
		}
		if len(expand) < len(found) {
			c.cov.Truncated = true
			c.cov.Frontier += int64(len(found)-len(expand)) + inBlocks(q, pos, queue[i+1:])
			break
		}
	}
	c.queue = queue
	c.crawlVisited += int64(len(out) - base)
	c.crawlTested += tested
	c.crawlReads += reads
	return out
}

// inBlocks counts the vertices of the given crawl blocks that lie in q:
// the frontier a budget cutoff abandons in the blocks it queued.
func inBlocks(q geom.AABB, pos []geom.Vec3, blocks []int32) int64 {
	var n int64
	for _, b := range blocks {
		lo := int(b) << mesh.CrawlBlockShift
		for _, p := range pos[lo:min(lo+mesh.CrawlBlock, len(pos))] {
			if q.Contains(p) {
				n++
			}
		}
	}
	return n
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

// memoryBytes reports the crawl structures' footprint: the block stamps
// and queue, the kNN mark array and the kNN frontier.
func (c *crawler) memoryBytes() int64 {
	return int64(cap(c.blockMarks)+cap(c.queue)+cap(c.marks))*4 + int64(cap(c.heap))*16
}
