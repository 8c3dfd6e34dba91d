package core

import (
	"math"
	"time"

	"octopus/internal/geom"
)

// This file implements k-nearest-neighbor queries for the OCTOPUS family
// by mesh crawling — the same machinery that answers range queries without
// index maintenance, aimed at the paper's naturally kNN-shaped monitoring
// scenarios ("the k synapses closest to this probe point"). Execution has
// the same three phases as a range query:
//
//  1. Surface probe — scan the surface index for the vertices closest to
//     the probe point, block by block nearest-first, stopping at the first
//     block whose box lies beyond the k-th best found so far (strided in
//     approximate mode, like range probes).
//  2. Point descent — greedily walk from that vertex to a local minimum
//     of the distance to the probe point.
//  3. Best-first crawl — expand mesh edges outward from the descent's end
//     in order of increasing distance, keeping the k best candidates in a
//     bounded max-heap (Cursor.kbest) and stopping once the frontier's
//     next vertex is farther than the current k-th best.
//
// Phases 2 and 3 run once per connected component (descending from the
// component's precomputed representative), so disjoint sub-meshes — the
// two-neuron datasets, restructured fragments — are searched exactly. Like
// the range crawl, the stop criterion assumes the distance field over the
// mesh graph has no deep local ridges: the k-th-best radius must not cut
// the graph between the start and a closer pocket. On the solid,
// well-shaped meshes of the evaluation this holds and results equal brute
// force; DESIGN.md discusses the limitation.

// KNN implements query.KNNEngine on the resident cursor. A concurrent
// entry panics; use cursor KNN (or ExecuteKNNBatch) with per-goroutine
// cursors for parallel execution.
func (o *Octopus) KNN(p geom.Vec3, k int, out []int32) []int32 {
	o.guard.Enter("core")
	defer o.guard.Leave()
	return o.knnWith(o.resident, p, k, out)
}

// knnWith implements cursorOwner for kNN execution.
func (o *Octopus) knnWith(cur *Cursor, p geom.Vec3, k int, out []int32) []int32 {
	cur.knnBoundOK = false
	if k <= 0 || o.m.NumVertices() == 0 {
		return out
	}
	cur.stats.Queries++
	cur.armCrawl(o.crawlBudget)
	before := len(out)

	// Phase 1: probe the surface for the vertices closest to p. Exact mode
	// covers the whole surface, block by block; approximate mode samples
	// it with the range probe's rotating stride (the crawl still expands
	// exactly — only the start quality, and hence the expansion work,
	// degrades).
	t0 := time.Now()
	pos := cur.beginQuery(o.m)
	stride := o.probeStride()
	start := 0
	if stride > 1 {
		start = cur.probeOffset % stride
		cur.probeOffset++
	}
	// The probe does two things with every surface vertex it scans. First,
	// it offers the vertex to the result heap directly: the distance is
	// already computed, so in exact mode no surface vertex can ever be
	// missing from the result — even one in a concave pocket the crawl
	// cannot reach — and only interior vertices depend on the crawl.
	// Second, it keeps the closest few as crawl starts: when the probe
	// point sits between two folds of the mesh (two branches of a neuron),
	// the k-ball spans both, and a crawl seeded in one fold would stop at
	// the k-th-best radius before reaching the other; any fold close to p
	// presents surface close to p, so multi-starting from the top surface
	// candidates seeds every nearby fold. The exact probe skips the blocks
	// whose box lies strictly beyond the k-th-best distance (probeKNN): no
	// vertex of such a block can be in the result or among the starts.
	cur.kbest.Reset(k)
	cur.knnSlot, cur.knnStride, cur.knnStart = o.surfaceSlot, stride, start
	kp := knnProbe{want: min(k, maxKNNStarts), bound: cur.knnCeiling2, keep: cur.knnKeep}
	var probed int64
	if stride == 1 {
		probed = o.probeKNN(cur, &kp, p, pos)
	} else {
		probed = kp.scan(&cur.kbest, o.surface, pos, p, start, len(o.surface), stride)
	}
	cur.stats.ProbeChecked += probed
	cur.stats.SurfaceProbe += time.Since(t0)

	// Phases 2+3, once per component: descend every start of the
	// component to a local minimum, then crawl best-first from all of them
	// at once into the shared k-candidate heap (already primed with the
	// probed surface vertices). Components with no probe candidate start
	// from their precomputed representative, so disjoint sub-meshes are
	// still searched.
	cur.stats.DirectedWalks++
	for ci, rep := range o.compReps {
		cur.seeds = cur.seeds[:0]
		for _, c := range kp.cands[:kp.nc] {
			if o.compOf[c.v] == int32(ci) {
				cur.seeds = append(cur.seeds, c.v)
			}
		}
		if len(cur.seeds) == 0 {
			cur.seeds = append(cur.seeds, rep)
		}
		t1 := time.Now()
		for i, s := range cur.seeds {
			cur.seeds[i] = cur.pointDescent(p, s)
		}
		t2 := time.Now()
		cur.stats.DirectedWalk += t2.Sub(t1)
		cur.knnCrawl(p, cur.seeds, cur.knnCeiling2)
		cur.stats.Crawl += time.Since(t2)
	}

	cur.endQuery(o.m)
	// Capture the kNN ball before AppendSorted drains the heap.
	cur.knnBound2, cur.knnBoundOK = cur.kbest.Bound(), true
	out = cur.kbest.AppendSorted(out)
	cur.stats.Results += int64(len(out) - before)
	return out
}

// maxKNNStarts bounds the surface candidates a kNN probe keeps as crawl
// starts (min(k, maxKNNStarts) are kept): enough to seed every mesh fold
// near the probe point, small enough that the insertion array stays in
// registers.
const maxKNNStarts = 8

// knnStart is one probe candidate of the kNN surface scan: vertex v at
// surface slot slot, squared distance d from the probe point.
type knnStart struct {
	d    float64
	v    int32
	slot int32
}

// KNN implements query.KNNEngine for OCTOPUS-CON on the resident cursor:
// the stale grid supplies the start vertex instead of a surface probe.
func (c *Con) KNN(p geom.Vec3, k int, out []int32) []int32 {
	c.guard.Enter("core")
	defer c.guard.Leave()
	return c.knnWith(c.resident, p, k, out)
}

// knnWith implements cursorOwner for kNN execution on OCTOPUS-CON.
func (c *Con) knnWith(cur *Cursor, p geom.Vec3, k int, out []int32) []int32 {
	cur.knnBoundOK = false
	if k <= 0 || c.m.NumVertices() == 0 {
		return out
	}
	cur.stats.Queries++
	cur.armCrawl(c.crawlBudget)
	before := len(out)
	cur.beginQuery(c.m)

	t0 := time.Now()
	gridStart, ok := c.grid.NearestPopulated(p)
	cur.stats.SurfaceProbe += time.Since(t0) // grid lookup plays the probe's role

	cur.kbest.Reset(k)
	cur.knnSlot = nil // no surface probe: the crawl offers everything
	startComp := int32(-1)
	if ok {
		startComp = c.compOf[gridStart]
	}
	cur.stats.DirectedWalks++
	for ci, rep := range c.compReps {
		s := rep
		if int32(ci) == startComp {
			s = gridStart
		}
		t1 := time.Now()
		cur.seeds = append(cur.seeds[:0], cur.pointDescent(p, s))
		t2 := time.Now()
		cur.stats.DirectedWalk += t2.Sub(t1)
		cur.knnCrawl(p, cur.seeds, math.Inf(1))
		cur.stats.Crawl += time.Since(t2)
	}

	// Capture the kNN ball before AppendSorted drains the heap.
	cur.knnBound2, cur.knnBoundOK = cur.kbest.Bound(), true
	out = cur.kbest.AppendSorted(out)
	// CON has no surface probe to offer what a crawl cannot reach, so a
	// RestrictKNN ceiling does not prune its crawl: a descent that ends
	// beyond the ceiling would stop it at once. The ceiling cuts the
	// answer instead, and a cut answer holds fewer than k.
	n := len(out)
	for n > before && cur.pos[out[n-1]].Dist2(p) > cur.knnCeiling2 {
		n--
	}
	if n < len(out) {
		out, cur.knnBound2 = out[:n], math.Inf(1)
	}
	cur.endQuery(c.m)
	cur.stats.Results += int64(len(out) - before)
	return out
}

// KNN implements query.KNNEngine for the hybrid: the analytical model's
// routing carries over with k/V playing the role of the selectivity — a
// kNN query "selects" k of V vertices, so when k/V exceeds the break-even
// selectivity the scan side's selection heap wins over crawling.
func (h *Hybrid) KNN(p geom.Vec3, k int, out []int32) []int32 {
	h.oct.guard.Enter("core")
	defer h.oct.guard.Leave()
	return h.resident.KNN(p, k, out)
}

// routeKNN decides the engine for a kNN query and bumps the routing
// counters.
func (h *Hybrid) routeKNN(k int) (useScan bool) {
	v := h.oct.m.NumVertices()
	if v > 0 && float64(k)/float64(v) >= h.breakEven {
		h.toScan.Add(1)
		return true
	}
	h.toOctopus.Add(1)
	return false
}

// KNN implements query.KNNCursor for the hybrid's cursor, routed like
// Query.
func (c *hybridCursor) KNN(p geom.Vec3, k int, out []int32) []int32 {
	if c.scanned = c.h.routeKNN(k); c.scanned {
		return c.scan.KNN(p, k, out)
	}
	return c.h.oct.knnWith(c.oct, p, k, out)
}

// knnCrawl expands mesh edges best-first from the given start vertices
// (all of one connected component), offering every reached vertex to the
// cursor's k-candidate heap. The frontier (the crawler's heap) is
// ordered by distance to p; expansion stops when the heap holds k
// candidates and the frontier's closest vertex is farther than the k-th
// best — no vertex beyond the frontier can then enter the result,
// provided closer vertices are reachable without crossing the k-th-best
// radius (see the file comment). Multiple starts share one visited set
// (the mark array), so overlapping expansions never offer a vertex twice.
// Vertices at exactly the k-th-best distance keep expanding so id
// tie-breaks match brute force. Under RestrictKNN the crawl still crosses
// masked-out vertices but offers none of them. ceiling2 (+Inf: none) caps
// the stop radius the same strict way, so a vertex exactly at the ceiling
// is still offered.
func (c *Cursor) knnCrawl(p geom.Vec3, starts []int32, ceiling2 float64) {
	c.bumpMarks()
	pos := c.pos
	marks, epoch := c.marks, c.markEpoch
	keep := c.knnKeep
	c.heap = c.heap[:0]
	for _, s := range starts {
		if marks[s] != epoch {
			marks[s] = epoch
			heapPushItem(&c.heap, heapItem{dist: pos[s].Dist2(p), v: s})
		}
	}
	for len(c.heap) > 0 {
		if c.overBudget() {
			c.truncateKNN()
			return
		}
		item := heapPopItem(&c.heap)
		if c.kbest.Full() && item.dist > c.kbest.Bound() || item.dist > ceiling2 {
			return
		}
		if (keep == nil || keep[item.v]) && !c.probedInKNN(item.v) {
			c.kbest.Offer(item.dist, item.v)
		}
		c.crawlVisited++
		c.expanded++
		for _, w := range c.m.Neighbors(item.v) {
			if marks[w] != epoch {
				marks[w] = epoch
				d := pos[w].Dist2(p)
				if (!c.kbest.Full() || d <= c.kbest.Bound()) && !(d > ceiling2) {
					heapPushItem(&c.heap, heapItem{dist: d, v: w})
				}
			}
		}
	}
}

// truncateKNN records a kNN crawl's budget cutoff in the coverage report:
// the abandoned frontier size and the convergence gap between the closest
// abandoned vertex and the k-th-best distance found so far.
func (c *Cursor) truncateKNN() {
	c.cov.Truncated = true
	c.cov.Frontier += int64(len(c.heap))
	if len(c.heap) > 0 {
		if g := knnGap(c.heap[0].dist, c.kbest.Bound()); g > c.cov.BoundGap {
			c.cov.BoundGap = g
		}
	}
	c.heap = c.heap[:0]
}
