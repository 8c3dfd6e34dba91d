package core

import (
	"math"
	"time"

	"octopus/internal/geom"
)

// This file implements k-nearest-neighbor queries for the OCTOPUS family
// by mesh crawling — the same machinery that answers range queries without
// index maintenance, aimed at the paper's naturally kNN-shaped monitoring
// scenarios ("the k synapses closest to this probe point"). The crawl goes
// first and the probe last, so the probe runs under the k-th-best bound of
// what the crawl found instead of making its own from surface distances
// (DESIGN.md §8):
//
//  1. Start — the walk start a no-seed range query takes: the leaf whose
//     box is nearest the probe point, by a nearest-first search over the
//     two levels of block boxes, and in it the vertex nearest p.
//  2. Descent and crawl — greedily walk from that vertex to a local
//     minimum of the distance to p, then expand mesh edges best-first,
//     keeping the k best candidates in a bounded max-heap (Cursor.kbest)
//     and stopping once the frontier's next vertex is farther than the
//     current k-th best.
//  3. Surface probe — search the boxes nearest-first under the crawl's
//     bound and offer every surface vertex within it that the crawl did
//     not mark. The crawl's push and stop tests are strict, so a vertex it
//     marked was either offered or seen strictly beyond a bound that has
//     only tightened since: no surface vertex is missing from the result,
//     even one in a concave pocket the crawl cannot reach. The one
//     exception, the frontier a budget cutoff abandons, is unmarked and so
//     handed to the probe.
//  4. Folds — crawl again, in the same mark epoch, from the min(k, 8)
//     unmarked surface vertices nearest p within the final bound and from
//     the representative of every other connected component that holds
//     none of them, offering only what the probe did not. When p sits
//     between two folds of the mesh (two branches of a neuron) the k-ball
//     spans both, and a crawl seeded in one stops at the k-th-best radius
//     before reaching the other; any fold inside the ball presents
//     surface inside the ball, and that surface is unmarked — a crawl
//     that had reached it would have marked it — so seeding from the
//     nearest unmarked surface still seeds every fold the ball meets.
//     Disjoint sub-meshes (the two-neuron datasets, restructured
//     fragments) are searched from their representatives — except a
//     component whose box (mesh.BlockBoxes.Comp, the bounds of its
//     surface) lies strictly beyond the probe's bound: none of its
//     vertices can enter the answer, so its descent is skipped.
//
// Like the range crawl, the stop criterion assumes the distance field over
// the mesh graph has no deep local ridges: the k-th-best radius must not
// cut the graph between a start and a closer pocket. The component skip
// assumes every vertex of a component lies inside the box of its surface,
// which holds for any solid whose cells are not inverted. On the solid,
// well-shaped meshes of the evaluation both hold and results equal brute
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
	cur.armCrawl()
	before := len(out)
	pos := cur.beginQuery(o.m)
	cur.kbest.Reset(k)
	cur.bumpMarks() // one visited set for every crawl of the query
	ceiling2 := cur.knnCeiling2

	// Step 1: a surface vertex near p, found as a no-seed range query's
	// walk start is — beyond a RestrictKNN ceiling too: the descent from
	// it is what reaches the interior vertices within the ceiling when no
	// surface vertex is.
	clock := time.Now()
	s0, boxes, positions := o.knnStart(cur, p, pos)
	cur.stats.ProbeBoxes += boxes
	cur.stats.ProbeChecked += boxes + positions
	cur.stats.SurfaceProbe += lap(&clock)

	// Step 2: descend from it and crawl, offering every vertex popped —
	// nothing has been offered yet.
	cur.stats.DirectedWalks++
	cur.knnIdx = nil
	startComp := int32(-1)
	if s0 >= 0 {
		startComp = o.compOf[s0]
		cur.seeds = append(cur.seeds[:0], cur.pointDescent(p, s0))
		cur.stats.DirectedWalk += lap(&clock)
		cur.knnCrawl(p, cur.seeds, ceiling2)
		cur.stats.Crawl += lap(&clock)
	}

	// Step 3: the surface the crawl did not mark, within its bound. From
	// here on the crawl skips the vertices the probe covers
	// (probedInKNN).
	cur.knnIdx = o.idx
	kp := knnProbe{
		want:  min(k, maxKNNStarts),
		bound: min(ceiling2, cur.kbest.Bound()),
		keep:  cur.knnKeep,
		marks: cur.marks,
		epoch: cur.markEpoch,
	}
	boxes, positions = o.probeKNN(cur, &kp, p, pos)
	cur.stats.ProbeBoxes += boxes
	cur.stats.ProbeChecked += boxes + positions
	cur.stats.SurfaceProbe += lap(&clock)

	// Step 4: the folds, and every component step 2 did not start in
	// that holds no fold, from its representative: one crawl from all of
	// their descents. A component whose box lies strictly beyond the
	// bound holds no vertex within it, so it is skipped.
	folds := kp.folds()
	cur.seeds = cur.seeds[:0]
	for _, c := range folds {
		cur.seeds = append(cur.seeds, c.v)
	}
	comp, q := o.idx.Boxes(cur.epoch).Comp, geom.AABB{Min: p, Max: p}
	for ci, rep := range o.compReps {
		started := int32(ci) == startComp
		for _, c := range folds {
			started = started || o.compOf[c.v] == int32(ci)
		}
		if !started && !(gap2(&comp[ci], &q) > kp.bound) {
			cur.seeds = append(cur.seeds, rep)
		}
	}
	if len(cur.seeds) > 0 {
		for i, s := range cur.seeds {
			cur.seeds[i] = cur.pointDescent(p, s)
		}
		cur.stats.DirectedWalk += lap(&clock)
		cur.knnCrawl(p, cur.seeds, ceiling2)
		cur.stats.Crawl += lap(&clock)
	}

	cur.endQuery(o.m)
	cur.captureKNNBall()
	out = cur.kbest.AppendSorted(out)
	cur.stats.Results += int64(len(out) - before)
	return out
}

// lap returns the time since *clock and restarts it: the phase timer of
// a query whose phases alternate.
func lap(clock *time.Time) time.Duration {
	now := time.Now()
	d := now.Sub(*clock)
	*clock = now
	return d
}

// maxKNNStarts bounds the folds step 4 crawls from (min(k, maxKNNStarts)
// of the unmarked surface vertices nearest p within the final bound):
// enough to seed every mesh fold near the probe point, small enough that
// the insertion array stays in registers.
const maxKNNStarts = 8

// knnFold is a fold candidate of the kNN surface probe: vertex v at
// surface slot slot, squared distance d from the probe point.
type knnFold struct {
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
	cur.armCrawl()
	before := len(out)
	cur.beginQuery(c.m)

	t0 := time.Now()
	gridStart, ok := c.grid.NearestPopulated(p)
	cur.stats.SurfaceProbe += time.Since(t0) // grid lookup plays the probe's role

	cur.kbest.Reset(k)
	cur.knnIdx = nil // no surface probe: the crawl offers everything
	cur.bumpMarks()
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

	cur.captureKNNBall()
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

// knnCrawl expands mesh edges best-first from the given start vertices,
// offering every reached vertex the probe does not cover (probedInKNN) to
// the cursor's k-candidate heap. The frontier (the crawler's heap) is
// ordered by distance to p; expansion stops when the heap holds k
// candidates and the frontier's closest vertex is farther than the k-th
// best — no vertex beyond the frontier can then enter the result,
// provided closer vertices are reachable without crossing the k-th-best
// radius (see the file comment). The starts and every crawl of the query
// share one visited set (the kNN mark array, armed by the caller with
// bumpMarks), so overlapping expansions never offer a vertex twice, and a
// marked vertex was either offered or seen strictly beyond the bound:
// vertices at exactly the k-th-best distance are pushed and popped, so id
// tie-breaks match brute force. Under RestrictKNN the crawl still crosses
// masked-out vertices but offers none of them. ceiling2 (+Inf: none) caps
// the stop radius the same strict way, so a vertex exactly at the
// ceiling is still offered.
func (c *Cursor) knnCrawl(p geom.Vec3, starts []int32, ceiling2 float64) {
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
		if c.overBudget(1) {
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

// truncateKNN records a kNN crawl's budget cutoff in the coverage report
// — the abandoned frontier's size, and its nearest distance for the bound
// gap (captureKNNBall) — and hands the frontier back to the probe: its
// vertices were marked but never offered, so they are unmarked, and the
// probe that follows offers the surface vertices among them.
func (c *Cursor) truncateKNN() {
	c.cov.Truncated = true
	c.cov.Frontier += int64(len(c.heap))
	if len(c.heap) > 0 && c.heap[0].dist < c.knnCut2 {
		c.knnCut2 = c.heap[0].dist
	}
	for _, it := range c.heap {
		c.marks[it.v] = 0 // never the current epoch: bumpMarks skips 0
	}
	c.heap = c.heap[:0]
}

// captureKNNBall records the kNN ball before AppendSorted drains the heap
// (Bound reads the heap root), and the bound gap of a budget-cut query
// against it: the gap of the returned answer, after the probe.
func (c *Cursor) captureKNNBall() {
	c.knnBound2, c.knnBoundOK = c.kbest.Bound(), true
	if c.cov.Frontier > 0 {
		c.cov.BoundGap = knnGap(c.knnCut2, c.knnBound2)
	}
}
