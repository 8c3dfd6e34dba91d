package shard

import (
	"octopus/internal/geom"
	"octopus/internal/query"
)

// KNN implements query.KNNCursor: best-first over shards by owned-box
// distance, maintaining the global k best in a query.KBest whose bound
// prunes shards (and, within a shard's Exec, widening rounds) that
// cannot contribute. The result is nearest first with ties broken by ascending
// global id — bit-identical to query.BruteForceKNN whenever every shard
// engine is exact on its sub-mesh.
func (c *Cursor) KNN(p geom.Vec3, k int, out []int32) []int32 {
	r := c.r
	r.sm.deformMu.RLock()
	defer r.sm.deformMu.RUnlock()

	c.epoch = r.sm.Epoch()
	c.cov = query.CrawlCoverage{}
	c.ballOK = false
	r.knnQueries.Add(1)
	if k <= 0 || len(r.execs) == 0 {
		return out
	}

	// Order shards by distance from the probe to their owned-vertex box:
	// the shard containing (or nearest to) p is scanned first, so the
	// bound tightens as early as possible. The plan comes from the shared
	// fan-out planner, so the remote router's visit order is identical.
	c.order = PlanKNNOrder(c.planBoxes(), p, c.order[:0])

	c.kb.Reset(k)
	for _, sd := range c.order {
		// Prune strictly: a shard at exactly the bound distance can still
		// hold an equal-distance vertex with a smaller global id, which
		// the (dist, id) ordering ranks ahead of the current k-th.
		if c.kb.Full() && sd.D2 > c.kb.Bound() {
			break
		}
		r.knnScanned.Add(1)
		cur := &c.curs[sd.Shard]
		if rounds := r.execs[sd.Shard].KNN(cur, p, k, c.kb.Full(), c.kb.Bound(), &c.kb); rounds > 0 {
			r.knnWidenings.Add(int64(rounds))
		}
		c.cov.Add(cur.cov)
	}
	// Capture the kNN ball before AppendSorted drains the heap.
	c.ball2, c.ballOK = c.kb.Bound(), true
	return c.kb.AppendSorted(out)
}
