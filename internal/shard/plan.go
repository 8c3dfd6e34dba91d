package shard

import (
	"cmp"
	"slices"

	"octopus/internal/geom"
)

// Fan-out planning from shard metadata alone: the inputs are nothing but
// the per-shard summaries — owned-vertex box and occupancy bitmap, plain
// data that serializes — so the Fanout makes the same routing decisions
// whether its legs are in-process executors or shard servers (DESIGN.md
// §15).

// ShardDist is one entry of a kNN visit plan: a shard id and the squared
// distance from the probe to the shard's owned-vertex box.
type ShardDist struct {
	Shard int
	D2    float64
}

// PlanRangeFanout appends to out the ids of the shards whose owned box
// intersects the query box and whose occupancy bitmap has a cell in it,
// in ascending shard order — exactly the set the router fans a range
// query out to. A shard dropped by either test owns nothing in q.
func PlanRangeFanout(sums []Summary, q geom.AABB, out []int) []int {
	for s := range sums {
		if sums[s].Box.Intersects(q) && sums[s].Occ.Meets(q) {
			out = append(out, s)
		}
	}
	return out
}

// PlanKNNOrder appends to out every shard with its box distance to the
// probe, sorted by (D2, Shard) ascending — the kNN best-first visit
// order. The caller prunes the tail once its KBest bound drops below the
// next entry's D2; ties at the bound must not be pruned (an
// equal-distance candidate with a smaller global id still wins under the
// (dist, id) order).
func PlanKNNOrder(sums []Summary, p geom.Vec3, out []ShardDist) []ShardDist {
	base := len(out)
	for s := range sums {
		out = append(out, ShardDist{Shard: s, D2: sums[s].Box.Dist2(p)})
	}
	slices.SortFunc(out[base:], compareShardDist)
	return out
}

// compareShardDist orders a kNN plan by (D2, Shard). It captures nothing,
// so sorting a plan allocates nothing.
func compareShardDist(a, b ShardDist) int {
	if a.D2 != b.D2 {
		return cmp.Compare(a.D2, b.D2)
	}
	return cmp.Compare(a.Shard, b.Shard)
}

// Summaries appends the per-shard summaries, in shard order — the
// complete input of the in-process fan-out planner. Each is valid at its
// sub-mesh's current published epoch, which under the coherence gate is
// the partition's; callers that must not observe a mid-publish state
// read them there. The first caller at a new epoch computes each shard's
// summary (Part.Summary), and callers that arrive during that pass wait
// for it.
func (pt *Partition) Summaries(out []Summary) []Summary {
	for _, p := range pt.Parts {
		sum, _ := p.Summary()
		out = append(out, sum)
	}
	return out
}
