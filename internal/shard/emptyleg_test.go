package shard

import (
	"slices"
	"testing"

	"octopus/internal/core"
	"octopus/internal/meshgen"
	"octopus/internal/query"
	"octopus/internal/workload"
)

// TestEmptyLegsBoundedAndExact walks the fan-out plan by hand over a K=4
// partition of a neuron mesh. The plan sends a range query to every shard
// whose one owned box meets it, so on non-convex geometry a good share of
// the legs land on a sub-mesh that holds nothing in the box. Each such
// leg must come back empty after exactly one stalled walk (WalkStalls) and
// at most one pass over its sub-mesh (WalkVisited), and the legs merged
// must equal brute force on the global mesh — as must the router's own
// answer.
//
// Those are the box-only candidate legs. The plan the router runs also
// asks each shard's occupancy bitmap, and the test holds it to its two
// promises on the same traffic: it keeps every leg that has an owned hit,
// and it drops at least three quarters of the legs that have none.
func TestEmptyLegsBoundedAndExact(t *testing.T) {
	m, err := meshgen.Build(meshgen.NeuroL1, 1)
	if err != nil {
		t.Fatal(err)
	}
	// The benchmark's query mix, kept as it keeps it: a query whose
	// single-mesh answer differs from brute force (a box below the mesh
	// spacing, DESIGN.md §8) is outside the crawl's contract and dropped.
	gen := workload.NewGenerator(m, 4096, 18)
	oracle := core.New(m)
	n := 240
	if testing.Short() {
		n = 90
	}
	r := routerOver(t, m, 4)
	sums := r.sm.part.Summaries(nil)
	curs := make([]ExecCursor, len(r.execs))
	stats := func(c *ExecCursor) core.Stats {
		if c.cur == nil {
			return core.Stats{}
		}
		return c.cur.(*core.Cursor).Stats()
	}
	legs, emptyLegs, kept := 0, 0, 0
	ownedEmpty, pruned := 0, 0
	for i := 0; i < n; i++ {
		q := gen.QueryWithSelectivity([]float64{0.0001, 0.001, 0.01}[i%3])
		want := query.BruteForce(m, q)
		if query.Diff(oracle.Query(q, nil), want) != "" {
			continue
		}
		kept++
		plan := PlanRangeFanout(sums, q, nil)
		var merged []int32
		for s := range sums {
			if !sums[s].Box.Intersects(q) {
				continue
			}
			x, cur := r.execs[s], &curs[s]
			holds := len(query.ScanPositions(x.part.Mesh.Positions(), q, nil)) > 0
			before, had := stats(cur), len(merged)
			merged = x.Range(cur, q, merged)
			legs++
			inPlan := slices.Contains(plan, s)
			if len(merged) > had && !inPlan {
				t.Fatalf("query %d: the occupancy plan drops shard %d, which owns %d ids in the box", i, s, len(merged)-had)
			}
			if len(merged) == had {
				ownedEmpty++
				if !inPlan {
					pruned++
				}
			}
			if holds {
				continue
			}
			emptyLegs++
			if len(merged) != had {
				t.Fatalf("query %d shard %d: sub-mesh holds nothing in the box, leg returned %d ids", i, s, len(merged)-had)
			}
			after := stats(cur)
			if d := after.WalkStalls - before.WalkStalls; d != 1 {
				t.Errorf("query %d shard %d: empty leg took the scan %d times, want 1", i, s, d)
			}
			if d, v := after.WalkVisited-before.WalkVisited, int64(x.part.Mesh.NumVertices()); d > v {
				t.Errorf("query %d shard %d: empty leg accessed %d positions, sub-mesh has %d", i, s, d, v)
			}
		}
		if d := query.Diff(merged, want); d != "" {
			t.Fatalf("query %d: merged legs vs brute force: %s", i, d)
		}
		if d := query.Diff(r.Query(q, nil), want); d != "" {
			t.Fatalf("query %d: router vs brute force: %s", i, d)
		}
	}
	if emptyLegs == 0 {
		t.Fatalf("none of %d planned legs was empty; the test exercised nothing", legs)
	}
	var stalls int64
	for s := range curs {
		stalls += stats(&curs[s]).WalkStalls
	}
	t.Logf("%d queries, %d planned legs, %d on a sub-mesh that holds nothing in the box; WalkStalls %d (%.2f per query)",
		kept, legs, emptyLegs, stalls, float64(stalls)/float64(kept))
	if ownedEmpty == 0 {
		t.Fatalf("none of %d legs was owned-empty; the occupancy plan was not exercised", legs)
	}
	t.Logf("occupancy plan: %d legs (%.3f per query), pruned %d of %d owned-empty legs (%.1f %%)",
		legs-pruned, float64(legs-pruned)/float64(kept), pruned, ownedEmpty, 100*float64(pruned)/float64(ownedEmpty))
	if 4*pruned < 3*ownedEmpty {
		t.Errorf("occupancy plan pruned %d of %d owned-empty legs, want at least 75 %%", pruned, ownedEmpty)
	}
}
