package shard

// FuzzPartition exercises the partitioner on random geometry: partial
// Kuhn grids (non-convex, hole-ridden, often disconnected) under random
// deformation, cut into an arbitrary number of shards. Every input must
// yield an exact partition — vertex coverage, round-tripping remaps,
// box containment, ghost closure and cut-edge symmetry (all folded into
// Partition.Validate) — and a router over it must answer spot-check
// range and kNN queries exactly against brute force. A restructuring
// burst (random SplitCell/DeleteCell ops) then round-trips the live
// re-partition machinery — full re-key or incremental Apply plus a
// weighted boundary-shift rebalance — and the same oracle must hold
// mid-migration (owned-scan fallback) and after the rebuild. CI runs a
// short -fuzz smoke; the committed corpus under testdata/fuzz seeds the
// interesting regimes (K=1, K=V, sparse disconnected grids, dense
// grids, degenerate single-cube meshes, tracked and untracked bursts).

import (
	"math"
	"math/rand"
	"testing"

	"octopus/internal/geom"
	"octopus/internal/linearscan"
	"octopus/internal/mesh"
	"octopus/internal/query"
	"octopus/internal/sim"
)

func FuzzPartition(f *testing.F) {
	f.Add(int64(1), uint64(2), 0.8, uint64(0))
	f.Add(int64(9), uint64(1), 0.3, uint64(3))
	f.Add(int64(-3), uint64(8), 0.55, uint64(13)) // tracked incremental burst
	f.Add(int64(42), uint64(5), 1.0, uint64(6))
	f.Add(int64(7), uint64(1000), 0.25, uint64(1)) // K clamps to V
	f.Add(int64(0), uint64(3), 0.0, uint64(15))    // degenerate single-cube mesh

	f.Fuzz(func(t *testing.T, seed int64, kRaw uint64, keep float64, burst uint64) {
		if math.IsNaN(keep) {
			keep = 0.5
		}
		keep = math.Abs(keep)
		keep -= math.Floor(keep) // into [0,1)
		r := rand.New(rand.NewSource(seed))
		m := buildPartialGrid(t, 3+int(uint64(seed)%3), keep, r)
		d := &sim.NoiseDeformer{Amplitude: 0.06, Frequency: 1.7, Seed: seed}
		for step := 0; step < int(uint64(seed)%3); step++ {
			d.Step(step, m.Positions())
		}

		k := int(kRaw%16) + 1
		part, err := NewPartition(m, k, Options{})
		if err != nil {
			t.Fatal(err)
		}
		if err := part.Validate(m); err != nil {
			t.Fatal(err)
		}

		// Routing oracle: the scan is exact on any geometry (including
		// the isolated vertices DeleteCell can leave behind), so a
		// sharded scan must be exactly brute force.
		sm := &Mesh{global: m, part: part, dirtyLog: mesh.NewDirtyLog(0)}
		router := NewRouter(sm, func(sub *mesh.Mesh) query.ParallelKNNEngine { return linearscan.New(sub) })
		checkExact := func(stage string) {
			bounds := m.Bounds()
			diag := bounds.Size().Len()
			boxes := []geom.AABB{
				bounds,
				geom.BoxAround(m.Position(int32(uint64(seed)%uint64(m.NumVertices()))), 0.2*diag),
				geom.BoxAround(bounds.Center(), 0.4*diag),
				geom.BoxAround(bounds.Max.Add(geom.V(diag, diag, diag)), 1),
			}
			for bi, q := range boxes {
				if d := query.Diff(router.Query(q, nil), query.BruteForce(m, q)); d != "" {
					t.Fatalf("%s box %d: %s", stage, bi, d)
				}
			}
			probe := bounds.Center()
			for _, kq := range []int{1, 4, m.NumVertices() + 1} {
				got := router.KNN(probe, kq, nil)
				want := query.BruteForceKNN(m, probe, kq)
				if !equalIDs(got, want) {
					t.Fatalf("%s kNN k=%d: got %v want %v", stage, kq, got, want)
				}
			}
		}
		checkExact("static")

		// Re-partition round-trip: a burst of restructuring ops, applied
		// through the same publish path the live pipeline uses, must keep
		// the partition valid and the router exact at every stage.
		nOps := int(burst % 8)
		if nOps == 0 {
			return
		}
		rr := rand.New(rand.NewSource(seed ^ int64(burst)))
		for op := 0; op < nOps; op++ {
			ci := rr.Intn(m.NumCells())
			if op%3 == 2 {
				m.DeleteCell(ci) // deleted targets are fine: the op just errors
			} else {
				m.SplitCell(ci)
			}
		}
		sm.Resync()
		if err := sm.Partition().Validate(m); err != nil {
			t.Fatalf("after restructuring burst: %v", err)
		}
		// Mid-migration: touched shards answer via the owned-scan
		// fallback until their rebuild tasks run.
		checkExact("mid-migration")
		router.Step()
		checkExact("rebuilt")

		// A weighted boundary shift on the grown mesh must preserve the
		// same invariants and exactness.
		w := make([]float64, sm.K())
		for i := range w {
			w[i] = 0.5 + rr.Float64()
		}
		sm.Rebalance(w)
		if err := sm.Partition().Validate(m); err != nil {
			t.Fatalf("after rebalance: %v", err)
		}
		router.Step()
		checkExact("rebalanced")
	})
}
