package shard

import (
	"fmt"
	"slices"
	"testing"
	"time"

	"octopus/internal/core"
	"octopus/internal/geom"
	"octopus/internal/kdtree"
	"octopus/internal/mesh"
	"octopus/internal/query"
	"octopus/internal/sim"
)

// checkRouterExact asserts the router answers a deterministic range and
// kNN workload bit-identically to brute force on the global mesh's
// current positions.
func checkRouterExact(t *testing.T, label string, m *mesh.Mesh, r *Router) {
	t.Helper()
	cur := r.NewCursor()
	defer cur.Close()
	knn := cur.(query.KNNCursor)
	for i := 0; i < 10; i++ {
		q := geom.BoxAround(m.Position(int32(i*29%m.NumVertices())), 0.25+0.05*float64(i%3))
		if d := query.Diff(cur.Query(q, nil), query.BruteForce(m, q)); d != "" {
			t.Fatalf("%s: query %d: %s", label, i, d)
		}
		p := m.Position(int32(i * 41 % m.NumVertices()))
		if got, want := knn.KNN(p, 1+i%7, nil), query.BruteForceKNN(m, p, 1+i%7); !equalIDs(got, want) {
			t.Fatalf("%s: kNN %d: got %v want %v", label, i, got, want)
		}
	}
}

// TestIncrementalRepartitionAfterSplitBurst is the core property of live
// re-partitioning: a burst of SplitCells re-partitions incrementally — no
// full rebuild, only a fraction of vertices migrate, at least one shard
// keeps its sub-mesh (and therefore its engine) by pointer identity — and
// the partition invariants plus query exactness hold on the grown mesh.
func TestIncrementalRepartitionAfterSplitBurst(t *testing.T) {
	m := buildBoxTet(t, 6, 1.0/6)
	sm, err := NewMesh(m, 4, Options{})
	if err != nil {
		t.Fatal(err)
	}
	r := NewRouter(sm, func(sub *mesh.Mesh) query.ParallelKNNEngine { return core.New(sub) })

	before := make([]*mesh.Mesh, sm.K())
	for s, p := range sm.Partition().Parts {
		before[s] = p.Mesh
	}

	for ci := 0; ci < 6; ci++ {
		if _, _, err := m.SplitCell(ci); err != nil {
			t.Fatal(err)
		}
	}
	// Step re-partitions incrementally, publishes through the new tables
	// and runs the rebuild tasks.
	r.Step()

	if err := sm.Partition().Validate(m); err != nil {
		t.Fatal(err)
	}
	st := sm.RepartitionStats()
	if st.Generations != 1 || st.FullRebuilds != 0 {
		t.Fatalf("want exactly one incremental generation, got %+v", st)
	}
	if st.MigratedVerts >= m.NumVertices()/2 {
		t.Fatalf("incremental re-partition migrated %d of %d vertices", st.MigratedVerts, m.NumVertices())
	}
	if st.RebuiltShards >= sm.K() {
		t.Fatalf("all %d shards rebuilt — nothing was shared", st.RebuiltShards)
	}
	shared := 0
	for s, p := range sm.Partition().Parts {
		if p.Mesh == before[s] {
			shared++
		}
	}
	if shared != sm.K()-st.RebuiltShards {
		t.Fatalf("%d shards share their sub-mesh, want %d (K=%d, rebuilt %d)",
			shared, sm.K()-st.RebuiltShards, sm.K(), st.RebuiltShards)
	}
	checkRouterExact(t, "after split burst", m, r)
}

// TestDeleteCellRepartitionsWithoutSetup pins that a sharded mesh sees a
// DeleteCell with nothing enabled anywhere: the burst leaves the vertex
// count unchanged, so only the structural dirt the global mesh records
// from construction can trigger the re-partition at the next Resync —
// one generation, after which no sub-mesh holds a dead cell.
func TestDeleteCellRepartitionsWithoutSetup(t *testing.T) {
	m := buildBoxTet(t, 5, 0.2)
	sm, err := NewMesh(m, 4, Options{})
	if err != nil {
		t.Fatal(err)
	}
	r := NewRouter(sm, func(sub *mesh.Mesh) query.ParallelKNNEngine { return kdtree.NewEngine(sub, 0) })
	dead := []int{3, 200, 410, 731}
	for _, ci := range dead {
		if _, err := m.DeleteCell(ci); err != nil {
			t.Fatal(err)
		}
	}
	sm.Resync()
	if st := sm.RepartitionStats(); st.Generations != 1 || st.FullRebuilds != 0 {
		t.Fatalf("want one incremental generation after a DeleteCell burst, got %+v", st)
	}
	if err := sm.Partition().Validate(m); err != nil {
		t.Fatal(err)
	}
	// A tet is its vertex set: compare sorted global ids.
	globalKey := func(verts []int32, toGlobal []int32) [4]int32 {
		var k [4]int32
		for i, v := range verts {
			k[i] = v
			if toGlobal != nil {
				k[i] = toGlobal[v]
			}
		}
		slices.Sort(k[:])
		return k
	}
	deadKeys := map[[4]int32]bool{}
	for _, ci := range dead {
		deadKeys[globalKey(m.Cells()[ci].Verts[:4], nil)] = true
	}
	for s, p := range sm.Partition().Parts {
		for ci, c := range p.Mesh.Cells() {
			if !c.Dead && deadKeys[globalKey(c.Verts[:4], p.ToGlobal)] {
				t.Fatalf("shard %d still holds dead cell %v as local cell %d", s, globalKey(c.Verts[:4], p.ToGlobal), ci)
			}
		}
	}
	r.Step()
	checkRouterExact(t, "after a DeleteCell burst", m, r)
}

// TestQueriesExactDuringPendingMigration pins the mid-migration window:
// after the partition swap but before the touched shards' rebuild tasks
// have run, their engines do not exist — queries must answer through the
// owned-scan fallback, exactly. Untouched shards' engines lag the fresh
// publish and fall back via staleness; both paths stay bit-exact.
func TestQueriesExactDuringPendingMigration(t *testing.T) {
	m := buildBoxTet(t, 5, 0.2)
	sm, err := NewMesh(m, 4, Options{})
	if err != nil {
		t.Fatal(err)
	}
	r := NewRouter(sm, func(sub *mesh.Mesh) query.ParallelKNNEngine { return kdtree.NewEngine(sub, 0) })

	for ci := 0; ci < 4; ci++ {
		if _, _, err := m.SplitCell(ci); err != nil {
			t.Fatal(err)
		}
	}
	d := &sim.NoiseDeformer{Amplitude: 0.02, Frequency: 2, Seed: 9}
	sm.Deform(func(pos []geom.Vec3) { d.Step(0, pos) }) // re-partitions, then publishes

	if st := sm.RepartitionStats(); st.Generations != 1 {
		t.Fatalf("Deform did not re-partition: %+v", st)
	}
	// Migration pending: nothing has rebuilt the engines yet.
	checkRouterExact(t, "mid-migration", m, r)

	r.Step() // rebuild tasks run to completion
	checkRouterExact(t, "post-migration", m, r)
	if err := sm.Partition().Validate(m); err != nil {
		t.Fatal(err)
	}
}

// TestFrozenToleranceSkipsRebalance pins Options.RebalanceTol < 0: the
// cuts are frozen, so a split burst migrates nothing across boundaries
// (counts drift instead) while queries stay exact.
func TestFrozenToleranceSkipsRebalance(t *testing.T) {
	m := buildBoxTet(t, 6, 1.0/6)
	sm, err := NewMesh(m, 4, Options{RebalanceTol: -1})
	if err != nil {
		t.Fatal(err)
	}
	r := NewRouter(sm, func(sub *mesh.Mesh) query.ParallelKNNEngine { return core.New(sub) })

	for ci := 0; ci < 8; ci++ {
		if _, _, err := m.SplitCell(ci); err != nil {
			t.Fatal(err)
		}
	}
	sm.Resync()
	r.Step()

	st := sm.RepartitionStats()
	if st.BoundaryShifts != 0 {
		t.Fatalf("frozen tolerance shifted %d cut points", st.BoundaryShifts)
	}
	if st.Generations != 1 {
		t.Fatalf("want one generation, got %+v", st)
	}
	if err := sm.Partition().Validate(m); err != nil {
		t.Fatal(err)
	}
	checkRouterExact(t, "frozen", m, r)
}

// TestRebalanceWeighted drives the pressure-rebalance primitive
// directly: shrinking shard 0's weight must move its cut points, shed
// owned vertices from it, keep the invariants, and keep queries exact.
func TestRebalanceWeighted(t *testing.T) {
	m := buildBoxTet(t, 6, 1.0/6)
	sm, err := NewMesh(m, 4, Options{})
	if err != nil {
		t.Fatal(err)
	}
	r := NewRouter(sm, func(sub *mesh.Mesh) query.ParallelKNNEngine { return core.New(sub) })

	before := sm.Partition().Parts[0].NumOwned
	if !sm.Rebalance([]float64{0.4, 1, 1, 1}) {
		t.Fatal("skewed weights moved no cut point")
	}
	st := sm.RepartitionStats()
	if st.PressureRebalances != 1 || st.BoundaryShifts == 0 {
		t.Fatalf("rebalance stats = %+v", st)
	}
	after := sm.Partition().Parts[0].NumOwned
	if after >= before {
		t.Fatalf("shard 0 owned %d -> %d; weight 0.4 should shed vertices", before, after)
	}
	if err := sm.Partition().Validate(m); err != nil {
		t.Fatal(err)
	}
	r.Step() // build engines for the rebuilt shards
	checkRouterExact(t, "rebalanced", m, r)
}

// TestResyncIncrementalScatter: when the global mesh publishes its movers
// through its own Deform (its front is then the second buffer and its
// dirty region is pending), Resync must still land every mover in its
// owner and ghost replicas.
func TestResyncIncrementalScatter(t *testing.T) {
	m := buildBoxTet(t, 5, 0.2)
	sm, err := NewMesh(m, 3, Options{})
	if err != nil {
		t.Fatal(err)
	}

	movers := []int32{0, 7, 33, 90, int32(m.NumVertices() - 1)}
	sm.Global().Deform(func(pos []geom.Vec3) {
		for _, v := range movers {
			pos[v] = pos[v].Add(geom.V(0.013, -0.007, 0.021))
		}
	})
	sm.Resync()

	if err := sm.Partition().Validate(m); err != nil {
		t.Fatal(err)
	}
	// Every replica — owner and ghost — of every mover holds the new
	// position (Validate checks owners; ghosts are the scatter's
	// easy-to-miss half).
	for s, p := range sm.Partition().Parts {
		pos := p.Mesh.Positions()
		for l, g := range p.ToGlobal {
			if got, want := pos[l], m.Position(g); got != want {
				t.Fatalf("shard %d local %d (global %d): %v, want %v", s, l, g, got, want)
			}
		}
	}
}

// TestRepartitionStatsAccumulate: repeated restructuring keeps
// accumulating generations and migrations, and repeated Rebalance calls
// with nil weights are cheap no-ops that still count a generation.
func TestRepartitionStatsAccumulate(t *testing.T) {
	m := buildBoxTet(t, 5, 0.2)
	sm, err := NewMesh(m, 4, Options{})
	if err != nil {
		t.Fatal(err)
	}
	r := NewRouter(sm, func(sub *mesh.Mesh) query.ParallelKNNEngine { return core.New(sub) })

	for round := 0; round < 3; round++ {
		if _, _, err := m.SplitCell(round * 7); err != nil {
			t.Fatal(err)
		}
		if _, err := m.DeleteCell(100 + round); err != nil {
			t.Fatal(err)
		}
		sm.Resync()
		r.Step()
		if err := sm.Partition().Validate(m); err != nil {
			t.Fatalf("round %d: %v", round, err)
		}
	}
	st := sm.RepartitionStats()
	if st.Generations != 3 || st.FullRebuilds != 0 {
		t.Fatalf("want 3 incremental generations, got %+v", st)
	}
	if st.MigratedCells == 0 || st.TotalCellsSeen == 0 {
		t.Fatalf("cell migration accounting missing: %+v", st)
	}
	if frac := float64(st.MigratedCells) / float64(st.TotalCellsSeen); frac > 0.5 {
		t.Fatalf("migrated cell fraction %.2f — incremental path moved too much", frac)
	}
	checkRouterExact(t, "after three rounds", m, r)
}

// TestLiveRepartitionEquivalence is the acceptance bar for the live
// path: for every engine and K ∈ {1, 4}, a pipeline whose Maintain hook
// splits (and, off the convex-only contract, deletes) cells mid-run —
// under a hostile maintenance budget, so migration rebuilds are
// scheduled tasks, not immediate — must answer every range and kNN query
// bit-identically to brute force over the recorded global positions of
// the exact epoch each trace pinned: before, during and after the
// migrations.
func TestLiveRepartitionEquivalence(t *testing.T) {
	for _, ec := range engineCases() {
		for _, K := range []int{1, 4} {
			t.Run(fmt.Sprintf("%s/K=%d", ec.name, K), func(t *testing.T) {
				const steps = 8
				m := buildBoxTet(t, 5, 0.2)
				orig := append([]geom.Vec3(nil), m.Positions()...)
				sm, err := NewMesh(m, K, Options{})
				if err != nil {
					t.Fatal(err)
				}
				router := NewRouter(sm, ec.make)

				var d sim.Deformer = &sim.NoiseDeformer{Amplitude: 0.02, Frequency: 2, Seed: 5}
				if ec.convexOnly {
					d = &sim.AffineDeformer{
						Pivot: m.Bounds().Center(), MaxScale: 0.04,
						MaxRotate: 0.08, MaxShift: 0.04, Seed: 5,
					}
				}

				// Box radii stay >= the mesh spacing (0.2): the crawl
				// engines' exactness contract needs the in-box subgraph
				// connected, which tiny boxes lose under accumulated noise.
				// OCTOPUS-CON's directed walk additionally reaches one
				// component only, and a split centroid can be an isolated
				// in-box component (its only neighbors are its cell's four
				// corners). All split cells sit in the z=0 layer, so CON's
				// query centers stay in the far corner, where no box can
				// reach a centroid.
				centers := orig
				if ec.convexOnly {
					centers = nil
					for _, p := range orig {
						if p.X >= 0.7 && p.Y >= 0.7 && p.Z >= 0.7 {
							centers = append(centers, p)
						}
					}
				}
				var queries []geom.AABB
				for i := 0; i < 48; i++ {
					queries = append(queries, geom.BoxAround(centers[(i*37)%len(centers)], 0.20+0.06*float64(i%4)))
				}
				probes := make([]query.KNNQuery, 20)
				for i := range probes {
					probes[i] = query.KNNQuery{P: orig[(i*53)%len(orig)], K: 1 + i%6}
				}
				// Three passes over the workload: the repeats replay from
				// the result cache across the re-partitions.
				queries, probes = repeat3(queries, probes)

				splitAt := map[int][]int{1: {0, 1, 2}, 3: {10, 11}, 5: {40}}
				deleteAt := map[int][]int{3: {200}, 5: {201}}
				if ec.convexOnly {
					// DeleteCell punches a cavity; the directed walk's
					// exactness contract requires convexity.
					deleteAt = nil
				}

				// snaps[e] is the exact global position array at epoch e —
				// recorded inside the publish, so the oracle sees precisely
				// the vertex set and coordinates of each pinned epoch.
				snaps := [][]geom.Vec3{orig}
				pl := &query.Pipeline{
					Engine: router,
					Mesh:   sm,
					Deform: func(step int, pos []geom.Vec3) {
						d.Step(step, pos)
						snaps = append(snaps, append([]geom.Vec3(nil), pos...))
					},
					Workers:           3,
					MinSteps:          steps,
					MaxSteps:          steps,
					Tick:              200 * time.Microsecond,
					MaintenanceBudget: 30 * time.Microsecond,
					CacheSize:         256,
					Maintain: func(step int) {
						for _, ci := range splitAt[step] {
							if _, _, err := m.SplitCell(ci); err != nil {
								t.Errorf("step %d: SplitCell(%d): %v", step, ci, err)
							}
						}
						for _, ci := range deleteAt[step] {
							if _, err := m.DeleteCell(ci); err != nil {
								t.Errorf("step %d: DeleteCell(%d): %v", step, ci, err)
							}
						}
					},
				}
				report := pl.Run(queries, probes)
				if report.Steps != steps {
					t.Fatalf("writer published %d steps, want %d", report.Steps, steps)
				}

				for i, res := range report.RangeResults {
					tr := report.RangeTraces[i]
					want := query.ScanPositions(snaps[tr.Epoch], queries[i], nil)
					if d := query.Diff(append([]int32(nil), res...), want); d != "" {
						t.Fatalf("range %d at epoch %d (cached=%v): %s", i, tr.Epoch, tr.Cached, d)
					}
				}
				for i, res := range report.KNNResults {
					tr := report.KNNTraces[i]
					want := query.ScanKNNPositions(snaps[tr.Epoch], probes[i].P, probes[i].K, nil)
					if !equalIDs(res, want) {
						t.Fatalf("kNN %d at epoch %d (cached=%v): got %v want %v", i, tr.Epoch, tr.Cached, res, want)
					}
				}

				st := sm.RepartitionStats()
				if st.Generations < 3 {
					t.Fatalf("expected >= 3 re-partition generations, got %+v", st)
				}
				cs := pl.CacheStats()
				t.Logf("cache: %d hits / %d misses, %d invalidated, %d flushes", cs.Hits, cs.Misses, cs.Invalidated, cs.Flushes)
				if cs.Hits == 0 || cs.Flushes < 1 {
					t.Fatalf("cache over %d re-partitions: %+v, want hits and a flush", st.Generations, cs)
				}
				if st.FullRebuilds != 0 {
					t.Fatalf("the global mesh records its dirt — no generation may fall back to a full rebuild: %+v", st)
				}
				if err := sm.Partition().Validate(m); err != nil {
					t.Fatal(err)
				}

				// After the run (engines drained to the head), a fresh batch
				// over the final mesh must also be exact.
				final := query.ExecuteBatch(router, queries, 3)
				for qi, q := range queries {
					want := query.BruteForce(m, q)
					if d := query.Diff(final[qi], want); d != "" {
						t.Fatalf("post-run batch query %d: %s", qi, d)
					}
				}
			})
		}
	}
}

// TestPressurePolicyRebalancesHotShard drives a skewed query load at one
// shard through a live pipeline with the pressure balancer enabled: the
// hot shard must shed owned vertices (a pressure re-partition), queries
// stay exact throughout, and the scheduler's target swap keeps aggregate
// stats monotone.
func TestPressurePolicyRebalancesHotShard(t *testing.T) {
	const seed = 12
	m := buildBoxTet(t, 6, 1.0/6)
	orig := append([]geom.Vec3(nil), m.Positions()...)
	sm, err := NewMesh(m, 4, Options{Pressure: PressurePolicy{Factor: 1.5}})
	if err != nil {
		t.Fatal(err)
	}
	router := NewRouter(sm, func(sub *mesh.Mesh) query.ParallelKNNEngine { return core.New(sub) })

	hot := sm.Partition().Parts[0]
	hotOwned := hot.NumOwned
	// Aim every query at shard 0's owned box: its pressure EMA dominates.
	var queries []geom.AABB
	for i := 0; i < 160; i++ {
		c := hot.Mesh.Positions()[i%len(hot.ToGlobal)]
		queries = append(queries, geom.BoxAround(c, 0.10))
	}
	queries, _ = repeat3(queries, nil)
	d := &sim.NoiseDeformer{Amplitude: 0.02, Frequency: 2, Seed: seed}
	// snaps[e] is the global position array at epoch e, recorded by the
	// writer itself (replayPositions drives a different amplitude).
	snaps := [][]geom.Vec3{orig}
	pl := &query.Pipeline{
		Engine: router,
		Mesh:   sm,
		Deform: func(step int, pos []geom.Vec3) {
			d.Step(step, pos)
			snaps = append(snaps, append([]geom.Vec3(nil), pos...))
		},
		Workers:   3,
		MinSteps:  12,
		MaxSteps:  24,
		Tick:      200 * time.Microsecond,
		CacheSize: 512,
	}
	report := pl.Run(queries, nil)

	st := sm.RepartitionStats()
	if st.PressureRebalances == 0 {
		t.Fatalf("no pressure rebalance over %d steps of skewed load: %+v", report.Steps, st)
	}
	if got := sm.Partition().Parts[0].NumOwned; got >= hotOwned {
		t.Fatalf("hot shard owned %d -> %d; the balancer should shed", hotOwned, got)
	}
	if err := sm.Partition().Validate(m); err != nil {
		t.Fatal(err)
	}
	for i, res := range report.RangeResults {
		tr := report.RangeTraces[i]
		want := query.ScanPositions(snaps[tr.Epoch], queries[i], nil)
		if d := query.Diff(append([]int32(nil), res...), want); d != "" {
			t.Fatalf("range %d at epoch %d (cached=%v): %s", i, tr.Epoch, tr.Cached, d)
		}
	}
	cs := pl.CacheStats()
	t.Logf("cache: %d hits / %d misses, %d invalidated, %d flushes over %d steps", cs.Hits, cs.Misses, cs.Invalidated, cs.Flushes, report.Steps)
	if cs.Hits == 0 || cs.Flushes < 1 {
		t.Fatalf("cache over %d pressure rebalances: %+v, want hits and a flush", st.PressureRebalances, cs)
	}
}

// repeat3 returns three passes over queries and probes, pass after pass.
func repeat3(queries []geom.AABB, probes []query.KNNQuery) ([]geom.AABB, []query.KNNQuery) {
	var qs []geom.AABB
	var ps []query.KNNQuery
	for range 3 {
		qs = append(qs, queries...)
		ps = append(ps, probes...)
	}
	return qs, ps
}
