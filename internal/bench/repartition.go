package bench

import (
	"fmt"
	"math/rand"
	"time"

	"octopus/internal/geom"
	"octopus/internal/kdtree"
	"octopus/internal/mesh"
	"octopus/internal/meshgen"
	"octopus/internal/query"
	"octopus/internal/shard"
	"octopus/internal/sim"
)

// Repartition is the live re-partitioning experiment (DESIGN.md §13).
// Two stressors, two tables:
//
//   - "repartition": SplitCell/DeleteCell storms against a sharded mesh,
//     K in {2, 4, 8}, in three modes — live (incremental Apply, cuts
//     shift within the default tolerance), frozen (cut shifts disabled)
//     and full (the baseline: a fresh partition and fresh engines after
//     every storm). The migrated-cell and rebuilt-shard fractions are
//     the experiment's headline: live migration touches a small slice
//     of the mesh where the full rebuild pays 100% every time, while
//     keeping the owned-count imbalance near the full rebuild's. The
//     migration counters are workload-deterministic (fixed seed, no
//     wall-clock), so CI trend-gates them.
//   - "repartition-pressure": a query workload aimed at one shard's
//     region, run through the live pipeline with the pressure balancer
//     on vs off. The balancer sheds owned vertices off the hot shard
//     (RepartitionStats.PressureRebalances counts the triggers), which
//     shrinks the index the hot queries wait on.
func Repartition(cfg Config) ([]*Table, error) {
	return repartitionTables(cfg, []int{2, 4, 8})
}

// repartitionTables is the parameterized body of Repartition; the
// short-mode smoke test trims the shard-count sweep.
func repartitionTables(cfg Config, shardCounts []int) ([]*Table, error) {
	storm := &Table{
		ID:    "repartition",
		Title: "Live re-partitioning under SplitCell/DeleteCell storms (box-10 tet mesh)",
		Columns: []string{
			"run", "storms", "ops", "migrated-verts/gen", "migrated-cells[%]",
			"rebuilt-shards[%]", "boundary-shifts", "imbalance-after", "maint[ms]",
		},
	}
	storms := cfg.Steps
	if storms < 2 {
		storms = 2
	}
	for _, k := range shardCounts {
		for _, mode := range []string{"live", "frozen", "full"} {
			row, err := repartitionStorm(cfg, k, mode, storms)
			if err != nil {
				return nil, err
			}
			storm.AddRow(row...)
		}
	}
	storm.Notes = append(storm.Notes,
		"live = incremental Apply (re-key dirty cells, shift cuts within tolerance); frozen = cuts pinned (RebalanceTol < 0); full = from-scratch shard.NewMesh + NewRouter per storm",
		"migrated-cells[%] = cells that changed shard membership / live cells, averaged over storms; full mode is 100 by construction",
		"rebuilt-shards[%] = shards rebuilt / (generations x K); untouched shards keep their sub-meshes and engines",
		"maint = wall time of re-partition publishes plus per-shard engine rebuilds; not trend-gated (runner-dependent)",
	)

	pressure, err := repartitionPressure(cfg)
	if err != nil {
		return nil, err
	}
	return []*Table{storm, pressure}, nil
}

// repartitionStorm drives `storms` rounds of restructuring ops through
// one sharded mesh and reports the accumulated migration statistics. The
// full mode partitions and builds engines from scratch after every storm
// instead, and its row is computed from each fresh partition: everything
// migrates and every shard is rebuilt.
func repartitionStorm(cfg Config, k int, mode string, storms int) ([]any, error) {
	const n = 10
	m, err := meshgen.BuildBoxTet(n, n, n, 1.0/n)
	if err != nil {
		return nil, err
	}
	opts := shard.Options{}
	if mode == "frozen" {
		opts.RebalanceTol = -1
	}
	factory := func(sub *mesh.Mesh) query.ParallelKNNEngine {
		return kdtree.NewEngine(sub, 0)
	}
	sm, err := shard.NewMesh(m, k, opts)
	if err != nil {
		return nil, err
	}
	router := shard.NewRouter(sm, factory)

	rng := rand.New(rand.NewSource(cfg.Seed + int64(k)))
	// Storms hit the bottom slab of the box (cells are laid out in grid
	// order): refinement fronts are spatially clustered, which is what
	// lets the incremental path leave far-away shards untouched.
	cluster := m.NumCells() / 8
	ops := 0
	var maint time.Duration
	var full shard.RepartitionStats
	for storm := 0; storm < storms; storm++ {
		for i := 0; i < 24; i++ {
			if _, _, err := m.SplitCell(rng.Intn(cluster)); err == nil {
				ops++
			}
		}
		for i := 0; i < 4; i++ {
			if _, err := m.DeleteCell(rng.Intn(cluster)); err == nil {
				ops++
			}
		}
		start := time.Now()
		if mode != "full" {
			// Publish: the incremental re-partition swap, then the engine
			// rebuilds of the touched shards.
			router.Step()
			maint += time.Since(start)
			continue
		}
		if sm, err = shard.NewMesh(m, k, opts); err != nil {
			return nil, err
		}
		router = shard.NewRouter(sm, factory)
		maint += time.Since(start)
		maxOwned := 0
		for _, p := range sm.Partition().Parts {
			maxOwned = max(maxOwned, p.NumOwned)
		}
		full.Generations++
		full.MigratedVerts += m.NumVertices()
		full.MigratedCells += m.NumCells()
		full.TotalCellsSeen += m.NumCells()
		full.RebuiltShards += k
		full.ImbalanceAfter = float64(maxOwned*k) / float64(m.NumVertices())
	}
	if err := sm.Partition().Validate(m); err != nil {
		return nil, fmt.Errorf("repartition %s K=%d: %w", mode, k, err)
	}
	st := sm.RepartitionStats()
	if mode == "full" {
		st = full
	}
	if st.Generations == 0 {
		return nil, fmt.Errorf("repartition %s K=%d: no partition swaps in %d storms", mode, k, storms)
	}
	return []any{
		fmt.Sprintf("K=%d/%s", k, mode), storms, ops,
		st.MigratedVerts / st.Generations,
		100 * float64(st.MigratedCells) / float64(st.TotalCellsSeen),
		100 * float64(st.RebuiltShards) / float64(st.Generations*k),
		st.BoundaryShifts,
		st.ImbalanceAfter,
		float64(maint.Microseconds()) / 1e3,
	}, nil
}

// repartitionPressure runs a hot-shard workload through the live
// pipeline with the pressure balancer on vs off.
func repartitionPressure(cfg Config) (*Table, error) {
	t := &Table{
		ID:    "repartition-pressure",
		Title: "Pressure-driven shard balancing: hot-shard workload, K=4, balancer on vs off",
		Columns: []string{
			"mode", "steps", "queries", "lat-p99[us]", "rebalances",
			"hot-owned-before", "hot-owned-after", "imbalance-after",
		},
	}
	nQueries := cfg.Steps * cfg.QueriesPerStep * 4
	if nQueries < 96 {
		nQueries = 96
	}
	for _, balanced := range []bool{false, true} {
		const n = 8
		m, err := meshgen.BuildBoxTet(n, n, n, 1.0/n)
		if err != nil {
			return nil, err
		}
		mode, opts := "frozen", shard.Options{}
		if balanced {
			mode, opts.Pressure = "balanced", shard.PressurePolicy{Factor: 1.3}
		}
		sm, err := shard.NewMesh(m, 4, opts)
		if err != nil {
			return nil, err
		}
		router := shard.NewRouter(sm, func(sub *mesh.Mesh) query.ParallelKNNEngine {
			return kdtree.NewEngine(sub, 0)
		})
		hot := sm.Partition().Parts[0]
		hotBefore := hot.NumOwned
		// Aim every range query inside the hot shard's box so its
		// pressure counter dominates the mean.
		hotSum, _ := hot.Summary()
		center, size := hotSum.Box.Center(), hotSum.Box.Size()
		rng := rand.New(rand.NewSource(cfg.Seed))
		queries := make([]geom.AABB, nQueries)
		for i := range queries {
			p := center.Add(geom.V(
				(rng.Float64()-0.5)*size.X/2,
				(rng.Float64()-0.5)*size.Y/2,
				(rng.Float64()-0.5)*size.Z/2,
			))
			queries[i] = geom.BoxAround(p, 0.15)
		}
		probes := make([]query.KNNQuery, nQueries/8)
		for i := range probes {
			probes[i] = query.KNNQuery{P: center, K: 4}
		}
		d := &sim.NoiseDeformer{Amplitude: 0.01, Frequency: 2, Seed: cfg.Seed}
		pl := &query.Pipeline{
			Engine:   router,
			Mesh:     sm,
			Deform:   d.Step,
			Tick:     300 * time.Microsecond,
			MinSteps: 12,
			MaxSteps: 64,
		}
		report := pl.Run(queries, probes)
		_, latP99 := query.LatencyStats(report.Traces(), 0.99)
		st := sm.RepartitionStats()
		t.AddRow(
			mode, report.Steps, nQueries,
			float64(latP99.Nanoseconds())/1e3,
			st.PressureRebalances,
			hotBefore, sm.Partition().Parts[0].NumOwned,
			st.ImbalanceAfter,
		)
	}
	t.Notes = append(t.Notes,
		"balanced = Router.PostTick trips when the hot shard's pressure EMA exceeds 1.3x the mean; each trip sheds 40% of the hot shard's owned vertices to its neighbors",
		"hot-owned-* = owned vertex count of the targeted shard before/after the run; rebalance counts and latencies depend on tick timing and are not trend-gated",
	)
	return t, nil
}
