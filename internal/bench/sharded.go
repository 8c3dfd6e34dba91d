package bench

import (
	"fmt"
	"time"

	"octopus/internal/geom"
	"octopus/internal/mesh"
	"octopus/internal/meshgen"
	"octopus/internal/query"
	"octopus/internal/shard"
	"octopus/internal/sim"
	"octopus/internal/workload"
)

// Sharded is the partitioned-execution experiment (DESIGN.md §10). For
// every engine and dataset it sweeps the shard count K over {1, 2, 4, 8}
// and reports:
//
//   - the standard measurement loop's response time (maintenance + query,
//     the Figure-6 accounting) against the unsharded engine, plus the
//     router's measured fan-out: the average number of shards a range
//     query touches and a kNN query actually scans (after KBest-bound
//     pruning) — the locality the Hilbert cut buys;
//   - a live-pipeline section comparing result staleness and latency of
//     the unsharded engine against K=4 on the largest dataset of the
//     sweep: per-shard maintenance lets queries keep draining while
//     individual shards rebuild, so staleness must not regress.
func Sharded(cfg Config) ([]*Table, error) {
	return shardedTables(cfg,
		[]meshgen.Dataset{meshgen.NeuroL2, meshgen.DSHorse},
		knnEngineFactories(),
		[]int{1, 2, 4, 8})
}

// shardedTables is the parameterized body of Sharded; the short-mode
// smoke test trims the sweep.
func shardedTables(cfg Config, datasets []meshgen.Dataset, factories []knnEngineFactory, shardCounts []int) ([]*Table, error) {
	t := &Table{
		ID:    "sharded",
		Title: "Sharded execution: response time and fan-out vs shard count K",
		Columns: []string{
			"dataset", "engine", "K", "total[ms]", "vs-unsharded[x]",
			"range-fanout[shards/q]", "knn-scan[shards/q]", "ghosts[%]",
		},
	}

	// Partitions are immutable (Step re-publishes positions from the
	// global mesh every step), so one sharded mesh per (dataset, K) is
	// shared by every engine's run.
	smCache := map[string]*shard.Mesh{}
	for _, ds := range datasets {
		for _, f := range factories {
			base, err := shardedRun(ds, cfg, f, 0, smCache)
			if err != nil {
				return nil, err
			}
			for _, k := range shardCounts {
				res, err := shardedRun(ds, cfg, f, k, smCache)
				if err != nil {
					return nil, err
				}
				t.AddRow(
					string(ds), f.name, k,
					float64(res.total.Microseconds())/1e3,
					float64(base.total)/float64(res.total),
					res.rangeFanout, res.knnFanout,
					100*res.ghostFrac,
				)
			}
		}
	}

	live, err := shardedLive(cfg, datasets[0], factories)
	if err != nil {
		return nil, err
	}
	t.Notes = append(t.Notes,
		"vs-unsharded = unsharded engine's total response / this row's (higher = sharding helps)",
		"total = maintenance + query time (Figure-6 accounting); sharded rows include the per-step O(V) position scatter into the sub-meshes as maintenance",
		"fan-out = shards touched per range query / scanned per kNN after bound pruning",
		"ghosts = replicated cut-ring vertices as a share of all shard-local vertices",
	)
	return []*Table{t, live}, nil
}

// shardedRunResult carries one (engine, K) measurement.
type shardedRunResult struct {
	total       time.Duration
	rangeFanout float64
	knnFanout   float64
	ghostFrac   float64
}

// shardedRun executes the standard measurement loop (deform, maintain,
// query — range and kNN per step) for one engine on one dataset, sharded
// K ways (K = 0 runs the plain unsharded engine).
func shardedRun(ds meshgen.Dataset, cfg Config, f knnEngineFactory, k int, smCache map[string]*shard.Mesh) (*shardedRunResult, error) {
	m, err := meshgen.BuildCached(ds, cfg.Scale)
	if err != nil {
		return nil, err
	}
	deformer, err := sim.DefaultDeformer(ds, sim.DefaultAmplitude)
	if err != nil {
		return nil, err
	}
	gen := workload.NewGenerator(m, 4096, cfg.Seed)

	var eng query.ParallelKNNEngine
	var router *shard.Router
	if k == 0 {
		eng = f.make(m)
	} else {
		key := fmt.Sprintf("%s/%d", ds, k)
		sm := smCache[key]
		if sm == nil {
			sm, err = shard.NewMesh(m, k, shard.Options{})
			if err != nil {
				return nil, err
			}
			smCache[key] = sm
		}
		// The cached partition may hold the previous run's deformed
		// positions; re-publish the pristine global state so the inner
		// engines preprocess the same geometry as the unsharded baseline.
		sm.Resync()
		router = shard.NewRouter(sm, func(sub *mesh.Mesh) query.ParallelKNNEngine { return f.make(sub) })
		eng = router
	}

	simulation := sim.New(m, deformer)
	res := &shardedRunResult{}
	var out []int32
	for step := 0; step < cfg.Steps; step++ {
		simulation.Step()
		queries := gen.UniformQueries(cfg.QueriesPerStep, cfg.Selectivity)
		probes := gen.KNNQueries(cfg.QueriesPerStep/2+1, 4, 16, 0.05)
		// The Figure-6 accounting: maintenance + query time only; the
		// simulation step and workload generation stay off the clock,
		// like bench.Run.
		start := time.Now()
		eng.Step()
		for _, q := range queries {
			out = eng.Query(q, out[:0])
		}
		for _, p := range probes {
			out = eng.KNN(p.P, p.K, out[:0])
		}
		res.total += time.Since(start)
	}

	if router != nil {
		rq, rf, kq, ks, _ := router.FanoutStats()
		if rq > 0 {
			res.rangeFanout = float64(rf) / float64(rq)
		}
		if kq > 0 {
			res.knnFanout = float64(ks) / float64(kq)
		}
		local, ghosts := 0, 0
		for _, p := range router.Mesh().Partition().Parts {
			local += len(p.ToGlobal)
			ghosts += p.Ghosts()
		}
		if local > 0 {
			res.ghostFrac = float64(ghosts) / float64(local)
		}
	}
	return res, nil
}

// shardedLive compares the live pipeline's latency and staleness of each
// engine unsharded vs sharded K=4 on one dataset: the per-shard
// maintenance acceptance check.
func shardedLive(cfg Config, ds meshgen.Dataset, factories []knnEngineFactory) (*Table, error) {
	t := &Table{
		ID:    "sharded-live",
		Title: fmt.Sprintf("Sharded live pipeline on %s: staleness with per-shard maintenance (K=4) vs single mesh", ds),
		Columns: []string{
			"engine", "mode", "steps", "lat-mean[us]", "lat-p99[us]",
			"stale-mean[epochs]", "stale-max[epochs]",
		},
	}
	nQueries := cfg.Steps * cfg.QueriesPerStep
	if nQueries < 64 {
		nQueries = 64
	}
	if nQueries > 384 {
		nQueries = 384
	}

	// Two private meshes (pipelines deform as they go), shared across
	// engines with a pristine-position restore between runs: one for
	// single-mesh mode, one partitioned K=4. The restore goes through
	// Deform so the sharded side republishes every sub-mesh.
	single, err := meshgen.Build(ds, cfg.Scale)
	if err != nil {
		return nil, err
	}
	sharded, err := meshgen.Build(ds, cfg.Scale)
	if err != nil {
		return nil, err
	}
	sm, err := shard.NewMesh(sharded, 4, shard.Options{})
	if err != nil {
		return nil, err
	}
	// One pristine copy per mesh: the two Build calls produce identical
	// geometry today, but each restore must only ever depend on its own
	// mesh's initial state.
	origSingle := append([]geom.Vec3(nil), single.Positions()...)
	origSharded := append([]geom.Vec3(nil), sharded.Positions()...)

	for _, f := range factories {
		for _, mode := range []string{"single", "K=4"} {
			deformer, err := sim.DefaultDeformer(ds, sim.DefaultAmplitude)
			if err != nil {
				return nil, err
			}

			var eng query.ParallelKNNEngine
			var dm query.DeformableMesh
			var m *mesh.Mesh
			if mode == "single" {
				m = single
				m.Deform(func(pos []geom.Vec3) { copy(pos, origSingle) })
				eng = f.make(m)
				dm = m
			} else {
				m = sharded
				sm.Deform(func(pos []geom.Vec3) { copy(pos, origSharded) })
				eng = shard.NewRouter(sm, func(sub *mesh.Mesh) query.ParallelKNNEngine { return f.make(sub) })
				dm = sm
			}
			gen := workload.NewGenerator(m, 4096, cfg.Seed)
			queries := gen.UniformQueries(nQueries, cfg.Selectivity)
			probes := gen.KNNQueries(nQueries/4, 4, 16, 0.05)
			pl := &query.Pipeline{
				Engine:   eng,
				Mesh:     dm,
				Deform:   deformer.Step,
				Tick:     500 * time.Microsecond,
				MinSteps: 2,
			}
			report := pl.Run(queries, probes)
			traces := report.Traces()
			latMean, latP99 := query.LatencyStats(traces, 0.99)
			staleMean, staleMax := query.StalenessStats(traces)
			t.AddRow(
				f.name, mode, report.Steps,
				float64(latMean.Nanoseconds())/1e3,
				float64(latP99.Nanoseconds())/1e3,
				staleMean, staleMax,
			)
		}
	}
	t.Notes = append(t.Notes,
		"K=4: router serializes maintenance per shard, so one shard's rebuild stalls only the queries that fan out to it",
		"staleness = head epoch - answer epoch at completion; OCTOPUS-family engines answer at the pinned epoch in both modes",
	)
	return t, nil
}
