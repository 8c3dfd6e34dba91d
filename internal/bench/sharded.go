package bench

import (
	"fmt"
	"time"

	"octopus/internal/mesh"
	"octopus/internal/meshgen"
	"octopus/internal/query"
	"octopus/internal/shard"
	"octopus/internal/sim"
	"octopus/internal/workload"
)

// Sharded is the partitioned-execution experiment (DESIGN.md §10). For
// every engine and dataset it sweeps the shard count K over {1, 2, 4, 8}
// and reports the standard measurement loop's response time (maintenance
// + query, the Figure-6 accounting) against the unsharded engine, plus
// the router's measured fan-out: the average number of shards a range
// query touches and a kNN query actually scans (after KBest-bound
// pruning) — the locality the Hilbert cut buys. The live pipeline's
// latency and staleness, unsharded against K=4, are the maintain
// experiment's incremental rows.
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

	t.Notes = append(t.Notes,
		"vs-unsharded = unsharded engine's total response / this row's (higher = sharding helps)",
		"total = maintenance + query time (Figure-6 accounting); sharded rows include the per-step O(V) position scatter into the sub-meshes as maintenance",
		"fan-out = shards touched per range query / scanned per kNN after bound pruning",
		"ghosts = replicated cut-ring vertices as a share of all shard-local vertices",
	)
	return []*Table{t}, nil
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
