package bench

import (
	"fmt"

	"octopus/internal/geom"
	"octopus/internal/mesh"
	"octopus/internal/meshgen"
	"octopus/internal/query"
	"octopus/internal/shard"
)

// Sharded is the partitioned-execution experiment (DESIGN.md §10). For
// every engine and dataset it runs the standard measurement loop (Run:
// deform, maintain, range queries and kNN probes per step, the Figure-6
// accounting) over the unsharded engine and, beside it on the same
// deforming positions, one router per shard count K in {1, 2, 4, 8}. It
// reports each router's response time against the unsharded engine, plus
// the router's measured fan-out: the average number of shards a range
// query touches and a kNN query actually scans (after KBest-bound
// pruning) — the locality the Hilbert cut buys. The live pipeline's
// latency and staleness, unsharded against K=4, are the maintain
// experiment's incremental rows.
func Sharded(cfg Config) ([]*Table, error) {
	return shardedTables(cfg,
		[]meshgen.Dataset{meshgen.NeuroL2, meshgen.DSHorse},
		AllEngines(),
		[]int{1, 2, 4, 8})
}

// shardedTables is the parameterized body of Sharded; the smoke test
// trims the sweep.
func shardedTables(cfg Config, datasets []meshgen.Dataset, factories []EngineFactory, shardCounts []int) ([]*Table, error) {
	t := &Table{
		ID:    "sharded",
		Title: "Sharded execution: response time and fan-out vs shard count K",
		Columns: []string{
			"dataset", "engine", "K", "total[ms]", "vs-unsharded[x]",
			"range-fanout[shards/q]", "knn-scan[shards/q]", "ghosts[%]",
		},
	}

	for _, ds := range datasets {
		m, err := meshgen.BuildCached(ds, cfg.Scale)
		if err != nil {
			return nil, err
		}
		// Partitions are immutable (Router.Step re-publishes the global
		// positions every step), so one sharded mesh per K serves every
		// engine's routers.
		sms := make([]*shard.Mesh, len(shardCounts))
		for i, k := range shardCounts {
			if sms[i], err = shard.NewMesh(m, k, shard.Options{}); err != nil {
				return nil, err
			}
		}
		for _, f := range factories {
			// A fresh generator per engine: every engine's loop draws the
			// same query sequence.
			s, err := loadScene(ds, cfg)
			if err != nil {
				return nil, err
			}
			runners := []EngineFactory{f}
			for i, sm := range sms {
				runners = append(runners, routerFactory(f, shardCounts[i], sm))
			}
			res := Run(s.m, s.deformer, cfg.Steps,
				func(int) []geom.AABB { return s.gen.UniformQueries(cfg.QueriesPerStep, cfg.Selectivity) },
				func(int) []query.KNNQuery { return s.gen.KNNQueries(cfg.QueriesPerStep/2+1, 4, 16, 0.05) },
				runners)

			base := res.Engines[0].TotalResponse
			for i, k := range shardCounts {
				total := res.Engines[i+1].TotalResponse
				router := res.Built[i+1].(*shard.Router)
				rq, rf, kq, ks, _ := router.FanoutStats()
				t.AddRow(
					string(ds), f.Name, k,
					float64(total.Microseconds())/1e3,
					float64(base)/float64(total),
					ratio(rf, rq), ratio(ks, kq),
					100*ghostFrac(router.Mesh().Partition()),
				)
			}
		}
	}

	t.Notes = append(t.Notes,
		"vs-unsharded = unsharded engine's total response / this row's (higher = sharding helps); both run in one loop over the same deforming positions and queries",
		"total = maintenance + query time (Figure-6 accounting); sharded rows include the per-step O(V) position scatter into the sub-meshes as maintenance",
		"fan-out = shards touched per range query / scanned per kNN after bound pruning",
		"ghosts = replicated cut-ring vertices as a share of all shard-local vertices",
	)
	return []*Table{t}, nil
}

// routerFactory builds f's engine on every shard of sm behind one
// router. The mesh it is handed must be sm's global mesh; the factory
// first publishes its current positions into the shards, so the inner
// engines preprocess the geometry the unsharded engine sees.
func routerFactory(f EngineFactory, k int, sm *shard.Mesh) EngineFactory {
	return EngineFactory{
		Name: fmt.Sprintf("%s K=%d", f.Name, k),
		New: func(*mesh.Mesh) query.ParallelKNNEngine {
			sm.Resync()
			return shard.NewRouter(sm, f.New)
		},
	}
}

// ratio returns n/d, or 0 when d is 0.
func ratio(n, d int64) float64 {
	if d == 0 {
		return 0
	}
	return float64(n) / float64(d)
}

// ghostFrac returns the share of ghost vertices among all shard-local
// vertices of p.
func ghostFrac(p *shard.Partition) float64 {
	local, ghosts := 0, 0
	for _, part := range p.Parts {
		local += len(part.ToGlobal)
		ghosts += part.Ghosts()
	}
	if local == 0 {
		return 0
	}
	return float64(ghosts) / float64(local)
}
