package main

import (
	"fmt"
	"time"

	"octopus/internal/core"
	"octopus/internal/geom"
	"octopus/internal/mesh"
	"octopus/internal/meshgen"
	"octopus/internal/query"
	"octopus/internal/shard"
	"octopus/internal/sim"
)

// live-inproc sizes: the serve workloads' dataset and shard count with
// the wire bypassed, under the heaviest writes the system supports —
// every vertex of every shard moves at each 50 ms tick.
const (
	liveShards  = 4
	liveWorkers = 2
	liveTick    = 50 * time.Millisecond
	// Each Pipeline.Run drains the next liveChunk queries of a pool of
	// livePool, and runs repeat until the measured time is up. Nothing
	// caches here, so the pool wrapping round is invisible to the system.
	livePool  = 4000
	liveChunk = 1000
)

// deformProbe times a deformer function from around it and, in a traced
// run, counts the vertices it moved.
type deformProbe struct {
	count  bool
	before []geom.Vec3
	moved  float64 // share of the vertices the last step moved
}

func (p *deformProbe) run(pos []geom.Vec3, fn func()) time.Duration {
	if p.count {
		p.before = append(p.before[:0], pos...)
	}
	t0 := time.Now()
	fn()
	dur := time.Since(t0)
	if p.count {
		n := 0
		for i := range pos {
			if pos[i] != p.before[i] {
				n++
			}
		}
		p.moved = ratio(float64(n), float64(len(pos)))
	}
	return dur
}

// timedMesh times shard.Mesh.Deform from outside and splits the deformer
// function's share off it. Only the pipeline's writer goroutine calls
// Deform; the samples are read after Run returns.
type timedMesh struct {
	*shard.Mesh
	probe                   deformProbe
	overheadMS, fnMS, moved []float64
}

func (t *timedMesh) Deform(fn func(pos []geom.Vec3)) {
	var fnDur time.Duration
	t0 := time.Now()
	t.Mesh.Deform(func(pos []geom.Vec3) {
		fnDur = t.probe.run(pos, func() { fn(pos) })
	})
	t.overheadMS = append(t.overheadMS, ms(time.Since(t0)-fnDur))
	t.fnMS = append(t.fnMS, ms(fnDur))
	if t.probe.count {
		t.moved = append(t.moved, t.probe.moved)
	}
}

// partitionShape reports the owned-count imbalance (largest shard over
// the mean) and the ghost vertices' share of the mesh.
func partitionShape(sm *shard.Mesh) (imbalance, ghostFrac float64) {
	parts := sm.Partition().Parts
	maxOwned, owned, ghosts := 0, 0, 0
	for _, p := range parts {
		maxOwned = max(maxOwned, p.NumOwned)
		owned += p.NumOwned
		ghosts += p.Ghosts()
	}
	return ratio(float64(maxOwned)*float64(len(parts)), float64(owned)), ratio(float64(ghosts), float64(owned))
}

func runLiveInproc(cfg runConfig, res *runResult) error {
	t0 := time.Now()
	m, err := meshgen.Build(meshgen.NeuroL3, 1)
	if err != nil {
		return err
	}
	res.Metrics["setup.dataset_s"] = time.Since(t0).Seconds()
	t0 = time.Now()
	nR, nK := poolSizes(livePool)
	ranges, knns := genPools(m, nR, nK, cfg.Seed)
	res.Metrics["setup.querygen_s"] = time.Since(t0).Seconds()
	res.OpDigest = digest(mixOps(ranges, knns))

	var router *shard.Router
	var engines []*core.Octopus
	if _, err := measureSetup(res, func() (func(), error) {
		engines = engines[:0]
		sm, err := shard.NewMesh(m, liveShards, shard.Options{})
		if err != nil {
			return nil, err
		}
		router = shard.NewRouter(sm, func(sub *mesh.Mesh) query.ParallelKNNEngine {
			e := core.New(sub)
			engines = append(engines, e)
			return e
		})
		return func() {}, nil
	}); err != nil {
		return err
	}

	tm := &timedMesh{Mesh: router.Mesh(), probe: deformProbe{count: cfg.Trace}}
	deformer := &sim.NoiseDeformer{Amplitude: sim.DefaultAmplitude, Frequency: 1.5, Seed: cfg.Seed}
	stepBase := 0
	p := &query.Pipeline{
		Engine: router, Mesh: tm, Tick: liveTick, Workers: liveWorkers,
		Deform: func(step int, pos []geom.Vec3) { deformer.Step(stepBase+step, pos) },
	}

	var rangeUS, knnUS []float64
	var ws []window // one per Pipeline.Run
	var wall, drain time.Duration
	var staleSum float64
	var ticks, slices, fallbacks int64
	var sliceTime time.Duration
	queries, failed := 0, 0
	useBefore := readUsage()
	edge := res.ref.edge() // the pipeline is at rest between two Runs
	chunkR, chunkK := poolSizes(liveChunk)
	for start, run := time.Now(), 0; time.Since(start) < cfg.dur(1); run++ {
		at := run % (livePool / liveChunk)
		stepsBefore := len(tm.overheadMS)
		rep := p.Run(ranges[at*chunkR:(at+1)*chunkR], knns[at*chunkK:(at+1)*chunkK])
		w := window{queries: liveChunk, wall: rep.Wall, stepMS: tm.overheadMS[stepsBefore:], refMS: []float64{edge, res.ref.edge()}}
		edge = w.refMS[1]
		stepBase += rep.Steps
		wall += rep.Wall
		drain += rep.DrainWall
		for i, traces := range [][]query.QueryTrace{rep.RangeTraces, rep.KNNTraces} {
			for _, t := range traces {
				queries++
				staleSum += float64(t.Staleness())
				switch {
				case t.Shed || t.Err != nil:
					failed++
				case i == 0:
					rangeUS, w.rangeUS = append(rangeUS, us(t.Latency)), append(w.rangeUS, us(t.Latency))
				default:
					knnUS, w.knnUS = append(knnUS, us(t.Latency)), append(w.knnUS, us(t.Latency))
				}
			}
		}
		ws = append(ws, w)
		ss := p.SchedulerStats()
		ticks, slices, fallbacks = ticks+ss.Ticks, slices+ss.SlicesRun, fallbacks+ss.FallbackQueries
		sliceTime += ss.SliceTime
	}
	useAfter := readUsage()
	stats := sumStats(engines) // Run closed its cursors, so every query has folded in
	rq, rf, kq, ks, kw := router.FanoutStats()
	res.Attempted, res.Failed = int64(queries), int64(failed)

	res.verify(router.NewCursor(), router.Mesh().Global(), ranges, knns, cfg.Seed)

	mt := res.Metrics
	res.setGated(ws)
	fmt.Fprintf(cfg.Log, "  %d queries in %d pipeline steps, %d failed, %d/%d verification mismatches (%d incomplete)\n",
		queries, stepBase, failed, res.Mismatch, res.Verified, res.Incomplete)
	if !cfg.Trace {
		return nil
	}

	res.setCore(stats, queries)
	res.setRuntime(useBefore, useAfter, queries)
	mt["shard.range_fanout_per_q"] = ratio(float64(rf), float64(rq))
	mt["shard.knn_scanned_per_q"] = ratio(float64(ks), float64(kq))
	mt["shard.knn_widen_per_q"] = ratio(float64(kw), float64(kq))
	mt["shard.imbalance"], mt["shard.ghost_frac"] = partitionShape(router.Mesh())
	mt["mesh.deform_overhead_ms"], mt["sim.deform_fn_ms"] = mean(tm.overheadMS), mean(tm.fnMS)
	mt["mesh.dirty_frac"] = mean(tm.moved)
	mt["query.pipeline_steps_per_s"] = ratio(float64(stepBase), wall.Seconds())
	mt["query.pipeline_drain_ms"] = ms(drain)
	mt["query.stale_mean_epochs"] = ratio(staleSum, float64(queries))
	mt["maintain.ticks"], mt["maintain.slices"] = float64(ticks), float64(slices)
	mt["maintain.fallback_queries"], mt["maintain.slice_ms"] = float64(fallbacks), ms(sliceTime)
	mt["client.achieved_qps"] = mt["qps"]
	// Everything a query spends inside shard.Cursor but outside the shard
	// engines: fan-out plan, owned filter, merge, and the wait for the
	// deform lock while the writer publishes.
	// QueryTrace.Latency and the engines' Stats are all that shows from
	// outside here, so this row is by definition what the second leaves of
	// the first and the residual is 0; only the serve budgets have rows
	// measured independently of their total.
	total := mean(append(rangeUS, knnUS...))
	mt["shard.route_self_us"] = total - us(stats.Total())/float64(queries)
	mt["budget.router_self_us"] = mt["shard.route_self_us"]
	mt["budget.probe_us"], mt["budget.walk_us"], mt["budget.crawl_us"] =
		mt["core.probe_us_per_q"], mt["core.walk_us_per_q"], mt["core.crawl_us_per_q"]
	res.setBudget(total)
	res.printBudget(cfg.Log)
	return nil
}
