package main

import (
	"fmt"
	"time"

	"octopus/internal/core"
	"octopus/internal/kdtree"
	"octopus/internal/linearscan"
	"octopus/internal/meshgen"
	"octopus/internal/sim"
)

// sim-step sizes: the paper's update/monitor alternation on the largest
// neuroscience level, whose 255 k vertices (64 MB with adjacency) exceed
// the last-level cache. Each step is 18 range + 3 kNN queries on the
// resident path, as Figure 5's microbenchmarks issue 7 to 22 per step.
const (
	simRangePerStep = 18
	simKNNPerStep   = 3
	simPoolSteps    = 50 // distinct steps' worth of queries before the pool wraps
	// simBaselineEvery spaces out the traced pass's linear-scan and kd-tree
	// comparison: a kd-tree rebuild on this mesh costs ten OCTOPUS steps.
	simBaselineEvery = 5
	simBaselineQs    = 3
)

func runSimStep(cfg runConfig, res *runResult) error {
	t0 := time.Now()
	m, err := meshgen.Build(meshgen.NeuroL5, 1)
	if err != nil {
		return err
	}
	res.Metrics["setup.dataset_s"] = time.Since(t0).Seconds()
	t0 = time.Now()
	ranges, knns := genPools(m, simRangePerStep*simPoolSteps, simKNNPerStep*simPoolSteps, cfg.Seed)
	res.Metrics["setup.querygen_s"] = time.Since(t0).Seconds()
	res.OpDigest = digest(mixOps(ranges, knns))

	var eng *core.Octopus
	if _, err := measureSetup(res, func() (func(), error) {
		eng = core.New(m)
		return func() {}, nil
	}); err != nil {
		return err
	}

	var rec *recorder
	var scan *linearscan.Scan
	var kd *kdtree.Engine
	if cfg.Trace {
		rec = newRecorder()
		scan, kd = linearscan.New(m), kdtree.NewEngine(m, 0)
	}
	deformer := &sim.NoiseDeformer{Amplitude: sim.DefaultAmplitude, Frequency: 1.5, Seed: cfg.Seed}
	ws := make([]window, windows)

	var rangeUS, knnUS, fnMS, scanUS, kdUS, kdStepMS []float64
	var buf []int32
	var baselineUse usage // what the linear-scan and kd-tree comparison cost the process
	statsBefore, useBefore := eng.Stats(), readUsage()
	start := time.Now()
	steps := 0
	var tracedUS, untracedUS []float64 // range latencies of a traced run, by whether the step recorded spans
	for ; time.Since(start) < cfg.dur(1); steps++ {
		if rec != nil {
			rec.on.Store(steps%2 == 1)
		}
		w := windowAt(ws, time.Since(start), cfg.dur(1))
		w.refMS = append(w.refMS, res.ref.pass(0))
		tf := time.Now()
		deformer.Step(steps, m.Positions())
		fnMS = append(fnMS, ms(time.Since(tf)))

		ts := time.Now()
		eng.Step()
		timeQuery := func(knn bool, run func()) {
			tq := time.Now()
			run()
			d := time.Since(tq)
			if knn {
				knnUS, w.knnUS = append(knnUS, us(d)), append(w.knnUS, us(d))
			} else {
				rangeUS, w.rangeUS = append(rangeUS, us(d)), append(w.rangeUS, us(d))
			}
			switch {
			case rec == nil || knn:
			case rec.on.Load():
				tracedUS = append(tracedUS, us(d))
			default:
				untracedUS = append(untracedUS, us(d))
			}
			if rec != nil && rec.on.Load() {
				id := rec.id()
				rec.add(span{Name: spanQuery, ID: id, Req: id, Start: int64(tq.Sub(rec.t0)), End: int64(tq.Add(d).Sub(rec.t0)), Shard: -1})
			}
		}
		for j := 0; j < simRangePerStep; j++ {
			q := ranges[(steps*simRangePerStep+j)%len(ranges)]
			timeQuery(false, func() { buf = eng.Query(q, buf[:0]) })
		}
		for j := 0; j < simKNNPerStep; j++ {
			q := knns[(steps*simKNNPerStep+j)%len(knns)]
			timeQuery(true, func() { buf = eng.KNN(q.P, q.K, buf[:0]) })
		}
		// A step's batch is a closed loop of one client: its rate is the
		// batch size over the step's service time.
		step := time.Since(ts)
		w.stepMS = append(w.stepMS, ms(step))
		w.queries, w.wall = w.queries+simRangePerStep+simKNNPerStep, w.wall+step

		if cfg.Trace && steps%simBaselineEvery == 0 {
			u0 := readUsage()
			tk := time.Now()
			kd.Step()
			kdStepMS = append(kdStepMS, ms(time.Since(tk)))
			for j := 0; j < simBaselineQs; j++ {
				q := ranges[(steps*simRangePerStep+j)%len(ranges)]
				tq := time.Now()
				buf = scan.Query(q, buf[:0])
				scanUS = append(scanUS, us(time.Since(tq)))
				tq = time.Now()
				buf = kd.Query(q, buf[:0])
				kdUS = append(kdUS, us(time.Since(tq)))
			}
			baselineUse = baselineUse.add(readUsage().sub(u0))
		}
	}
	useAfter := readUsage().sub(baselineUse)
	stats := statsSub(eng.Stats(), statsBefore)
	queries := len(rangeUS) + len(knnUS)
	res.Attempted = int64(queries)

	res.verify(eng.NewCursor(), m, ranges, knns, cfg.Seed)

	mt := res.Metrics
	res.setGated(ws)
	fmt.Fprintf(cfg.Log, "  %d steps, %d queries, %d/%d verification mismatches (%d incomplete)\n", steps, queries, res.Mismatch, res.Verified, res.Incomplete)
	if !cfg.Trace {
		return nil
	}

	res.setCore(stats, queries)
	res.setRuntime(useBefore, useAfter, queries)
	mt["sim.deform_fn_ms"] = mean(fnMS)
	mt["mesh.dirty_frac"] = 1 // the deformer moves every vertex, in place
	mt["linearscan.query_us"], mt["kdtree.query_us"], mt["kdtree.step_ms"] = mean(scanUS), mean(kdUS), mean(kdStepMS)
	mt["client.achieved_qps"] = mt["qps"]
	mt["trace.overhead_frac"] = ratio(median(tracedUS), median(untracedUS)) - 1
	// The three phases are all of the resident call that can be seen from
	// outside; what they leave of the timed call is the residual.
	mt["budget.probe_us"], mt["budget.walk_us"], mt["budget.crawl_us"] =
		mt["core.probe_us_per_q"], mt["core.walk_us_per_q"], mt["core.crawl_us_per_q"]
	res.setBudget(mean(append(rangeUS, knnUS...)))
	res.printBudget(cfg.Log)
	return writeSpans(cfg.tracePath(), rec.take())
}
