package main

import (
	"testing"
	"time"

	"octopus/internal/core"
	"octopus/internal/mesh"
	"octopus/internal/meshgen"
	"octopus/internal/sim"
)

// The traced serve topology end to end on a small mesh: the wrappers
// learn every op, every query RPC finds its client query and its handle
// span, the budget rows add up, and the answers survive verification.
// Run under -race this also covers the recorder's concurrent use by
// clients, shard servers and the writer.
func TestServeTracedSmoke(t *testing.T) {
	build := func() *mesh.Mesh {
		m, err := meshgen.BuildBoxTet(12, 12, 12, 1.0/12)
		if err != nil {
			t.Fatal(err)
		}
		return m
	}
	mServe, mCtl := build(), build()
	ranges, knns := genPools(mCtl, 40, 10, 1)
	ops := mixOps(ranges, knns)

	rec := newRecorder()
	topo, err := buildServe(mServe, mCtl, rec)
	if err != nil {
		t.Fatal(err)
	}
	defer topo.close()
	writer := &serveWriter{
		topo:     topo,
		blob:     &sim.BlobDeformer{Radius: 0.2, Amplitude: 0.001, Seed: 1},
		noise:    &sim.NoiseDeformer{Amplitude: 0.001, Frequency: 1.5, Seed: 1},
		fullStep: 3,
		probe:    deformProbe{count: true},
	}
	cs := &clientSet{ops: ops, rec: rec, retried: make([]int64, serveClients)}
	for c := 0; c < serveClients; c++ {
		cs.curs = append(cs.curs, topo.eng.NewCursor())
	}
	if err := serveWarmUp(topo, writer, cs, rec); err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"meta", "range", "knn", "maintain", "dirtylog", "publish_full", "publish_delta"} {
		found := false
		for _, learned := range rec.opNames {
			found = found || learned == name
		}
		if !found {
			t.Errorf("calibration did not learn the %s op: %v", name, rec.opNames)
		}
	}

	before := serveCounters(topo)
	streams := &serveStreams{kind: serveKind{openRate: 400, pool: len(ops)}, nOps: len(ops), rng: newRand(2)}
	stop, done := make(chan struct{}), make(chan struct{})
	go func() {
		defer close(done)
		writer.run(stop)
	}()
	rec.on.Store(true)
	seg := cs.openLoop(streams.open(500 * time.Millisecond))
	close(stop)
	<-done
	rec.on.Store(false)
	if writer.log.err != nil {
		t.Fatal(writer.log.err)
	}
	if _, _, failed := latencies(seg.samples); failed != 0 || len(seg.samples) == 0 {
		t.Fatalf("%d of %d queries failed", failed, len(seg.samples))
	}

	res := &runResult{Metrics: make(map[string]float64)}
	spans := rec.take()
	serveSpanMetrics(res, spans, statsSub(serveCounters(topo).coreTraced, before.coreTraced))
	orphans := 0
	for _, s := range spans {
		if s.Name == spanRPC && (s.Op == "range" || s.Op == "knn") && s.Parent == 0 {
			orphans++
		}
	}
	if orphans != 0 {
		t.Errorf("%d range/kNN RPC spans found no client query", orphans)
	}
	m := res.Metrics
	if m["budget.total_us"] <= 0 || m["trace.residual_frac"] > 0.05 || m["trace.residual_frac"] < -0.05 {
		t.Errorf("budget total %.1f us, residual %.3f: rows do not add up", m["budget.total_us"], m["trace.residual_frac"])
	}
	if m["dist.handle_range_us"] <= 0 || m["dist.wire_us"] <= 0 || m["dist.publish_delta_ms"] <= 0 || m["dist.publish_full_ms"] <= 0 {
		t.Errorf("span-timed layers missing: %v", m)
	}
	if (core.Stats{}) == serveCounters(topo).core {
		t.Error("the shard engines' cursors reported no statistics")
	}

	res.verify(topo.eng.NewCursor(), topo.smCtl.Global(), ranges, knns, 1)
	if res.Mismatch != 0 {
		t.Errorf("%d of %d answers differ from brute force (%d incomplete)", res.Mismatch, res.Verified, res.Incomplete)
	}
}
