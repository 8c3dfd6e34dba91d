package shard

import (
	"testing"
	"time"

	"octopus/internal/core"
	"octopus/internal/geom"
	"octopus/internal/kdtree"
	"octopus/internal/mesh"
	"octopus/internal/query"
	"octopus/internal/sim"
)

// replayPositions reconstructs the exact global positions at a given
// epoch by re-running the deterministic deformer from the pristine
// state — the oracle for epoch-pinned results.
func replayPositions(orig []geom.Vec3, seed int64, epoch uint64) []geom.Vec3 {
	pos := append([]geom.Vec3(nil), orig...)
	d := &sim.NoiseDeformer{Amplitude: 0.03, Frequency: 2, Seed: seed}
	for step := uint64(0); step < epoch; step++ {
		d.Step(int(step), pos)
	}
	return pos
}

// TestShardedPipelineEpochConsistency runs the live deform+query
// pipeline over a sharded OCTOPUS engine: the writer publishes global
// steps into every shard in lockstep while concurrent router cursors
// drain a mixed workload. Every result must equal brute force at the
// epoch its trace reports — the cross-shard coherence gate means no
// result can mix two steps, even when the fan-out spans shards.
func TestShardedPipelineEpochConsistency(t *testing.T) {
	const seed = 31
	m := buildBoxTet(t, 7, 1.0/7)
	orig := append([]geom.Vec3(nil), m.Positions()...)
	sm, err := NewMesh(m, 4, Options{})
	if err != nil {
		t.Fatal(err)
	}
	router := NewRouter(sm, func(sub *mesh.Mesh) query.ParallelKNNEngine { return core.New(sub) })

	d := &sim.NoiseDeformer{Amplitude: 0.03, Frequency: 2, Seed: seed}
	var queries []geom.AABB
	for i := 0; i < 24; i++ {
		queries = append(queries, geom.BoxAround(orig[(i*37)%len(orig)], 0.12+0.02*float64(i%5)))
	}
	probes := make([]query.KNNQuery, 12)
	for i := range probes {
		probes[i] = query.KNNQuery{P: orig[(i*53)%len(orig)], K: 1 + i%7}
	}

	pl := &query.Pipeline{
		Engine:   router,
		Mesh:     sm,
		Deform:   d.Step,
		Workers:  4,
		MinSteps: 3,
		// The crawl contract (exact when the in-box subgraph is
		// connected, DESIGN.md §4) holds for this workload up to epoch
		// ~20 of accumulated noise; measured offline, the first
		// violation is at epoch 20. Cap the writer well below so
		// exactness is guaranteed at every epoch a query can pin,
		// independent of scheduling (the old cap of 50 only passed when
		// queries happened to land early).
		MaxSteps: 14,
	}
	report := pl.Run(queries, probes)
	if report.Steps < 3 {
		t.Fatalf("writer published %d steps, want >= 3", report.Steps)
	}
	if head := sm.Epoch(); head != uint64(report.Steps) {
		t.Fatalf("shard epoch %d, steps %d", head, report.Steps)
	}

	for i, res := range report.RangeResults {
		tr := report.RangeTraces[i]
		pos := replayPositions(orig, seed, tr.Epoch)
		want := query.ScanPositions(pos, queries[i], nil)
		if d := query.Diff(append([]int32(nil), res...), want); d != "" {
			t.Fatalf("range %d at epoch %d: %s", i, tr.Epoch, d)
		}
		if tr.HeadEpoch < tr.Epoch {
			t.Fatalf("range %d: head %d < answer epoch %d", i, tr.HeadEpoch, tr.Epoch)
		}
	}
	for i, res := range report.KNNResults {
		tr := report.KNNTraces[i]
		pos := replayPositions(orig, seed, tr.Epoch)
		want := query.ScanKNNPositions(pos, probes[i].P, probes[i].K, nil)
		if !equalIDs(res, want) {
			t.Fatalf("kNN %d at epoch %d: got %v want %v", i, tr.Epoch, res, want)
		}
	}
}

// TestShardedPipelinePerShardMaintenance runs a rebuild-per-step inner
// engine (kd-tree) through the sharded pipeline: the router provides one
// maintenance target per shard (Pipeline must detect
// maintain.StateProvider and schedule those targets instead of a global
// one) and queries keep draining while individual shards maintain.
// Unlike the single-mesh pipeline — where a maintained engine answers at
// its last maintenance — every sharded result must be exact at the head
// epoch its trace reports: a shard whose engine snapshot lags the
// just-published step answers by direct scan of its owned positions, so
// per-shard maintenance never tears a result across epochs.
func TestShardedPipelinePerShardMaintenance(t *testing.T) {
	const seed = 8
	m := buildBoxTet(t, 6, 1.0/6)
	orig := append([]geom.Vec3(nil), m.Positions()...)
	sm, err := NewMesh(m, 4, Options{})
	if err != nil {
		t.Fatal(err)
	}
	router := NewRouter(sm, func(sub *mesh.Mesh) query.ParallelKNNEngine { return kdtree.NewEngine(sub, 0) })
	if len(router.MaintainStates()) != sm.K() {
		t.Fatalf("router provides %d maintenance targets, want %d", len(router.MaintainStates()), sm.K())
	}

	d := &sim.NoiseDeformer{Amplitude: 0.03, Frequency: 2, Seed: seed}
	var queries []geom.AABB
	for i := 0; i < 32; i++ {
		queries = append(queries, geom.BoxAround(orig[(i*31)%len(orig)], 0.15))
	}
	probes := make([]query.KNNQuery, 8)
	for i := range probes {
		probes[i] = query.KNNQuery{P: orig[(i*17)%len(orig)], K: 3}
	}
	pl := &query.Pipeline{
		Engine:   router,
		Mesh:     sm,
		Deform:   d.Step,
		Workers:  4,
		MinSteps: 4,
		MaxSteps: 64,
	}
	report := pl.Run(queries, probes)
	if report.Steps < 4 {
		t.Fatalf("writer published %d steps", report.Steps)
	}
	for i, res := range report.RangeResults {
		tr := report.RangeTraces[i]
		pos := replayPositions(orig, seed, tr.Epoch)
		want := query.ScanPositions(pos, queries[i], nil)
		if d := query.Diff(append([]int32(nil), res...), want); d != "" {
			t.Fatalf("range %d at epoch %d: %s", i, tr.Epoch, d)
		}
	}
	for i, res := range report.KNNResults {
		tr := report.KNNTraces[i]
		pos := replayPositions(orig, seed, tr.Epoch)
		want := query.ScanKNNPositions(pos, probes[i].P, probes[i].K, nil)
		if !equalIDs(res, want) {
			t.Fatalf("kNN %d at epoch %d: got %v want %v", i, tr.Epoch, res, want)
		}
	}
	mean, maxS := query.StalenessStats(report.Traces())
	t.Logf("per-shard maintenance: %d steps, staleness mean %.2f max %d", report.Steps, mean, maxS)
}

// TestShardedPipelineBudgetedMaintenance is the budgeted variant: a
// hostile tiny budget slices per-shard kd-tree maintenance mid-task
// while cursors fan out concurrently. A shard observed mid-task answers
// by the owned-position scan, so every result must remain exact at its
// trace's epoch — the acceptance bar for queries landing
// mid-maintenance-slice on sharded execution.
func TestShardedPipelineBudgetedMaintenance(t *testing.T) {
	const seed = 19
	m := buildBoxTet(t, 6, 1.0/6)
	orig := append([]geom.Vec3(nil), m.Positions()...)
	sm, err := NewMesh(m, 4, Options{})
	if err != nil {
		t.Fatal(err)
	}
	router := NewRouter(sm, func(sub *mesh.Mesh) query.ParallelKNNEngine { return kdtree.NewEngine(sub, 16) })

	d := &sim.NoiseDeformer{Amplitude: 0.03, Frequency: 2, Seed: seed}
	var queries []geom.AABB
	for i := 0; i < 40; i++ {
		queries = append(queries, geom.BoxAround(orig[(i*29)%len(orig)], 0.14))
	}
	probes := make([]query.KNNQuery, 12)
	for i := range probes {
		probes[i] = query.KNNQuery{P: orig[(i*13)%len(orig)], K: 2 + i%5}
	}
	pl := &query.Pipeline{
		Engine:            router,
		Mesh:              sm,
		Deform:            d.Step,
		Workers:           4,
		MinSteps:          5,
		MaxSteps:          64,
		MaintenanceBudget: 20 * time.Microsecond,
	}
	report := pl.Run(queries, probes)
	for i, res := range report.RangeResults {
		tr := report.RangeTraces[i]
		pos := replayPositions(orig, seed, tr.Epoch)
		want := query.ScanPositions(pos, queries[i], nil)
		if d := query.Diff(append([]int32(nil), res...), want); d != "" {
			t.Fatalf("range %d at epoch %d: %s", i, tr.Epoch, d)
		}
	}
	for i, res := range report.KNNResults {
		tr := report.KNNTraces[i]
		pos := replayPositions(orig, seed, tr.Epoch)
		want := query.ScanKNNPositions(pos, probes[i].P, probes[i].K, nil)
		if !equalIDs(res, want) {
			t.Fatalf("kNN %d at epoch %d: got %v want %v", i, tr.Epoch, res, want)
		}
	}
	st := pl.SchedulerStats()
	if st.Targets != sm.K() {
		t.Fatalf("scheduler targets %d, want %d", st.Targets, sm.K())
	}
	if st.Ticks != int64(report.Steps) {
		t.Fatalf("ticks %d, steps %d", st.Ticks, report.Steps)
	}
}

// TestShardedPipelineMaintainHookComposes is the regression for the
// hook-unification satellite: before the scheduler, setting a Maintain
// hook silently disabled the router's per-shard maintenance path and
// forced the whole pipeline onto one global lock. Now the hook runs
// through Scheduler.Exclusive over the same per-shard targets, so both
// compose: the run must use K per-shard targets AND execute the hook
// once per step, with every result exact at its epoch.
func TestShardedPipelineMaintainHookComposes(t *testing.T) {
	const seed = 23
	m := buildBoxTet(t, 5, 1.0/5)
	orig := append([]geom.Vec3(nil), m.Positions()...)
	sm, err := NewMesh(m, 4, Options{})
	if err != nil {
		t.Fatal(err)
	}
	router := NewRouter(sm, func(sub *mesh.Mesh) query.ParallelKNNEngine { return kdtree.NewEngine(sub, 16) })

	d := &sim.NoiseDeformer{Amplitude: 0.03, Frequency: 2, Seed: seed}
	var queries []geom.AABB
	for i := 0; i < 28; i++ {
		queries = append(queries, geom.BoxAround(orig[(i*41)%len(orig)], 0.16))
	}
	hooks := 0
	pl := &query.Pipeline{
		Engine:   router,
		Mesh:     sm,
		Deform:   d.Step,
		Workers:  4,
		MinSteps: 4,
		MaxSteps: 64,
		Maintain: func(step int) {
			hooks++
			// Inside Exclusive every shard engine must be fully drained:
			// consistent with its sub-mesh's published head.
			for s, eng := range router.Engines() {
				if er, ok := eng.(query.EpochReporter); ok {
					if got, want := er.AnswerEpoch(), sm.Partition().Parts[s].Mesh.Epoch(); got != want {
						t.Errorf("step %d shard %d: engine at epoch %d, head %d", step, s, got, want)
					}
				}
			}
		},
	}
	report := pl.Run(queries, nil)
	if hooks != report.Steps {
		t.Fatalf("hook ran %d times over %d steps", hooks, report.Steps)
	}
	st := pl.SchedulerStats()
	if st.Targets != sm.K() {
		t.Fatalf("hook run used %d maintenance targets, want %d per-shard targets", st.Targets, sm.K())
	}
	if st.ExclusiveRuns != int64(report.Steps) {
		t.Fatalf("exclusive runs %d, steps %d", st.ExclusiveRuns, report.Steps)
	}
	for i, res := range report.RangeResults {
		tr := report.RangeTraces[i]
		pos := replayPositions(orig, seed, tr.Epoch)
		want := query.ScanPositions(pos, queries[i], nil)
		if d := query.Diff(append([]int32(nil), res...), want); d != "" {
			t.Fatalf("range %d at epoch %d: %s", i, tr.Epoch, d)
		}
	}
}
