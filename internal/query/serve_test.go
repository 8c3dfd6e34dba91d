package query_test

// Serving-layer suite (DESIGN.md §14): replay-exactness of the result
// cache (every hit bit-equal to brute force at its claimed epoch, across
// all engines and deform/restructure storms), SLO-controller convergence
// at the pipeline level, honest shed traces, and the Wall/DrainWall
// accounting split.

import (
	"testing"
	"time"

	"octopus/internal/geom"
	"octopus/internal/maintain"
	"octopus/internal/mesh"
	"octopus/internal/query"
	"octopus/internal/sim"
)

// repeatWorkload appends n copies of the workload to itself so every
// query recurs — the shape the result cache exists for. Later copies land
// after earlier ones often enough (the worker pool's shared counter hands
// out indexes in order) that hits actually occur.
func repeatWorkload(queries []geom.AABB, probes []query.KNNQuery, n int) ([]geom.AABB, []query.KNNQuery) {
	rq := make([]geom.AABB, 0, len(queries)*n)
	rp := make([]query.KNNQuery, 0, len(probes)*n)
	for i := 0; i < n; i++ {
		rq = append(rq, queries...)
		rp = append(rp, probes...)
	}
	return rq, rp
}

// TestCacheReplayExactnessAllEngines is the tentpole's correctness
// anchor: with the cache enabled and every query issued eight times under
// a deforming mesh, each result — cached or fresh — must equal brute
// force at the epoch its trace claims, for all 9 engines. A cache hit
// whose claimed epoch were wrong, or whose invalidation missed a dirty
// region, cannot match any replayed epoch and fails by construction.
func TestCacheReplayExactnessAllEngines(t *testing.T) {
	for _, f := range engineFactories() {
		f := f
		t.Run(f.name, func(t *testing.T) {
			m := buildBox(t, 6)
			eng := f.make(m)
			o := newEpochOracle(m, &sim.NoiseDeformer{Amplitude: 0.003, Frequency: 2, Seed: 61})
			base, baseProbes := testWorkload(m, 24, 12, 67)
			queries, probes := repeatWorkload(base, baseProbes, 8)

			// MaxSteps caps the publishes: the global noise deformer
			// dirties every entry each step, so an uncapped writer that
			// outpaces the workers can invalidate every repeat before it
			// recurs (hits == 0 by scheduling luck). With the writer
			// frozen after 8 steps, the workload's tail runs on a stable
			// epoch where repeats must hit — and eight repeats make the
			// workload outlast those steps (three did not always: 3 to 6
			// runs in 100 drained just as the last step landed).
			pl := &query.Pipeline{
				Engine:    eng,
				Mesh:      m,
				Deform:    o.deform(m),
				Workers:   4,
				MinSteps:  4,
				MaxSteps:  8,
				CacheSize: 256,
			}
			report := pl.Run(queries, probes)
			o.verify(t, m.Epoch())
			checkReport(t, o, report, queries, probes)

			cs := pl.CacheStats()
			if cs.Hits+cs.Misses == 0 {
				t.Fatal("cache never consulted — the fast path is not wired")
			}
			if cs.Hits == 0 {
				t.Fatalf("no hits on an 8x-repeated workload — the fill gate rejects %s: %+v", f.name, cs)
			}
			cached := 0
			for _, tr := range report.Traces() {
				if tr.Cached {
					cached++
				}
			}
			if int64(cached) != cs.Hits {
				t.Fatalf("traces report %d cached results, stats %d hits", cached, cs.Hits)
			}
			t.Logf("cache: %d hits / %d misses (%.0f%%), %d invalidated, %d puts",
				cs.Hits, cs.Misses, 100*cs.HitRate(), cs.Invalidated, cs.Puts)
		})
	}
}

// TestCacheReplayExactnessBudgeted combines the cache with a hostile
// maintenance budget: queries landing mid-task answer (and fill the
// cache) through the fallback scan, and those entries must replay exactly
// like engine-path entries.
func TestCacheReplayExactnessBudgeted(t *testing.T) {
	for _, name := range []string{"KD-Tree", "LU-Grid", "OCTOPUS"} {
		for _, f := range engineFactories() {
			if f.name != name {
				continue
			}
			f := f
			t.Run(f.name, func(t *testing.T) {
				m := buildBox(t, 6)
				eng := f.make(m)
				o := newEpochOracle(m, &sim.NoiseDeformer{Amplitude: 0.004, Frequency: 2, Seed: 71})
				base, baseProbes := testWorkload(m, 24, 10, 73)
				queries, probes := repeatWorkload(base, baseProbes, 3)

				pl := &query.Pipeline{
					Engine:            eng,
					Mesh:              m,
					Deform:            o.deform(m),
					Workers:           4,
					MinSteps:          6,
					MaintenanceBudget: 20 * time.Microsecond,
					CacheSize:         256,
				}
				report := pl.Run(queries, probes)
				o.verify(t, m.Epoch())
				checkReport(t, o, report, queries, probes)
			})
		}
	}
}

// TestCacheReplayExactnessUnderRestructuring is the structural-storm
// variant: cell splits and deletes mid-run change the vertex set itself,
// which no box test can localize — the cache must flush on the structural
// dirty region and every later result must still replay exactly.
func TestCacheReplayExactnessUnderRestructuring(t *testing.T) {
	for _, f := range engineFactories() {
		if f.name != "OCTOPUS" && f.name != "OCTOPUS-Hybrid" {
			continue
		}
		f := f
		t.Run(f.name, func(t *testing.T) {
			m := buildBox(t, 5)
			eng := f.make(m)
			o := newEpochOracle(m, &sim.NoiseDeformer{Amplitude: 0.003, Frequency: 2, Seed: 79})
			base, baseProbes := testWorkload(m, 18, 8, 83)
			queries, probes := repeatWorkload(base, baseProbes, 3)

			restructured := 0
			pl := &query.Pipeline{
				Engine:    eng,
				Mesh:      m,
				Deform:    o.deform(m),
				Workers:   4,
				MinSteps:  6,
				CacheSize: 256,
				Maintain: func(step int) {
					if restructured >= 2 || step%2 != 0 {
						return
					}
					restructured++
					var err error
					if restructured == 1 {
						_, _, err = m.SplitCell(liveCell(t, m))
					} else {
						_, err = m.DeleteCell(liveCell(t, m))
					}
					if err != nil {
						t.Errorf("restructure at step %d: %v", step, err)
						return
					}
					o.record(m.Epoch(), m.Positions())
				},
			}
			report := pl.Run(queries, probes)
			if restructured != 2 {
				t.Fatalf("restructured %d times, want 2", restructured)
			}
			o.verify(t, m.Epoch())
			checkReport(t, o, report, queries, probes)
			if cs := pl.CacheStats(); cs.Flushes == 0 {
				t.Fatalf("structural storm never flushed the cache: %+v", cs)
			}
		})
	}
}

// TestCacheDisabledWithoutDirtyStream pins the enablement condition: a
// mesh that cannot feed dirty regions (no pinned snapshots and no
// per-shard targets) must leave the cache off rather than serve
// uninvalidatable entries.
func TestCacheDisabledWithoutDirtyStream(t *testing.T) {
	m := buildBox(t, 4)
	eng := engineFactories()[3].make(m) // LinearScan
	d := newAllDeformers(0.003)
	queries, _ := testWorkload(m, 8, 0, 89)
	queries, _ = repeatWorkload(queries, nil, 2)
	pl := &query.Pipeline{
		Engine: eng, Mesh: plainMesh{m}, Deform: d.Step,
		Workers: 2, MinSteps: 2, CacheSize: 64,
	}
	pl.Run(queries, nil)
	if cs := pl.CacheStats(); cs.Hits+cs.Misses+cs.Puts != 0 {
		t.Fatalf("cache active without a dirty stream: %+v", cs)
	}
}

// plainMesh strips *mesh.Mesh down to the bare DeformableMesh contract,
// hiding the dirty-tracking and pinning interfaces from the pipeline.
type plainMesh struct{ m *mesh.Mesh }

func (p plainMesh) Deform(fn func(pos []geom.Vec3)) { p.m.Deform(fn) }
func (p plainMesh) Epoch() uint64                   { return p.m.Epoch() }

// TestSLOPipelineRelaxedWhenMet: a target no real query can miss leaves
// every actuator at rest — full budget, full admission window, exact
// crawls, zero sheds — and the run stays bit-exact. The cached input
// repeats the workload eight times on a writer stopped after five steps,
// so hits replay under the controller, which observes their latency too.
func TestSLOPipelineRelaxedWhenMet(t *testing.T) {
	for _, tc := range []struct {
		name      string
		cacheSize int
	}{{"uncached", 0}, {"cached", 256}} {
		t.Run(tc.name, func(t *testing.T) {
			m := buildBox(t, 6)
			eng := engineFactories()[0].make(m) // OCTOPUS
			o := newEpochOracle(m, &sim.NoiseDeformer{Amplitude: 0.003, Frequency: 2, Seed: 97})
			queries, probes := testWorkload(m, 32, 12, 101)
			maxSteps := 0
			if tc.cacheSize > 0 {
				queries, probes = repeatWorkload(queries, probes, 8)
				maxSteps = 5
			}

			const budget = 500 * time.Microsecond
			pl := &query.Pipeline{
				Engine:            eng,
				Mesh:              m,
				Deform:            o.deform(m),
				Workers:           4,
				MinSteps:          5,
				MaxSteps:          maxSteps,
				MaintenanceBudget: budget,
				TargetLatency:     time.Hour,
				CacheSize:         tc.cacheSize,
			}
			report := pl.Run(queries, probes)
			o.verify(t, m.Epoch())
			checkReport(t, o, report, queries, probes)

			st := pl.SLOStats()
			if st.Target != time.Hour {
				t.Fatalf("controller target = %v", st.Target)
			}
			if st.OverloadedTicks != 0 || st.Budget != budget || st.WindowShift != 0 || st.CrawlMaxVisited != 0 {
				t.Fatalf("met SLO moved actuators: %+v", st)
			}
			if report.Sheds != 0 {
				t.Fatalf("met SLO shed %d queries", report.Sheds)
			}
			if st.Ticks != int64(report.Steps) {
				t.Fatalf("controller ticked %d times over %d steps", st.Ticks, report.Steps)
			}
			if cs := pl.CacheStats(); tc.cacheSize > 0 && cs.Hits == 0 {
				t.Fatalf("no hits on an 8x-repeated workload: %+v", cs)
			}
		})
	}
}

// TestSLOPipelineConvergesUnderOverload: an unattainable 1ns target must
// drive the budget to its floor, escalate the admission window, and shed
// with honest traces — nil result, Shed set, excluded from LatencyStats.
func TestSLOPipelineConvergesUnderOverload(t *testing.T) {
	m := buildBox(t, 6)
	eng := engineFactories()[0].make(m) // OCTOPUS
	d := newAllDeformers(0.003)
	// A long drain relative to the writer's tick rate: the controller
	// escalates within a few hundred microseconds of the first latency
	// observations, and thousands of queries remain in flight after it.
	// The tiling is sized for a starved writer: on one processor it gets a
	// scheduler slice only every few tens of milliseconds, and the drain
	// must outlast several of those after the first observation (a 64x
	// tiling lost that race in one run out of seven on a loaded 2-core box).
	base, baseProbes := testWorkload(m, 64, 16, 103)
	queries, probes := repeatWorkload(base, baseProbes, 2048)

	pl := &query.Pipeline{
		Engine:            eng,
		Mesh:              m,
		Deform:            d.Step,
		Workers:           4,
		MinSteps:          10,
		MaintenanceBudget: time.Millisecond,
		TargetLatency:     time.Nanosecond,
	}
	report := pl.Run(queries, probes)

	st := pl.SLOStats()
	if st.OverloadedTicks == 0 {
		t.Fatal("a 1ns target was never overloaded")
	}
	if st.Budget != st.MinBudget {
		t.Fatalf("budget = %v under permanent overload, want floor %v", st.Budget, st.MinBudget)
	}
	if st.WindowShift == 0 {
		t.Fatal("admission window never tightened")
	}
	if report.Sheds == 0 {
		t.Fatal("no queries shed with a 1-slot admission window and 4 workers")
	}
	var sheds int64
	for _, tr := range report.RangeTraces {
		if tr.Shed {
			sheds++
		}
	}
	for i, tr := range report.KNNTraces {
		if tr.Shed {
			sheds++
			if report.KNNResults[i] != nil {
				t.Fatalf("shed probe %d has a result", i)
			}
		}
	}
	if sheds != report.Sheds {
		t.Fatalf("traces mark %d sheds, report says %d", sheds, report.Sheds)
	}
	// Shed traces must not drag the latency stats down.
	served := 0
	for _, tr := range report.Traces() {
		if !tr.Shed {
			served++
		}
	}
	if served == 0 {
		t.Fatal("admission must always serve at least its window")
	}

	// The controller's crawl budget lived on the run's cursors only: after
	// Run the engine must answer exactly.
	pos := m.Positions()
	probe := pos[len(pos)/2]
	got := eng.KNN(probe, 5, nil)
	want := query.BruteForceKNN(m, probe, 5)
	for i := range want {
		if i >= len(got) || got[i] != want[i] {
			t.Fatalf("post-Run kNN differs from brute force (got %v want %v) — crawl budget leaked past Run", got, want)
		}
	}
	t.Logf("overload: %d/%d ticks, shed %d/%d, shift %d, tightenings %d",
		st.OverloadedTicks, st.Ticks, report.Sheds, len(queries)+len(probes), st.WindowShift, st.Tightenings)
}

// slowMaintEngine wraps a linear scan with a deliberately slow budgeted
// maintenance task: each Run slice burns ~1ms and the full task needs
// ~40ms, so a budget-sliced pipeline with a short serving phase must
// finish the bulk of it in the post-run drain. Its cursor is the pinned
// scan, like the linear scan's.
type slowMaintEngine struct {
	m      *mesh.Mesh
	answer uint64
}

func (e *slowMaintEngine) Name() string { return "slow-maint" }
func (e *slowMaintEngine) Step()        { e.answer = e.m.Epoch() }
func (e *slowMaintEngine) Query(q geom.AABB, out []int32) []int32 {
	return query.ScanPositions(e.m.Positions(), q, out)
}
func (e *slowMaintEngine) KNN(p geom.Vec3, k int, out []int32) []int32 {
	return query.ScanKNNPositions(e.m.Positions(), p, k, out)
}
func (e *slowMaintEngine) MemoryFootprint() int64  { return 0 }
func (e *slowMaintEngine) NewCursor() query.Cursor { return query.NewScanCursor(e.m) }
func (e *slowMaintEngine) AnswerEpoch() uint64     { return e.answer }
func (e *slowMaintEngine) BeginMaintenance(d mesh.DirtyRegion) maintain.Task {
	if d.Empty() && e.answer == e.m.Epoch() {
		return nil
	}
	head := e.m.Epoch()
	return &slowTask{left: 20, done: func() { e.answer = head }}
}

// slowTask burns ~2ms per chunk, 20 chunks total; a budgeted slice runs
// exactly one chunk (the deadline has long passed after it), an
// unbudgeted slice (the drain) runs everything left.
type slowTask struct {
	left int
	done func()
}

func (t *slowTask) Run(budget time.Duration) bool {
	for t.left > 0 {
		t0 := time.Now()
		for time.Since(t0) < 2*time.Millisecond {
		}
		t.left--
		if budget > 0 && t.left > 0 {
			return false
		}
	}
	t.done()
	return true
}

// TestPipelineWallExcludesDrain is the regression for the Wall
// accounting bugfix: Wall was stamped after the post-run sched.Drain, so
// a budget-sliced run whose last task drained at exit billed its whole
// teardown to serving throughput. Wall must now cover only the serving
// phase, with the drain reported separately as DrainWall.
func TestPipelineWallExcludesDrain(t *testing.T) {
	m := buildBox(t, 4)
	eng := &slowMaintEngine{m: m}
	d := newAllDeformers(0.003)
	queries, _ := testWorkload(m, 2, 0, 107)

	pl := &query.Pipeline{
		Engine:  eng,
		Mesh:    m,
		Deform:  d.Step,
		Workers: 2,
		// Exactly one step, so one tick: the 100µs budget admits a single
		// ~2ms chunk of the ~40ms task, and the other 19 must drain after
		// serving ends. MinSteps makes the step happen even when the
		// workers finish before the writer first runs; without it the
		// writer could see the queries done and take no step, leaving
		// nothing to drain.
		MinSteps:          1,
		MaxSteps:          1,
		MaintenanceBudget: 100 * time.Microsecond,
	}
	report := pl.Run(queries, nil)
	if report.Steps != 1 {
		t.Fatalf("%d steps, want exactly 1", report.Steps)
	}
	if report.DrainWall < 20*time.Millisecond {
		t.Fatalf("DrainWall = %v — the deliberately slow task should need >= 20ms of post-run drain", report.DrainWall)
	}
	if report.Wall >= report.DrainWall {
		t.Fatalf("Wall (%v) >= DrainWall (%v): serving time still includes the drain", report.Wall, report.DrainWall)
	}
	if eng.answer != m.Epoch() {
		t.Fatal("drain did not complete the task")
	}
}
