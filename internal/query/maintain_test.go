package query_test

// Budgeted-maintenance pipeline suite (run under -race in CI): the
// scheduler slices maintenance tasks mid-flight while queries drain
// concurrently, and every result — including the ones answered by the
// mid-maintenance fallback scan — must still equal brute force at its
// trace's epoch (replayed through the deterministic deformer oracle).

import (
	"testing"
	"time"

	"octopus/internal/query"
	"octopus/internal/sim"
)

// TestMaintainBudgetedPipelineAllEngines is the budgeted variant of
// TestSnapshotConsistencyAllEngines: a hostile 20us budget forces
// maintenance tasks to be sliced across ticks on the rebuild-heavy
// engines, so queries routinely land mid-task and answer through the
// fallback. Exactness at the pinned epoch must survive all of it, for
// all 9 engines.
//
// MaxSteps stops the writer at epoch 8: the ninth step of this deformer
// is the first to bend the box out of the convexity OCTOPUS-CON's crawl
// needs, and from there CON may legitimately miss a vertex (its documented
// limit, not a torn read).
func TestMaintainBudgetedPipelineAllEngines(t *testing.T) {
	for _, f := range engineFactories() {
		f := f
		t.Run(f.name, func(t *testing.T) {
			m := buildBox(t, 6)
			eng := f.make(m)
			o := newEpochOracle(m, &sim.NoiseDeformer{Amplitude: 0.004, Frequency: 2, Seed: 23})
			queries, probes := testWorkload(m, 48, 20, 29)

			pl := &query.Pipeline{
				Engine:            eng,
				Mesh:              m,
				Deform:            o.deform(m),
				Workers:           4,
				MinSteps:          6,
				MaxSteps:          8,
				MaintenanceBudget: 20 * time.Microsecond,
			}
			report := pl.Run(queries, probes)
			o.verify(t, m.Epoch())
			checkReport(t, o, report, queries, probes)

			st := pl.SchedulerStats()
			if st.Targets != 1 {
				t.Fatalf("unsharded pipeline has %d targets, want 1", st.Targets)
			}
			if st.Ticks != int64(report.Steps) {
				t.Fatalf("scheduler ticks %d, writer steps %d", st.Ticks, report.Steps)
			}
			if st.TasksCompleted > st.TasksStarted {
				t.Fatalf("completed %d > started %d", st.TasksCompleted, st.TasksStarted)
			}
		})
	}
}

// TestMaintainRepeatedRunDrainsTasks is the regression for mid-flight
// tasks leaking across runs: a budget can leave the last tick's task
// sliced when queries drain, and the next Run builds fresh scheduler
// state — so Run must drain in-flight maintenance before returning, or
// the second run's early queries would read an epoch-mixed index. Both
// runs replay exactly, and after each Run the engine must be consistent
// with the head.
func TestMaintainRepeatedRunDrainsTasks(t *testing.T) {
	for _, f := range engineFactories() {
		if f.name != "KD-Tree" {
			continue
		}
		m := buildBox(t, 6)
		eng := f.make(m)
		o := newEpochOracle(m, &sim.NoiseDeformer{Amplitude: 0.004, Frequency: 2, Seed: 47})
		queries, probes := testWorkload(m, 32, 12, 53)

		pl := &query.Pipeline{
			Engine:            eng,
			Mesh:              m,
			Deform:            o.deform(m),
			Workers:           4,
			MinSteps:          5,
			MaintenanceBudget: 10 * time.Microsecond,
		}
		rep := query.ParallelKNNEngine(eng).(query.EpochReporter)
		for run := 0; run < 3; run++ {
			report := pl.Run(queries, probes)
			if got, head := rep.AnswerEpoch(), m.Epoch(); got != head {
				t.Fatalf("run %d: engine at epoch %d after Run, head %d — in-flight task not drained", run, got, head)
			}
			o.verify(t, m.Epoch())
			checkReport(t, o, report, queries, probes)
		}
	}
}

// TestMaintainSchedulerStatsPerRun pins the per-run stats semantics for
// engines whose target states persist across runs (the sharded router):
// a fresh Run's SchedulerStats must not include the previous run's
// slices, so BudgetUtilization stays meaningful.
func TestMaintainSchedulerStatsPerRun(t *testing.T) {
	m := buildBox(t, 5)
	eng := engineFactories()[5].make(m) // KD-Tree
	d := newAllDeformers(0.004)
	queries, _ := testWorkload(m, 24, 0, 59)
	pl := &query.Pipeline{Engine: eng, Mesh: m, Deform: d.Step, Workers: 2, MinSteps: 3, MaxSteps: 3}
	pl.Run(queries, nil)
	first := pl.SchedulerStats()
	pl.Run(queries, nil)
	second := pl.SchedulerStats()
	if first.SlicesRun == 0 || second.SlicesRun == 0 {
		t.Fatalf("both runs must maintain (first %d, second %d slices)", first.SlicesRun, second.SlicesRun)
	}
	if second.Ticks != 3 {
		t.Fatalf("second run ticks = %d, want 3", second.Ticks)
	}
	// The unsharded target is rebuilt per Run, so the check here is the
	// baseline mechanism itself: second-run counters must be in the same
	// ballpark as the first run's, not cumulative.
	if second.SlicesRun > first.SlicesRun*2+4 {
		t.Fatalf("second run slices %d look cumulative (first run %d)", second.SlicesRun, first.SlicesRun)
	}
}

// stepOnly is the monolithic baseline the bench experiment uses: the
// embedded interface hides the engine's BeginMaintenance, AnswerEpoch is
// forwarded, and the scheduler lands on the StepTask path.
type stepOnly struct {
	query.ParallelKNNEngine
	query.EpochReporter
}

// TestMaintainMonolithicPipelineBaseline runs the whole-Step path (the
// bench experiment's baseline) on a rebuild-heavy engine and checks it
// is exactly as consistent as the legacy behavior it reproduces.
func TestMaintainMonolithicPipelineBaseline(t *testing.T) {
	for _, name := range []string{"KD-Tree", "LU-Grid"} {
		for _, f := range engineFactories() {
			if f.name != name {
				continue
			}
			f := f
			t.Run(f.name, func(t *testing.T) {
				m := buildBox(t, 6)
				inner := f.make(m)
				eng := stepOnly{inner, inner.(query.EpochReporter)}
				o := newEpochOracle(m, &sim.NoiseDeformer{Amplitude: 0.004, Frequency: 2, Seed: 31})
				queries, probes := testWorkload(m, 32, 12, 37)

				pl := &query.Pipeline{
					Engine:   eng,
					Mesh:     m,
					Deform:   o.deform(m),
					Workers:  4,
					MinSteps: 4,
				}
				report := pl.Run(queries, probes)
				o.verify(t, m.Epoch())
				checkReport(t, o, report, queries, probes)
			})
		}
	}
}

// TestMaintainHookRunsExclusively is the single-engine half of the
// hook-unification satellite: the Maintain hook must observe the engine
// consistent (no task mid-flight) even under a budget that slices every
// task, because Scheduler.Exclusive finishes in-flight work first.
func TestMaintainHookRunsExclusively(t *testing.T) {
	for _, name := range []string{"KD-Tree", "OCTREE"} {
		for _, f := range engineFactories() {
			if f.name != name {
				continue
			}
			f := f
			t.Run(f.name, func(t *testing.T) {
				m := buildBox(t, 5)
				eng := f.make(m)
				o := newEpochOracle(m, &sim.NoiseDeformer{Amplitude: 0.004, Frequency: 2, Seed: 41})
				queries, probes := testWorkload(m, 24, 8, 43)

				hooks := 0
				pl := &query.Pipeline{
					Engine:            eng,
					Mesh:              m,
					Deform:            o.deform(m),
					Workers:           3,
					MinSteps:          5,
					MaintenanceBudget: 10 * time.Microsecond,
				}
				rep, _ := query.ParallelKNNEngine(eng).(query.EpochReporter)
				pl.Maintain = func(step int) {
					hooks++
					if rep != nil && rep.AnswerEpoch() != m.Epoch() {
						t.Errorf("hook at step %d: engine at epoch %d, head %d — in-flight task not drained",
							step, rep.AnswerEpoch(), m.Epoch())
					}
				}
				report := pl.Run(queries, probes)
				if hooks != report.Steps {
					t.Fatalf("hook ran %d times over %d steps", hooks, report.Steps)
				}
				if st := pl.SchedulerStats(); st.ExclusiveRuns != int64(report.Steps) {
					t.Fatalf("exclusive runs %d, steps %d", st.ExclusiveRuns, report.Steps)
				}
				o.verify(t, m.Epoch())
				checkReport(t, o, report, queries, probes)
			})
		}
	}
}
