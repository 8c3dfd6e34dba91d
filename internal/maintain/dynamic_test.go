package maintain

import (
	"testing"
	"time"
)

// TestSchedulerSyncTargetsSwapsLive reconciles the target set mid-run
// the way a re-partition does: one shard's state is replaced by a fresh
// one, aggregate stats stay continuous, and the replacement is
// maintained from the very next tick.
func TestSchedulerSyncTargetsSwapsLive(t *testing.T) {
	fmA, fmB := &fakeMesh{}, &fakeMesh{}
	feA := &fakeEngine{mesh: fmA, work: 2}
	feB := &fakeEngine{mesh: fmB, work: 2}
	a := NewTargetState(Target{Name: "a", Engine: feA, Mesh: fmA})
	b := NewTargetState(Target{Name: "b", Engine: feB, Mesh: fmB})
	s := NewScheduler([]*TargetState{a, b}, Options{})

	fmA.advance(1, 1)
	fmB.advance(1, 2)
	s.Tick()
	before := s.Stats()
	if before.TasksCompleted != 2 || before.Targets != 2 {
		t.Fatalf("setup stats = %+v", before)
	}

	// A re-partition touching shard b replaces it with c.
	fmC := &fakeMesh{}
	feC := &fakeEngine{mesh: fmC, work: 2}
	c := NewTargetState(Target{Name: "c", Engine: feC, Mesh: fmC})
	s.SyncTargets([]*TargetState{a, c})

	st := s.Stats()
	if st.Targets != 2 {
		t.Fatalf("targets = %d after swap, want 2", st.Targets)
	}
	if st.TasksCompleted != before.TasksCompleted || st.SlicesRun != before.SlicesRun {
		t.Fatalf("aggregates moved across the swap: %+v -> %+v", before, st)
	}
	names := map[string]bool{}
	for _, pt := range st.PerTarget {
		names[pt.Name] = true
	}
	if !names["a"] || !names["c"] || names["b"] {
		t.Fatalf("per-target set after swap = %v, want {a, c}", names)
	}

	// The replacement is picked up by the next tick, and its activity
	// lands on top of the retired target's — never instead of it.
	fmC.advance(1, 3)
	s.Tick()
	if feC.answer != fmC.epoch {
		t.Fatal("swapped-in target was not maintained")
	}
	if got := s.Stats().TasksCompleted; got != before.TasksCompleted+1 {
		t.Fatalf("aggregate tasks = %d, want %d", got, before.TasksCompleted+1)
	}
	// SyncTargets is a reconcile, not a reset: syncing the same set
	// again changes nothing.
	s.SyncTargets([]*TargetState{a, c})
	if got := s.Stats(); got.Targets != 2 || got.TasksCompleted != before.TasksCompleted+1 {
		t.Fatalf("idempotent sync changed stats: %+v", got)
	}
}

// TestSchedulerSyncTargetsIdempotent pins the mutator's edge cases: a
// target named twice is registered once, retiring it folds exactly one
// task, and retiring it again folds nothing.
func TestSchedulerSyncTargetsIdempotent(t *testing.T) {
	fm := &fakeMesh{}
	fe := &fakeEngine{mesh: fm, work: 2}
	ts := NewTargetState(Target{Name: "t", Engine: fe, Mesh: fm})
	s := NewScheduler(nil, Options{})
	s.SyncTargets([]*TargetState{ts, ts})
	s.SyncTargets([]*TargetState{ts})
	if got := s.Stats().Targets; got != 1 {
		t.Fatalf("double add -> %d targets, want 1", got)
	}
	fm.advance(1, 1)
	s.Tick()
	s.SyncTargets(nil)
	st := s.Stats()
	if st.Targets != 0 {
		t.Fatalf("targets = %d after remove, want 0", st.Targets)
	}
	if st.TasksCompleted != 1 || st.SlicesRun != 1 {
		t.Fatalf("retired fold = %+v, want exactly one task", st)
	}
	s.SyncTargets(nil) // already retired: no-op, not a double-fold
	if got := s.Stats().TasksCompleted; got != 1 {
		t.Fatalf("double remove double-folded: tasks = %d", got)
	}
}

// TestSchedulerSyncTargetsExcludesPreRegistrationWork pins the per-run
// baseline across dynamic registration: a state that lived under an
// earlier scheduler brings none of that history with it, and retiring it
// folds only the activity this scheduler saw.
func TestSchedulerSyncTargetsExcludesPreRegistrationWork(t *testing.T) {
	fm := &fakeMesh{}
	fe := &fakeEngine{mesh: fm, work: 2}
	ts := NewTargetState(Target{Name: "t", Engine: fe, Mesh: fm})

	s1 := NewScheduler([]*TargetState{ts}, Options{})
	fm.advance(1, 1)
	s1.Tick() // this task belongs to s1's run

	s2 := NewScheduler(nil, Options{})
	s2.SyncTargets([]*TargetState{ts})
	if got := s2.Stats().TasksCompleted; got != 0 {
		t.Fatalf("fresh registration inherited %d tasks", got)
	}
	fm.advance(1, 2)
	s2.Tick()
	s2.SyncTargets(nil)
	if st := s2.Stats(); st.TasksCompleted != 1 || st.SlicesRun != 1 {
		t.Fatalf("retired stats = %+v, want exactly s2's own task", st)
	}
}

// TestRebuildStateBuildsUnderTick drives a migration rebuild the way
// the pipeline does: queries fall back while the engine does not exist,
// a budgeted tick constructs it exactly once (the force grant makes the
// indivisible build slice run even under a hostile budget), and the
// fresh engine is fully wired into the maintenance machinery.
func TestRebuildStateBuildsUnderTick(t *testing.T) {
	fm := &fakeMesh{}
	built := 0
	var fe *fakeEngine
	ts := NewRebuildState("migrating", fm, func() Stepper {
		built++
		fe = &fakeEngine{mesh: fm, work: 1, answer: fm.epoch}
		return fe
	})
	if !ts.BeginQuery() {
		t.Fatal("pre-build queries must fall back")
	}
	ts.EndQuery()

	s := NewScheduler([]*TargetState{ts}, Options{Budget: time.Nanosecond})
	s.Tick()
	if built != 1 {
		t.Fatalf("built %d times, want 1", built)
	}
	if ts.BeginQuery() {
		t.Fatal("post-build queries must use the index")
	}
	ts.EndQuery()

	// Later dirt flows to the engine the rebuild installed.
	fm.advance(1, 4)
	s.Tick()
	if fe.begins == 0 || fe.answer != fm.epoch {
		t.Fatalf("rebuilt engine not maintained: begins=%d answer=%d head=%d",
			fe.begins, fe.answer, fm.epoch)
	}
}

// TestRebuildStateToHead drives a migration rebuild the way Router.Step
// does, with no scheduler: ToHead runs the pre-installed task (the engine
// does not exist until it has), a second call finds the fresh engine at
// the head and neither rebuilds nor Steps it, and later dirt taken from
// the mesh reaches the engine's localized path.
func TestRebuildStateToHead(t *testing.T) {
	fm := &fakeMesh{epoch: 2}
	built := 0
	var fe *fakeEngine
	ts := NewRebuildState("shard", fm, func() Stepper {
		built++
		fe = &fakeEngine{mesh: fm, work: 1, answer: fm.epoch}
		return fe
	})
	ts.ToHead()
	if built != 1 {
		t.Fatalf("built %d times, want 1", built)
	}
	if ts.BeginQuery() {
		t.Fatal("target must be consistent after ToHead")
	}
	ts.EndQuery()
	ts.ToHead()
	if built != 1 || fe.steps != 0 || fe.begins != 0 {
		t.Fatalf("a second ToHead at the head worked: built=%d steps=%d begins=%d", built, fe.steps, fe.begins)
	}

	fm.advance(1, 4, 9)
	ts.ToHead()
	if fe.begins != 1 || fe.answer != fm.epoch || fe.steps != 0 {
		t.Fatalf("dirt not maintained: begins=%d answer=%d head=%d steps=%d", fe.begins, fe.answer, fm.epoch, fe.steps)
	}
	if len(fe.applied) != 2 || fe.applied[0] != 4 || fe.applied[1] != 9 {
		t.Fatalf("ToHead relocated %v, want the taken dirty list [4 9]", fe.applied)
	}
	if st := ts.stats(); st.TasksStarted != 2 || st.TasksCompleted != 2 {
		t.Fatalf("stats = %+v, want the rebuild and one maintenance task", st)
	}
}

// TestRebuildStateSeedPressurePreservesPriority checks that a
// replacement target inheriting its predecessor's pressure EMA keeps
// the hot shard's scheduling rank, and that the seed decays like any
// observed pressure instead of resetting.
func TestRebuildStateSeedPressurePreservesPriority(t *testing.T) {
	fm := &fakeMesh{}
	hot := NewRebuildState("hot", fm, func() Stepper { return &nilEngine{} })
	cold := NewRebuildState("cold", &fakeMesh{}, func() Stepper { return &nilEngine{} })
	hot.SeedPressure(64)
	if hot.PressureEMA() != 64 {
		t.Fatalf("ema = %d after seed, want 64", hot.PressureEMA())
	}
	if hot.priority() <= cold.priority() {
		t.Fatal("seeded pressure must outrank an idle replacement")
	}
	hot.collect() // one idle tick: the seed halves, it does not reset
	if got := hot.PressureEMA(); got != 32 {
		t.Fatalf("ema after one idle collect = %d, want 32", got)
	}
}

// TestSchedulerExclusiveCompletesRebuild: a Maintain hook firing while
// a migration rebuild is still queued must observe the engine built —
// Exclusive's drain runs rebuild tasks like any other.
func TestSchedulerExclusiveCompletesRebuild(t *testing.T) {
	fm := &fakeMesh{}
	built := 0
	ts := NewRebuildState("pending", fm, func() Stepper {
		built++
		return &fakeEngine{mesh: fm, work: 1, answer: fm.epoch}
	})
	s := NewScheduler([]*TargetState{ts}, Options{Budget: time.Nanosecond})
	ran := false
	s.Exclusive(func() {
		ran = true
		if built != 1 {
			t.Fatalf("exclusive section saw built=%d, want 1", built)
		}
	})
	if !ran {
		t.Fatal("exclusive fn did not run")
	}
	if ts.BeginQuery() {
		t.Fatal("target must be consistent after Exclusive")
	}
	ts.EndQuery()
}
