package maintain

import (
	"testing"
	"time"

	"octopus/internal/geom"
	"octopus/internal/mesh"
)

// fakeMesh is a hand-driven DirtyMesh.
type fakeMesh struct {
	epoch uint64
	dirty mesh.DirtyRegion
	have  bool
}

func (m *fakeMesh) Epoch() uint64 { return m.epoch }

func (m *fakeMesh) TakeDirty() mesh.DirtyRegion {
	if !m.have {
		return mesh.DirtyRegion{From: m.epoch, To: m.epoch}
	}
	d := m.dirty
	d.To = m.epoch
	m.have = false
	return d
}

// advance publishes n epochs with the given dirty vertex ids.
func (m *fakeMesh) advance(n uint64, verts ...int32) {
	d := mesh.DirtyRegion{From: m.epoch, To: m.epoch + n, Verts: verts}
	m.epoch += n
	if m.have {
		m.dirty.Merge(d)
	} else {
		m.dirty = d
		m.have = true
	}
}

// fakeEngine implements Stepper + Incremental + EpochReporter with a
// relocation-shaped task of `work` items per begin.
type fakeEngine struct {
	mesh    *fakeMesh
	work    int
	answer  uint64
	steps   int
	applied []int32 // ids processed, in order, across all tasks
	begins  int
	delay   time.Duration // per-item busy work
}

func (e *fakeEngine) Step() {
	e.steps++
	e.answer = e.mesh.epoch
}

func (e *fakeEngine) AnswerEpoch() uint64 { return e.answer }

func (e *fakeEngine) BeginMaintenance(d mesh.DirtyRegion) Task {
	if d.Empty() && e.answer == e.mesh.epoch {
		return nil
	}
	e.begins++
	head := e.mesh.epoch
	return &RelocationTask{
		Verts: d.Verts,
		N:     e.work,
		Apply: func(i int, v int32) {
			if e.delay > 0 {
				t0 := time.Now()
				for time.Since(t0) < e.delay {
				}
			}
			e.applied = append(e.applied, v)
		},
		Done: func() { e.answer = head },
	}
}

func TestRelocationTaskResumes(t *testing.T) {
	var got []int32
	task := &RelocationTask{
		N:     3*sliceStride + 10,
		Apply: func(i int, v int32) { got = append(got, v) },
	}
	doneCalls := 0
	task.Done = func() { doneCalls++ }

	slices := 0
	for !task.Run(1) { // 1ns budget: exactly one stride per slice
		slices++
		if slices > 10 {
			t.Fatal("task never completed")
		}
	}
	if want := 3*sliceStride + 10; len(got) != want {
		t.Fatalf("applied %d items, want %d", len(got), want)
	}
	for i, v := range got {
		if v != int32(i) {
			t.Fatalf("item %d applied as %d — resumption replayed or skipped work", i, v)
		}
	}
	if slices < 3 {
		t.Fatalf("task finished in %d interrupted slices; budget did not slice it", slices)
	}
	if doneCalls != 1 {
		t.Fatalf("Done ran %d times, want exactly 1", doneCalls)
	}
	// Unbudgeted run completes in one call.
	task2 := &RelocationTask{N: 10 * sliceStride, Apply: func(int, int32) {}}
	if !task2.Run(0) {
		t.Fatal("unbudgeted Run must complete")
	}
}

func TestSchedulerUnbudgetedCompletesEachTick(t *testing.T) {
	fm := &fakeMesh{}
	fe := &fakeEngine{mesh: fm, work: 5}
	ts := NewTargetState(Target{Name: "t", Engine: fe, Mesh: fm})
	s := NewScheduler([]*TargetState{ts}, Options{})

	for step := 0; step < 3; step++ {
		fm.advance(1, 1, 2, 3)
		s.Tick()
		if fe.answer != fm.epoch {
			t.Fatalf("step %d: engine at %d, head %d — unbudgeted tick left work behind", step, fe.answer, fm.epoch)
		}
		if ts.BeginQuery() {
			t.Fatal("no query may see a mid-task engine after an unbudgeted tick")
		}
		ts.EndQuery()
	}
	st := s.Stats()
	if st.TasksStarted != 3 || st.TasksCompleted != 3 || st.SlicesRun != 3 {
		t.Fatalf("stats = %+v, want 3 tasks started/completed in 3 slices", st)
	}
	if st.Ticks != 3 {
		t.Fatalf("ticks = %d, want 3", st.Ticks)
	}
}

func TestSchedulerBudgetSlicesAndResumes(t *testing.T) {
	fm := &fakeMesh{}
	// Work spanning several strides, with per-item busy work so a 1ns
	// effective budget cuts after the first stride.
	fe := &fakeEngine{mesh: fm, work: 3 * sliceStride, delay: 10 * time.Microsecond}
	ts := NewTargetState(Target{Name: "t", Engine: fe, Mesh: fm})
	s := NewScheduler([]*TargetState{ts}, Options{Budget: time.Nanosecond})

	fm.advance(1)
	s.Tick()
	if ts.taskDone() {
		t.Fatal("a 1ns budget must leave the task mid-flight")
	}
	// Mid-task: queries must be told to fall back.
	if !ts.BeginQuery() {
		t.Fatal("BeginQuery must report mid-task inconsistency")
	}
	ts.EndQuery()
	if fe.answer == fm.epoch {
		t.Fatal("answer epoch must not advance before the task completes")
	}

	// Later ticks (no new dirt) resume the same task until done.
	for i := 0; i < 20 && !ts.taskDone(); i++ {
		s.Tick()
	}
	if !ts.taskDone() {
		t.Fatal("task never finished across ticks")
	}
	if fe.answer != fm.epoch {
		t.Fatalf("engine at %d after completion, head %d", fe.answer, fm.epoch)
	}
	if len(fe.applied) != fe.work {
		t.Fatalf("applied %d, want %d — slices lost or replayed work", len(fe.applied), fe.work)
	}
	st := s.Stats()
	if st.TasksStarted != 1 || st.TasksCompleted != 1 {
		t.Fatalf("stats = %+v, want exactly one task", st)
	}
	if st.SlicesRun < 2 {
		t.Fatalf("slices = %d, want >= 2 (budget must have sliced)", st.SlicesRun)
	}
	if st.FallbackQueries != 1 {
		t.Fatalf("fallbacks = %d, want 1", st.FallbackQueries)
	}
	if st.SliceTime <= 0 {
		t.Fatal("slice time not accounted")
	}
}

// taskDone reports whether no task is in flight (test helper).
func (ts *TargetState) taskDone() bool {
	ts.mu.RLock()
	defer ts.mu.RUnlock()
	return ts.task == nil
}

func TestSchedulerPriorityOrdersByStalenessAndPressure(t *testing.T) {
	mkTarget := func(stale uint64, pressure int64) *TargetState {
		fm := &fakeMesh{}
		fe := &fakeEngine{mesh: fm, work: 1}
		ts := NewTargetState(Target{Engine: fe, Mesh: fm})
		fm.epoch = stale // engine answer stays 0 -> staleness = epoch
		ts.pressure.Add(pressure)
		ts.ema = 0
		return ts
	}
	// A: very stale, idle. B: slightly stale, hot. C: fresh, idle.
	a := mkTarget(10, 0)
	b := mkTarget(2, 100)
	c := mkTarget(0, 0)
	// Collect (the tick's first phase) folds pressure into the EMA;
	// priorities are what Tick sorts the slice order by.
	for _, ts := range []*TargetState{a, b, c} {
		ts.collect()
	}
	// Priorities: a = (10+1)*(0+1) = 11, b = (2+1)*(100+1) = 303, c = 1.
	if pa, pb := a.priority(), b.priority(); pb <= pa {
		t.Fatalf("priority(hot, slightly stale) = %.0f must exceed priority(idle, very stale) = %.0f", pb, pa)
	}
	if pc := c.priority(); pc >= a.priority() {
		t.Fatalf("fresh idle target must rank last (c=%.0f a=%.0f)", pc, a.priority())
	}
}

func TestSchedulerExclusiveFinishesInFlightTasks(t *testing.T) {
	fm := &fakeMesh{}
	fe := &fakeEngine{mesh: fm, work: 4 * sliceStride, delay: 5 * time.Microsecond}
	ts := NewTargetState(Target{Name: "t", Engine: fe, Mesh: fm})
	s := NewScheduler([]*TargetState{ts}, Options{Budget: time.Nanosecond})

	fm.advance(1)
	s.Tick()
	if ts.taskDone() {
		t.Fatal("setup: task should be mid-flight")
	}
	ran := false
	s.Exclusive(func() {
		ran = true
		if len(fe.applied) != fe.work {
			t.Fatalf("exclusive section saw %d/%d items applied — in-flight task not finished first",
				len(fe.applied), fe.work)
		}
	})
	if !ran {
		t.Fatal("exclusive fn did not run")
	}
	if !ts.taskDone() || fe.answer != fm.epoch {
		t.Fatal("engine must be consistent after Exclusive")
	}
	if s.Stats().ExclusiveRuns != 1 {
		t.Fatal("exclusive run not counted")
	}
}

// stepOnly is the monolithic baseline: it hides the engine's Incremental
// side and forwards AnswerEpoch, so the scheduler lands on the StepTask
// path.
type stepOnly struct {
	Stepper
	EpochReporter
}

func TestSchedulerStepOnlyEngineSteps(t *testing.T) {
	fm := &fakeMesh{}
	fe := &fakeEngine{mesh: fm, work: 8}
	ts := NewTargetState(Target{Name: "t", Engine: stepOnly{fe, fe}, Mesh: fm})
	s := NewScheduler([]*TargetState{ts}, Options{})

	fm.advance(1, 2)
	s.Tick()
	if fe.steps != 1 {
		t.Fatalf("steps = %d, want 1", fe.steps)
	}
	if fe.answer != fm.epoch {
		t.Fatal("monolithic step must leave the engine at head")
	}
	// Consistent engine: no further step.
	s.Tick()
	if fe.steps != 1 {
		t.Fatalf("steps = %d after idle tick, want still 1", fe.steps)
	}
}

// nilEngine has maintenance-free semantics: Incremental returning nil.
type nilEngine struct{ steps int }

func (e *nilEngine) Step()                                  { e.steps++ }
func (e *nilEngine) BeginMaintenance(mesh.DirtyRegion) Task { return nil }

func TestSchedulerNilTaskEnginesNeverSlice(t *testing.T) {
	fm := &fakeMesh{}
	e := &nilEngine{}
	ts := NewTargetState(Target{Name: "octopus-like", Engine: e, Mesh: fm})
	s := NewScheduler([]*TargetState{ts}, Options{Budget: time.Millisecond})
	for i := 0; i < 3; i++ {
		fm.advance(1, 0, 1)
		s.Tick()
	}
	st := s.Stats()
	if e.steps != 0 || st.TasksStarted != 0 || st.SlicesRun != 0 {
		t.Fatalf("maintenance-free engine did work: steps=%d stats=%+v", e.steps, st)
	}
}

func TestStepTaskCompletesInOneSlice(t *testing.T) {
	e := &nilEngine{}
	task := StepTask(e)
	if !task.Run(1) {
		t.Fatal("StepTask must complete in one slice regardless of budget")
	}
	if e.steps != 1 {
		t.Fatalf("steps = %d, want 1", e.steps)
	}
}

// TestSchedulerExclusiveTerminatesWithoutEpochReporter is the
// regression for the drainLocked hang: a monolithic target whose engine
// has neither AnswerEpoch nor Incremental (the OCTOPUS family behind a
// step-only wrapper) gave makeTaskLocked no way to report consistency,
// so Exclusive looped forever. One completed Step must satisfy the drain.
func TestSchedulerExclusiveTerminatesWithoutEpochReporter(t *testing.T) {
	fm := &fakeMesh{}
	e := &nilEngine{}
	ts := NewTargetState(Target{Name: "no-reporter", Engine: struct{ Stepper }{e}, Mesh: fm})
	s := NewScheduler([]*TargetState{ts}, Options{})
	fm.advance(1)
	done := make(chan struct{})
	go func() {
		s.Exclusive(func() {})
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("Exclusive did not terminate for a monolithic no-reporter target")
	}
	if e.steps == 0 {
		t.Fatal("drain must have stepped the engine at least once")
	}
}

// TestSchedulerStatsInsideExclusive is the regression for the
// self-deadlock: a Maintain hook calling Pipeline.SchedulerStats runs
// inside Exclusive with every target write lock held, so Stats must not
// take them.
func TestSchedulerStatsInsideExclusive(t *testing.T) {
	fm := &fakeMesh{}
	fe := &fakeEngine{mesh: fm, work: 4}
	ts := NewTargetState(Target{Name: "t", Engine: fe, Mesh: fm})
	s := NewScheduler([]*TargetState{ts}, Options{})
	fm.advance(3, 1)
	s.Tick()
	done := make(chan struct{})
	go func() {
		s.Exclusive(func() {
			if st := s.Stats(); st.Targets != 1 {
				t.Errorf("stats inside exclusive = %+v", st)
			}
		})
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("Stats deadlocked inside Exclusive")
	}
}

// TestSchedulerMaintainsReporterWithoutDirtyMesh is the regression for
// epoch-reporting engines behind a DeformableMesh that is not a dirty
// source (Target.Mesh nil): they must still be maintained every tick —
// the engine decides consistency against its own mesh — instead of
// freezing at construction.
func TestSchedulerMaintainsReporterWithoutDirtyMesh(t *testing.T) {
	fm := &fakeMesh{} // stands in for the engine's own mesh
	fe := &fakeEngine{mesh: fm, work: 2}
	ts := NewTargetState(Target{Name: "meshless", Engine: fe, Mesh: nil})
	s := NewScheduler([]*TargetState{ts}, Options{Budget: time.Millisecond})
	fm.epoch = 3 // the engine's mesh deformed; the scheduler cannot see it
	s.Tick()
	if fe.begins == 0 {
		t.Fatal("meshless reporter target was never offered maintenance")
	}
	if fe.answer != 3 {
		t.Fatalf("engine at %d after tick, want 3", fe.answer)
	}
	// Consistent now: later ticks stay cheap (nil tasks, no slices).
	before := s.Stats().SlicesRun
	s.Tick()
	if got := s.Stats().SlicesRun; got != before {
		t.Fatalf("consistent meshless target ran %d extra slices", got-before)
	}
}

// TestSchedulerStatsBaselinePerScheduler pins per-run stats semantics:
// target states may persist across schedulers (the sharded router keeps
// its per-shard states for the router's lifetime), so a fresh scheduler
// must report only its own activity, not the previous scheduler's.
func TestSchedulerStatsBaselinePerScheduler(t *testing.T) {
	fm := &fakeMesh{}
	fe := &fakeEngine{mesh: fm, work: 3}
	ts := NewTargetState(Target{Name: "t", Engine: fe, Mesh: fm})

	s1 := NewScheduler([]*TargetState{ts}, Options{})
	fm.advance(1, 1)
	s1.Tick()
	if s1.Stats().SlicesRun != 1 {
		t.Fatalf("first scheduler slices = %d, want 1", s1.Stats().SlicesRun)
	}

	s2 := NewScheduler([]*TargetState{ts}, Options{})
	if got := s2.Stats().SlicesRun; got != 0 {
		t.Fatalf("fresh scheduler inherits %d slices from the previous run", got)
	}
	fm.advance(1, 2)
	s2.Tick()
	st := s2.Stats()
	if st.SlicesRun != 1 || st.TasksCompleted != 1 {
		t.Fatalf("second scheduler stats = %+v, want exactly its own task", st)
	}
}

func TestSchedulerAccessors(t *testing.T) {
	fm := &fakeMesh{}
	ts := NewTargetState(Target{Name: "t0", Engine: &nilEngine{}, Mesh: fm})
	s := NewScheduler([]*TargetState{ts}, Options{Budget: time.Millisecond})
	if len(s.Targets()) != 1 || s.Targets()[0].Name() != "t0" {
		t.Fatalf("targets = %v", s.Targets())
	}
	st := Stats{Ticks: 4, SliceTime: 2 * time.Millisecond}
	if got := st.BudgetUtilization(time.Millisecond); got != 0.5 {
		t.Fatalf("budget utilization = %v, want 0.5", got)
	}
	if got := st.BudgetUtilization(0); got != 0 {
		t.Fatalf("unbudgeted utilization = %v, want 0", got)
	}
}

func TestCapturePositions(t *testing.T) {
	pos := []geom.Vec3{{X: 1}, {X: 2}, {X: 3}}
	all := CapturePositions(pos, nil)
	if len(all) != 3 || all[2].X != 3 {
		t.Fatalf("full capture = %v", all)
	}
	some := CapturePositions(pos, []int32{2, 0})
	if len(some) != 2 || some[0].X != 3 || some[1].X != 1 {
		t.Fatalf("subset capture = %v", some)
	}
	// Captures are copies: mutating pos must not leak through.
	pos[2].X = 9
	if all[2].X != 3 || some[0].X != 3 {
		t.Fatal("capture aliases the source array")
	}
}
