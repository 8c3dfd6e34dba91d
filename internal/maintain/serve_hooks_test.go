package maintain

// Tests for the serving-layer scheduler hooks: the adaptive budget
// setter (the SLO controller's primary actuator), the dirty-region
// observer (the result cache's invalidation feed), and SyncTargets'
// changed report (the cache's flush-on-target-swap trigger).

import (
	"testing"
	"time"

	"octopus/internal/mesh"
)

func TestSchedulerSetBudget(t *testing.T) {
	fm := &fakeMesh{}
	fe := &fakeEngine{mesh: fm, work: 3 * sliceStride, delay: 10 * time.Microsecond}
	ts := NewTargetState(Target{Name: "t", Engine: fe, Mesh: fm})
	s := NewScheduler([]*TargetState{ts}, Options{Budget: time.Nanosecond})
	if got := s.Budget(); got != time.Nanosecond {
		t.Fatalf("Budget() = %v, want the constructed 1ns", got)
	}

	// The 1ns budget slices the task mid-flight.
	fm.advance(1)
	s.Tick()
	if ts.taskDone() {
		t.Fatal("setup: 1ns budget should leave the task mid-flight")
	}

	// Raising the budget mid-run takes effect on the NEXT tick: one
	// unbudgeted-sized slice finishes the task in one tick.
	s.SetBudget(0)
	if got := s.Budget(); got != 0 {
		t.Fatalf("Budget() after SetBudget(0) = %v", got)
	}
	s.Tick()
	if !ts.taskDone() {
		t.Fatal("unbudgeted tick after SetBudget must complete the task")
	}
	if fe.answer != fm.epoch {
		t.Fatalf("engine at %d, head %d", fe.answer, fm.epoch)
	}
}

func TestSchedulerDirtyObserver(t *testing.T) {
	fm := &fakeMesh{}
	fe := &fakeEngine{mesh: fm, work: 2}
	ts := NewTargetState(Target{Name: "t", Engine: fe, Mesh: fm})
	s := NewScheduler([]*TargetState{ts}, Options{})

	var seen []mesh.DirtyRegion
	s.SetDirtyObserver(func(d mesh.DirtyRegion) { seen = append(seen, d) })

	// A tick with no published dirt observes nothing.
	s.Tick()
	if len(seen) != 0 {
		t.Fatalf("idle tick delivered %d regions", len(seen))
	}

	// Each dirty tick delivers the region exactly once, before the slice
	// consumes it.
	fm.advance(1, 3, 5)
	s.Tick()
	fm.advance(2, 7)
	s.Tick()
	if len(seen) != 2 {
		t.Fatalf("got %d regions, want 2", len(seen))
	}
	if len(seen[0].Verts) != 2 || seen[0].Verts[0] != 3 || seen[0].Verts[1] != 5 {
		t.Fatalf("first region verts = %v, want [3 5]", seen[0].Verts)
	}
	if seen[1].From != 1 || seen[1].To != 3 {
		t.Fatalf("second region interval = (%d, %d], want (1, 3]", seen[1].From, seen[1].To)
	}
	// The re-delivered tick (no new dirt) observes nothing again.
	s.Tick()
	if len(seen) != 2 {
		t.Fatalf("idle tick re-delivered dirt: %d regions", len(seen))
	}
}

func TestSyncTargetsReportsChanges(t *testing.T) {
	mk := func(name string) *TargetState {
		fm := &fakeMesh{}
		return NewTargetState(Target{Name: name, Engine: &nilEngine{}, Mesh: fm})
	}
	a, b, c := mk("a"), mk("b"), mk("c")
	s := NewScheduler([]*TargetState{a, b}, Options{})

	if s.SyncTargets([]*TargetState{a, b}) {
		t.Fatal("identical target set reported as changed")
	}
	if !s.SyncTargets([]*TargetState{a, b, c}) {
		t.Fatal("added target not reported")
	}
	if s.SyncTargets([]*TargetState{a, b, c}) {
		t.Fatal("steady state after add reported as changed")
	}
	if !s.SyncTargets([]*TargetState{a, c}) {
		t.Fatal("removed target not reported")
	}
	if !s.SyncTargets([]*TargetState{a, b}) {
		t.Fatal("swap (add+remove) not reported")
	}
	got := s.Targets()
	if len(got) != 2 {
		t.Fatalf("targets after syncs = %d, want 2", len(got))
	}
}
