package maintain

// Tests for the serving-layer scheduler hook: the adaptive budget setter
// (the SLO controller's primary actuator).

import (
	"testing"
	"time"
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
