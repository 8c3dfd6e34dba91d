// Package maintain implements the unified incremental-maintenance
// subsystem (DESIGN.md §11): dirty-region driven, budget-sliced,
// resumable index maintenance with a pressure-aware scheduler.
//
// The paper charges every engine's index maintenance to query response
// time, and on dynamic meshes that cost is the bottleneck: a
// rebuild-per-step baseline stalls the whole query side for the duration
// of the rebuild. This package breaks the monolith three ways:
//
//   - every mesh.Mesh records dirty regions from construction (moved
//     vertices + coarse AABB + restructured cells, dirty.go in
//     internal/mesh; there is nothing to enable), so engines know what
//     actually changed instead of assuming everything did;
//   - engines implement Incremental: BeginMaintenance(dirty) returns a
//     resumable Task whose Run(budget) performs a bounded slice of the
//     work — genuinely localized where the structure allows it (tree
//     leaf relocation, grid re-bucketing, R-tree re-insertion), a
//     sliceable full pass otherwise;
//   - a Scheduler owns one TargetState per independently-maintained
//     engine (the engine itself, or one shard of a sharded router),
//     prioritizes stale targets by staleness x observed query pressure,
//     enforces a per-tick time budget, and runs per-target tasks
//     concurrently.
//
// # Exactness mid-task
//
// A task may be interrupted between slices with the index half-updated —
// some vertices relocated to the target epoch, others still at the
// previous one. Such an index must never answer a query: its per-vertex
// state is coherent (every structure entry agrees with the engine's
// shadow position of that vertex) but its epoch is mixed, so no single
// epoch describes a result computed from it. TargetState therefore
// tracks an "inconsistent" flag, set while a task is mid-flight, and
// queries that observe it answer from a direct scan of the pinned head
// positions instead (the owned-scan fallback in the sharded router) —
// exact at the head epoch, which also makes mid-maintenance answers the
// freshest ones. Engines whose task never ran a slice are untouched and
// answer from their last consistent snapshot as usual.
//
// The per-vertex coherence invariant is what makes interruption safe:
// finishing the task (or a direct Step) restores a uniform epoch no
// matter where the task stopped.
package maintain

import (
	"time"

	"octopus/internal/geom"
	"octopus/internal/mesh"
)

// Stepper is the monolithic-maintenance side every engine already has:
// query.Engine's Step, charged per simulation step.
type Stepper interface {
	Step()
}

// Task is one engine's pending maintenance toward a target epoch, as a
// resumable sequence of bounded slices.
type Task interface {
	// Run performs up to budget of work and reports whether the task
	// completed. budget <= 0 means unbudgeted: run to completion. A
	// completed task must leave the engine consistent at the task's
	// target epoch; an interrupted one may leave it inconsistent (the
	// scheduler routes queries around it) but must preserve the
	// per-vertex coherence invariant so the next slice — or a monolithic
	// Step — can finish the job.
	Run(budget time.Duration) (done bool)
}

// Incremental is implemented by engines that can turn a dirty region
// into a resumable maintenance task. BeginMaintenance is called with
// maintenance excluded from queries (the target's write lock held); it
// must only capture state (O(dirty) or O(V) copies at most), not mutate
// the index — mutation happens in Task.Run. Returning nil means no work
// is needed (the engine is already consistent with the head epoch; the
// OCTOPUS family returns nil always).
//
// Engines that do not implement Incremental are wrapped by StepTask:
// their full rebuild runs as a single unbounded slice, which is exactly
// the monolithic behavior the budget sweep compares against.
type Incremental interface {
	BeginMaintenance(d mesh.DirtyRegion) Task
}

// EpochReporter mirrors query.EpochReporter (declared locally so the
// dependency points query -> maintain, not back): engines answering from
// an internal snapshot report the epoch it is consistent with.
type EpochReporter interface {
	AnswerEpoch() uint64
}

// DirtyMesh is the mesh surface a target needs: the published epoch and
// the dirty region accumulated since the last consume. *mesh.Mesh
// implements it; sharded targets use their shard's sub-mesh.
type DirtyMesh interface {
	Epoch() uint64
	TakeDirty() mesh.DirtyRegion
}

// Target names one independently-maintained engine for the scheduler.
type Target struct {
	// Name labels the target in stats ("shard-3", or the engine name).
	Name string
	// Engine performs the maintenance. It may additionally implement
	// Incremental (localized resumable path) and EpochReporter
	// (staleness accounting); with neither, Step runs every tick.
	Engine Stepper
	// Mesh is the target's dirty source; nil disables dirty collection
	// and budget slicing (tasks then always run to completion within
	// their tick, so queries never need a fallback).
	Mesh DirtyMesh
}

// StateProvider is implemented by engines that are themselves a bundle
// of independently-maintained targets — the sharded router, whose
// per-shard engines each get their own TargetState (and whose cursors
// take the matching per-shard read locks). The pipeline schedules the
// provided states instead of wrapping the engine in a single one.
type StateProvider interface {
	MaintainStates() []*TargetState
}

// StepTask wraps a monolithic Step as a single-slice Task: Run ignores
// the budget (a full rebuild cannot be split) and always completes.
func StepTask(e Stepper) Task { return stepTask{e} }

type stepTask struct{ e Stepper }

func (t stepTask) Run(time.Duration) bool {
	t.e.Step()
	return true
}

// sliceStride is how many per-vertex operations a RelocationTask applies
// between deadline checks: large enough to amortize the clock read (tens
// of nanoseconds against ~100ns-50us per operation), small enough to
// keep slice overshoot near one stride of work even for the heaviest
// per-vertex updates (R-tree delete + insert).
const sliceStride = 64

// RelocationTask is the shared resumable-task shape of every localized
// engine path: apply a per-vertex update over a captured dirty set (or
// the full id range), a bounded number per slice.
type RelocationTask struct {
	// Verts lists the dirty vertex ids; nil means the full range [0, N).
	Verts []int32
	// N is the range length when Verts is nil.
	N int
	// Apply relocates the i-th vertex of the set; v is its id.
	Apply func(i int, v int32)
	// Done runs once when the last vertex has been applied (typically:
	// publish the task's target epoch as the engine's answer epoch).
	Done func()

	next int
}

// Run implements Task.
func (t *RelocationTask) Run(budget time.Duration) bool {
	n := t.N
	if t.Verts != nil {
		n = len(t.Verts)
	}
	var deadline time.Time
	if budget > 0 {
		deadline = time.Now().Add(budget)
	}
	for t.next < n {
		hi := t.next + sliceStride
		if hi > n {
			hi = n
		}
		for ; t.next < hi; t.next++ {
			v := int32(t.next)
			if t.Verts != nil {
				v = t.Verts[t.next]
			}
			t.Apply(t.next, v)
		}
		if !deadline.IsZero() && t.next < n && time.Now().After(deadline) {
			return false
		}
	}
	if t.Done != nil {
		t.Done()
		t.Done = nil
	}
	return true
}

// NormalizeDirty resolves a dirty region into the vertex set a
// relocation task must apply, relative to the engine's consistent epoch
// and the head it targets. nil means "relocate the full id range" —
// either the region overflowed, or it does not provably cover the whole
// (answerEpoch, head] interval (a dirty source other than the engine's
// own mesh tracker, or none at all), so a partial list cannot be
// trusted. A non-nil empty slice means the epoch advanced with zero
// movers: the task only needs to publish the new answer epoch.
func NormalizeDirty(d mesh.DirtyRegion, answerEpoch, head uint64) []int32 {
	if d.Overflow || d.From > answerEpoch || d.To < head {
		return nil
	}
	if d.Verts == nil {
		return []int32{}
	}
	return d.Verts
}

// CapturePositions copies the current positions of the given vertices
// out of pos — the capture step of a localized task, taken under the
// target's write lock before any slice runs. verts nil copies everything.
func CapturePositions(pos []geom.Vec3, verts []int32) []geom.Vec3 {
	if verts == nil {
		return append([]geom.Vec3(nil), pos...)
	}
	out := make([]geom.Vec3, len(verts))
	for i, v := range verts {
		out[i] = pos[v]
	}
	return out
}
