// Package qutrade implements the workload-aware grace-window index of
// Tzoumas, Yiu and Jensen (VLDB 2009) — "QU-Trade" in the paper — the
// second spatio-temporal baseline: instead of the object's position, the
// R-tree indexes a grace window around it. No maintenance is needed while
// the object stays inside its window; queries pay for the slack by
// filtering candidates against actual positions.
//
// Following the paper's tuning (§V-A), the window adapts so that fewer
// than 1% of per-step location updates trigger R-tree maintenance.
package qutrade

import (
	"octopus/internal/geom"
	"octopus/internal/maintain"
	"octopus/internal/mesh"
	"octopus/internal/query"
	"octopus/internal/rtree"
)

// TargetEscapeRate is the fraction of updates allowed to trigger R-tree
// maintenance per step (the paper tunes for < 1%).
const TargetEscapeRate = 0.01

// Engine is the QU-Trade query engine. Grace windows contain the
// embedded shadow's positions by construction (escapees were just
// re-inserted), so filtering candidates against the shadow keeps every
// answer exact at AnswerEpoch even while the mesh deforms concurrently;
// filtering against the live array would mix a stale candidate set with
// fresh positions and silently miss escapees.
type Engine struct {
	maintain.Shadow
	tree   *rtree.Tree
	window float64 // current grace-window half extent

	escapes int64
	updates int64
}

// New bulk-loads grace windows of the given initial half-extent around the
// mesh's current positions. fanout <= 0 uses the paper's fanout of 110;
// window <= 0 picks a window from the mesh extent (it will adapt anyway).
func New(m *mesh.Mesh, fanout int, window float64) *Engine {
	if fanout <= 0 {
		fanout = rtree.DefaultFanout
	}
	if window <= 0 {
		window = m.Bounds().Size().Len() * 1e-3
	}
	e := &Engine{Shadow: maintain.NewShadow(m), window: window}
	ids := make([]int32, len(e.Pos))
	boxes := make([]geom.AABB, len(e.Pos))
	for i, p := range e.Pos {
		ids[i] = int32(i)
		boxes[i] = geom.BoxAround(p, window)
	}
	e.tree = rtree.BulkLoad(ids, boxes, fanout)
	return e
}

// Name implements query.Engine.
func (e *Engine) Name() string { return "QU-Trade" }

// Step implements query.Engine: the maintenance task run to completion
// over every vertex, with the window tuned over the whole step.
func (e *Engine) Step() { e.Sweep(e.rule()) }

// BeginMaintenance implements maintain.Incremental: the grace-window rule
// over only the dirty vertices — a window that still contains the new
// position needs no tree work at all — as a resumable, budget-sliced
// task. The dirty vertices are exactly the step's location updates, so
// the window tuning over them is the paper's.
func (e *Engine) BeginMaintenance(d mesh.DirtyRegion) maintain.Task {
	return e.Begin(d, e, false, e.rule())
}

// rule is the grace-window rule for one task: objects still inside their
// window need no work; escapees — and vertices the tree does not hold
// yet — are (re)inserted with a fresh window. On completion the window
// grows when the task's escape rate exceeds the 1% target and shrinks
// slowly when far below it (the grow-and-shrink tuning of the original
// paper). When over target the new window jumps to the observed drift
// scale: multiplicative growth alone could take tens of steps to catch
// up from a cold start.
func (e *Engine) rule() maintain.Rule {
	escapes, maxDrift := 0, 0.0
	move := func(v int32, _, now geom.Vec3) {
		box, ok := e.tree.EntryBox(v)
		if ok && box.Contains(now) {
			return
		}
		if ok {
			if drift := now.Dist(box.Center()); drift > maxDrift {
				maxDrift = drift
			}
			if err := e.tree.Delete(v); err != nil {
				return
			}
		}
		e.tree.Insert(v, geom.BoxAround(now, e.window))
		escapes++
	}
	tune := func(covered int) {
		e.escapes += int64(escapes)
		e.updates += int64(covered)
		rate := float64(escapes) / float64(covered+1)
		if rate > TargetEscapeRate {
			grown := e.window * 1.6
			if byDrift := maxDrift * 1.5; byDrift > grown {
				grown = byDrift
			}
			e.window = grown
		} else if rate < TargetEscapeRate/16 {
			e.window *= 0.95
		}
	}
	return maintain.Rule{Move: move, Done: tune}
}

// Query implements query.Engine: grace windows over-approximate positions,
// so candidates are filtered against the mesh's actual state.
func (e *Engine) Query(q geom.AABB, out []int32) []int32 {
	pos := e.Pos
	e.tree.Search(q, func(id int32, _ geom.AABB) bool {
		if q.Contains(pos[id]) {
			out = append(out, id)
		}
		return true
	})
	return out
}

// KNN implements query.KNNEngine via the R-tree's pruned descent: grace
// windows over-approximate positions, so candidates are ranked against the
// mesh's actual state (the windows only loosen the pruning bound, never
// the result).
func (e *Engine) KNN(p geom.Vec3, k int, out []int32) []int32 {
	return e.tree.KNN(p, e.Pos, k, out)
}

// MemoryFootprint implements query.Engine: the tree plus the shadow
// position copy.
func (e *Engine) MemoryFootprint() int64 { return e.tree.MemoryBytes() + int64(len(e.Pos))*24 }

// Tree exposes the underlying R-tree for invariant checks in tests.
func (e *Engine) Tree() *rtree.Tree { return e.tree }

// Window returns the current grace-window half extent.
func (e *Engine) Window() float64 { return e.window }

// NewCursor implements query.ParallelEngine. The window and escape
// counters move only in Step; Query is a read-only R-tree traversal plus
// a position filter, so the engine is stateless at query time.
func (e *Engine) NewCursor() query.Cursor { return &query.StatelessCursor{Engine: e} }

// EscapeRate returns the cumulative fraction of updates that triggered
// structural maintenance.
func (e *Engine) EscapeRate() float64 {
	if e.updates == 0 {
		return 0
	}
	return float64(e.escapes) / float64(e.updates)
}
