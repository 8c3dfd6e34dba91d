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

// Engine is the QU-Trade query engine.
type Engine struct {
	m      *mesh.Mesh
	tree   *rtree.Tree
	window float64 // current grace-window half extent

	// last is the shadow position copy taken at the last Step. Grace
	// windows contain those positions by construction (escapees were just
	// re-inserted), so filtering candidates against the copy keeps every
	// answer exact at answerEpoch even while the mesh deforms
	// concurrently; filtering against the live array would mix a stale
	// candidate set with fresh positions and silently miss escapees.
	last        []geom.Vec3
	answerEpoch uint64

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
	e := &Engine{m: m, window: window}
	n := m.NumVertices()
	ids := make([]int32, n)
	boxes := make([]geom.AABB, n)
	for i := 0; i < n; i++ {
		ids[i] = int32(i)
		boxes[i] = geom.BoxAround(m.Position(int32(i)), window)
	}
	e.tree = rtree.BulkLoad(ids, boxes, fanout)
	e.last = append(e.last, m.Positions()...)
	e.answerEpoch = m.Epoch()
	return e
}

// Name implements query.Engine.
func (e *Engine) Name() string { return "QU-Trade" }

// Step implements query.Engine: objects still inside their grace window
// need no work; escapees are re-inserted with a fresh window. The window
// grows when the per-step escape rate exceeds the 1% target and shrinks
// slowly when far below it (the grow-and-shrink tuning of the original
// paper).
func (e *Engine) Step() {
	pos := e.m.Positions()
	stepEscapes := 0
	maxDrift := 0.0
	for i := range pos {
		id := int32(i)
		box, ok := e.tree.EntryBox(id)
		if ok && box.Contains(pos[i]) {
			continue
		}
		if ok {
			if drift := pos[i].Dist(box.Center()); drift > maxDrift {
				maxDrift = drift
			}
			if err := e.tree.Delete(id); err != nil {
				continue
			}
		}
		e.tree.Insert(id, geom.BoxAround(pos[i], e.window))
		stepEscapes++
	}
	e.escapes += int64(stepEscapes)
	e.updates += int64(len(pos))

	// Grow-and-shrink window tuning. When the rate is over target the new
	// window jumps to the observed drift scale (multiplicative growth alone
	// could take tens of steps to catch up from a cold start).
	rate := float64(stepEscapes) / float64(len(pos)+1)
	if rate > TargetEscapeRate {
		grown := e.window * 1.6
		if byDrift := maxDrift * 1.5; byDrift > grown {
			grown = byDrift
		}
		e.window = grown
	} else if rate < TargetEscapeRate/16 {
		e.window *= 0.95
	}
	e.last = append(e.last[:0], pos...)
	e.answerEpoch = e.m.Epoch()
}

// AnswerEpoch implements query.EpochReporter: queries answer at the state
// captured by the last Step.
func (e *Engine) AnswerEpoch() uint64 { return e.answerEpoch }

// BeginMaintenance implements maintain.Incremental: check only the dirty
// vertices against their grace windows — a window that still contains
// the new position needs no tree work at all — re-inserting escapees, as
// a resumable, budget-sliced task. The window tuning runs once at task
// completion over the processed set (the dirty vertices are exactly the
// step's location updates).
func (e *Engine) BeginMaintenance(d mesh.DirtyRegion) maintain.Task {
	head := e.m.Epoch()
	if d.Structural || len(e.last) != e.m.NumVertices() {
		return maintain.StepTask(e)
	}
	if head == e.answerEpoch && d.Empty() {
		return nil
	}
	verts := maintain.NormalizeDirty(d, e.answerEpoch, head)
	newPos := maintain.CapturePositions(e.m.Positions(), verts)
	stepEscapes := 0
	maxDrift := 0.0
	return &maintain.RelocationTask{
		Verts: verts,
		N:     len(newPos),
		Apply: func(i int, v int32) {
			np := newPos[i]
			if e.last[v] == np {
				return
			}
			box, ok := e.tree.EntryBox(v)
			if ok && box.Contains(np) {
				e.last[v] = np
				return
			}
			if ok {
				if drift := np.Dist(box.Center()); drift > maxDrift {
					maxDrift = drift
				}
				if err := e.tree.Delete(v); err != nil {
					e.last[v] = np
					return
				}
			}
			e.tree.Insert(v, geom.BoxAround(np, e.window))
			stepEscapes++
			e.last[v] = np
		},
		Done: func() {
			n := len(newPos)
			e.escapes += int64(stepEscapes)
			e.updates += int64(n)
			rate := float64(stepEscapes) / float64(n+1)
			if rate > TargetEscapeRate {
				grown := e.window * 1.6
				if byDrift := maxDrift * 1.5; byDrift > grown {
					grown = byDrift
				}
				e.window = grown
			} else if rate < TargetEscapeRate/16 {
				e.window *= 0.95
			}
			e.answerEpoch = head
		},
	}
}

// Query implements query.Engine: grace windows over-approximate positions,
// so candidates are filtered against the mesh's actual state.
func (e *Engine) Query(q geom.AABB, out []int32) []int32 {
	pos := e.last
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
	return e.tree.KNN(p, e.last, k, out)
}

// MemoryFootprint implements query.Engine: the tree plus the shadow
// position copy.
func (e *Engine) MemoryFootprint() int64 { return e.tree.MemoryBytes() + int64(len(e.last))*24 }

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
