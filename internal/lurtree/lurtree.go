// Package lurtree implements the Lazy Update R-tree (Kwon, Lee, Lee —
// Mobile Data Management 2002), one of the paper's two spatio-temporal
// baselines: point entries are updated in place when the moved object
// remains inside its leaf's minimum bounding rectangle, and only escaping
// objects pay for a delete + re-insert.
//
// Under the paper's workload — every vertex moves every step — even the
// cheap path must touch every object once per step, which is why the
// LUR-Tree spends ~80% of its query response time on maintenance (§V-B).
package lurtree

import (
	"octopus/internal/geom"
	"octopus/internal/maintain"
	"octopus/internal/mesh"
	"octopus/internal/query"
	"octopus/internal/rtree"
)

// Engine is the LUR-Tree query engine.
type Engine struct {
	m    *mesh.Mesh
	tree *rtree.Tree

	// last is the shadow position copy taken at the last Step. The tree's
	// point boxes are exact for those positions, so ranking kNN candidates
	// against the same copy keeps every answer exact at answerEpoch even
	// while the mesh deforms concurrently.
	last        []geom.Vec3
	answerEpoch uint64

	// stats
	lazyUpdates int64
	reinserts   int64
}

// New bulk-loads the LUR-Tree over the mesh's current positions. fanout
// <= 0 uses the paper's fanout of 110.
func New(m *mesh.Mesh, fanout int) *Engine {
	if fanout <= 0 {
		fanout = rtree.DefaultFanout
	}
	n := m.NumVertices()
	ids := make([]int32, n)
	boxes := make([]geom.AABB, n)
	for i := 0; i < n; i++ {
		ids[i] = int32(i)
		p := m.Position(int32(i))
		boxes[i] = geom.AABB{Min: p, Max: p}
	}
	e := &Engine{m: m, tree: rtree.BulkLoad(ids, boxes, fanout)}
	e.last = append(e.last, m.Positions()...)
	e.answerEpoch = m.Epoch()
	return e
}

// Name implements query.Engine.
func (e *Engine) Name() string { return "LUR-Tree" }

// Step implements query.Engine: apply the lazy-update rule to every vertex.
func (e *Engine) Step() {
	pos := e.m.Positions()
	for i := range pos {
		id := int32(i)
		p := pos[i]
		box := geom.AABB{Min: p, Max: p}
		if e.tree.UpdateInPlace(id, box) {
			e.lazyUpdates++
			continue
		}
		// The object escaped its leaf MBR — or is a brand-new vertex from
		// restructuring, which Delete reports as not found: either way it
		// is (re)inserted as a structural update.
		_ = e.tree.Delete(id)
		e.tree.Insert(id, box)
		e.reinserts++
	}
	e.last = append(e.last[:0], pos...)
	e.answerEpoch = e.m.Epoch()
}

// AnswerEpoch implements query.EpochReporter: queries answer at the state
// captured by the last Step.
func (e *Engine) AnswerEpoch() uint64 { return e.answerEpoch }

// BeginMaintenance implements maintain.Incremental: apply the lazy-update
// rule to only the dirty vertices — in-place MBR update when the point
// stayed inside its leaf, delete + re-insert when it escaped — as a
// resumable, budget-sliced task. This is the LUR-Tree's own maintenance
// policy minus the all-vertices sweep that made it pay ~80% of its query
// response time in maintenance.
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
	return &maintain.RelocationTask{
		Verts: verts,
		N:     len(newPos),
		Apply: func(i int, v int32) {
			np := newPos[i]
			if e.last[v] == np {
				return
			}
			box := geom.AABB{Min: np, Max: np}
			if e.tree.UpdateInPlace(v, box) {
				e.lazyUpdates++
			} else if err := e.tree.Delete(v); err == nil {
				e.tree.Insert(v, box)
				e.reinserts++
			}
			e.last[v] = np
		},
		Done: func() { e.answerEpoch = head },
	}
}

// Query implements query.Engine. Entries are exact point boxes, so every
// intersecting entry is a result.
func (e *Engine) Query(q geom.AABB, out []int32) []int32 {
	e.tree.Search(q, func(id int32, _ geom.AABB) bool {
		out = append(out, id)
		return true
	})
	return out
}

// KNN implements query.KNNEngine via the R-tree's pruned descent. Entry
// boxes are exact point boxes after Step, so the MBR bound is tight.
func (e *Engine) KNN(p geom.Vec3, k int, out []int32) []int32 {
	return e.tree.KNN(p, e.last, k, out)
}

// MemoryFootprint implements query.Engine: the tree plus the shadow
// position copy.
func (e *Engine) MemoryFootprint() int64 { return e.tree.MemoryBytes() + int64(len(e.last))*24 }

// Tree exposes the underlying R-tree for invariant checks in tests.
func (e *Engine) Tree() *rtree.Tree { return e.tree }

// MaintenanceCounts returns how many updates took the lazy path and how
// many required delete + re-insert.
func (e *Engine) MaintenanceCounts() (lazy, reinserts int64) {
	return e.lazyUpdates, e.reinserts
}

// NewCursor implements query.ParallelEngine. The maintenance counters
// move only in Step; Query is a read-only R-tree traversal (stack-local
// recursion, no shared scratch), so the engine is stateless at query
// time.
func (e *Engine) NewCursor() query.Cursor { return &query.StatelessCursor{Engine: e} }
