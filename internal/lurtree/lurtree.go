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

// Engine is the LUR-Tree query engine. The tree's point boxes are exact
// for the embedded shadow, so ranking kNN candidates against the same
// copy keeps every answer exact at AnswerEpoch even while the mesh
// deforms concurrently.
type Engine struct {
	maintain.Shadow
	tree *rtree.Tree

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
	e := &Engine{Shadow: maintain.NewShadow(m)}
	ids := make([]int32, len(e.Pos))
	boxes := make([]geom.AABB, len(e.Pos))
	for i, p := range e.Pos {
		ids[i] = int32(i)
		boxes[i] = geom.AABB{Min: p, Max: p}
	}
	e.tree = rtree.BulkLoad(ids, boxes, fanout)
	return e
}

// Name implements query.Engine.
func (e *Engine) Name() string { return "LUR-Tree" }

// Step implements query.Engine: the maintenance task run to completion
// over every vertex — the lazy-update rule applied to each one that
// moved, and to every vertex restructuring added.
func (e *Engine) Step() { e.Sweep(maintain.Rule{Move: e.move}) }

// BeginMaintenance implements maintain.Incremental: the lazy-update rule
// applied to only the dirty vertices, as a resumable, budget-sliced task.
// This is the LUR-Tree's own maintenance policy minus the all-vertices
// sweep that made it pay ~80% of its query response time in maintenance.
func (e *Engine) BeginMaintenance(d mesh.DirtyRegion) maintain.Task {
	return e.Begin(d, e, false, maintain.Rule{Move: e.move})
}

// move is the lazy-update rule: an in-place point-box update when the
// point stayed inside its leaf MBR; otherwise — it escaped, or it is a
// vertex the tree does not hold yet, whose Delete is a no-op — a
// delete + re-insert.
func (e *Engine) move(v int32, _, now geom.Vec3) {
	box := geom.AABB{Min: now, Max: now}
	if e.tree.UpdateInPlace(v, box) {
		e.lazyUpdates++
		return
	}
	_ = e.tree.Delete(v)
	e.tree.Insert(v, box)
	e.reinserts++
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
	return e.tree.KNN(p, e.Pos, k, out)
}

// MemoryFootprint implements query.Engine: the tree plus the shadow
// position copy.
func (e *Engine) MemoryFootprint() int64 { return e.tree.MemoryBytes() + int64(len(e.Pos))*24 }

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
