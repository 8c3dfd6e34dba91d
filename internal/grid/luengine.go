package grid

import (
	"octopus/internal/geom"
	"octopus/internal/maintain"
	"octopus/internal/mesh"
	"octopus/internal/query"
)

// LUEngine is a lazily updated grid index in the spirit of LU-Grid (Xiong,
// Mokbel, Aref — MDM 2006), included as an extended baseline: per step it
// relocates only vertices that crossed a cell boundary, avoiding full
// rebuilds, but under the paper's workload almost every vertex moves every
// step so maintenance still touches the whole dataset.
//
// The cell assignment is exact for the embedded shadow, and queries
// evaluate against it, so every answer is exact at AnswerEpoch even while
// the mesh deforms concurrently — the index can never be fresher than its
// last relocation pass anyway.
type LUEngine struct {
	maintain.Shadow
	m     *mesh.Mesh
	g     *Grid
	cells int // target cell count, for rebuilds after structural change
}

// NewLUEngine builds the grid with approximately targetCells cells over
// the mesh's current state.
func NewLUEngine(m *mesh.Mesh, targetCells int) *LUEngine {
	return &LUEngine{Shadow: maintain.NewShadow(m), m: m, g: Build(m, targetCells), cells: targetCells}
}

// Name implements query.Engine.
func (e *LUEngine) Name() string { return "LU-Grid" }

// Step implements query.Engine: the maintenance task run to completion
// over every vertex, re-bucketing each one that changed cell. When the
// vertex set itself changed (restructuring), the grid is rebuilt from
// scratch instead — the cell assignment of ids that no longer exist
// cannot be patched per vertex.
func (e *LUEngine) Step() {
	if len(e.Pos) != e.m.NumVertices() {
		e.g = Build(e.m, e.cells)
		e.Capture()
		return
	}
	e.Sweep(e.rule())
}

// BeginMaintenance implements maintain.Incremental: re-bucket only the
// dirty vertices — the LU-Grid policy applied to the dirty set instead
// of a whole-array sweep — as a resumable, budget-sliced task.
func (e *LUEngine) BeginMaintenance(d mesh.DirtyRegion) maintain.Task {
	return e.Begin(d, e, false, e.rule())
}

// rule is the LU-Grid move rule: move the vertex to the cell of its new
// position (a no-op when it stayed in its cell).
func (e *LUEngine) rule() maintain.Rule { return maintain.Rule{Move: e.g.Relocate} }

// Query implements query.Engine. Candidates are filtered against the
// shadow copy, not the live array: the cell assignment is only valid for
// the positions of the last Step, and mixing it with fresher positions
// would miss vertices that crossed a cell boundary since.
func (e *LUEngine) Query(q geom.AABB, out []int32) []int32 {
	return e.g.Query(q, e.Pos, out)
}

// KNN implements query.KNNEngine via the grid's expanding cell-ring
// search. The lazily updated cell assignment is exact after Step, so no
// extra filtering is needed beyond the grid's own distance evaluation.
func (e *LUEngine) KNN(p geom.Vec3, k int, out []int32) []int32 {
	return e.g.KNN(p, e.Pos, k, out)
}

// MemoryFootprint implements query.Engine: the grid plus the shadow
// position array the lazy policy compares against.
func (e *LUEngine) MemoryFootprint() int64 {
	return e.g.MemoryBytes() + int64(len(e.Pos))*24
}

// NewCursor implements query.ParallelEngine. All mutation happens in
// Step (cell relocation); Query only reads the grid and the shadow
// positions, so the engine is stateless at query time.
func (e *LUEngine) NewCursor() query.Cursor { return &query.StatelessCursor{Engine: e} }
