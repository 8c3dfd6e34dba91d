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
type LUEngine struct {
	m     *mesh.Mesh
	g     *Grid
	cells int // target cell count, for rebuilds after structural change
	// last is the shadow position copy taken at the last Step: the lazy
	// policy diffs against it, and queries evaluate against it, so every
	// answer is exact at the epoch of the last maintenance (answerEpoch)
	// even while the mesh deforms concurrently — the index can never be
	// fresher than its last relocation pass anyway.
	last        []geom.Vec3
	answerEpoch uint64
}

// NewLUEngine builds the grid with approximately targetCells cells over
// the mesh's current state.
func NewLUEngine(m *mesh.Mesh, targetCells int) *LUEngine {
	e := &LUEngine{
		m:     m,
		g:     Build(m, targetCells),
		cells: targetCells,
		last:  make([]geom.Vec3, m.NumVertices()),
	}
	copy(e.last, m.Positions())
	e.answerEpoch = m.Epoch()
	return e
}

// Name implements query.Engine.
func (e *LUEngine) Name() string { return "LU-Grid" }

// Step implements query.Engine: relocate every vertex that changed cell.
// When the vertex set itself changed (restructuring), the grid is
// rebuilt from scratch instead — the cell assignment of ids that no
// longer exist cannot be patched per vertex.
func (e *LUEngine) Step() {
	pos := e.m.Positions()
	if len(pos) != len(e.last) {
		e.g = Build(e.m, e.cells)
		e.last = append(e.last[:0], pos...)
		e.answerEpoch = e.m.Epoch()
		return
	}
	for i := range pos {
		e.g.Relocate(int32(i), e.last[i], pos[i])
		e.last[i] = pos[i]
	}
	e.answerEpoch = e.m.Epoch()
}

// BeginMaintenance implements maintain.Incremental: re-bucket only the
// dirty vertices — the LU-Grid policy applied to the dirty set instead
// of a whole-array sweep — as a resumable, budget-sliced task.
func (e *LUEngine) BeginMaintenance(d mesh.DirtyRegion) maintain.Task {
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
			e.g.Relocate(v, e.last[v], np)
			e.last[v] = np
		},
		Done: func() { e.answerEpoch = head },
	}
}

// AnswerEpoch implements query.EpochReporter: queries answer at the state
// captured by the last Step.
func (e *LUEngine) AnswerEpoch() uint64 { return e.answerEpoch }

// Query implements query.Engine. Candidates are filtered against the
// shadow copy, not the live array: the cell assignment is only valid for
// the positions of the last Step, and mixing it with fresher positions
// would miss vertices that crossed a cell boundary since.
func (e *LUEngine) Query(q geom.AABB, out []int32) []int32 {
	return e.g.Query(q, e.last, out)
}

// KNN implements query.KNNEngine via the grid's expanding cell-ring
// search. The lazily updated cell assignment is exact after Step, so no
// extra filtering is needed beyond the grid's own distance evaluation.
func (e *LUEngine) KNN(p geom.Vec3, k int, out []int32) []int32 {
	return e.g.KNN(p, e.last, k, out)
}

// MemoryFootprint implements query.Engine: the grid plus the shadow
// position array the lazy policy compares against.
func (e *LUEngine) MemoryFootprint() int64 {
	return e.g.MemoryBytes() + int64(len(e.last))*24
}

// NewCursor implements query.ParallelEngine. All mutation happens in
// Step (cell relocation); Query only reads the grid and the shadow
// positions, so the engine is stateless at query time.
func (e *LUEngine) NewCursor() query.Cursor { return &query.StatelessCursor{Engine: e} }
