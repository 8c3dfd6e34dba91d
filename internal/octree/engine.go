package octree

import (
	"octopus/internal/geom"
	"octopus/internal/maintain"
	"octopus/internal/mesh"
	"octopus/internal/query"
)

// Engine adapts the throwaway octree to the query.Engine lifecycle: every
// simulation step discards the tree and rebuilds it from the current
// positions, exactly the strategy of the paper's "lightweight throw-away
// spatial index" baseline. Under the incremental-maintenance scheduler
// (maintain.Incremental) it instead relocates only the dirty vertices
// between leaf buckets — a resumable, budget-sliced task — and falls back
// to the full rebuild only on structural change or when drift has
// degraded the tree (DESIGN.md §11).
type Engine struct {
	m      *mesh.Mesh
	bucket int
	tree   *Tree
	// snap is the engine-owned position copy the tree is built over
	// (reused across rebuilds). Building over a copy instead of aliasing
	// the live array makes every query exact at the rebuild's epoch and
	// race-free under concurrent deformation — the throwaway index is a
	// snapshot index either way, now explicitly so. Incremental
	// maintenance keeps snap in lockstep with the tree per vertex: it is
	// the "old position" every relocation starts from.
	snap        []geom.Vec3
	answerEpoch uint64
	// leafMoves counts bucket-to-bucket relocations since the last full
	// rebuild — the tree-quality trigger.
	leafMoves int
}

// NewEngine builds the initial tree over m. bucket <= 0 uses
// DefaultBucketSize.
func NewEngine(m *mesh.Mesh, bucket int) *Engine {
	e := &Engine{m: m, bucket: bucket}
	e.Step()
	return e
}

// Name implements query.Engine.
func (e *Engine) Name() string { return "OCTREE" }

// Step implements query.Engine: full rebuild from scratch over a fresh
// position snapshot. Because relocation keeps snap per-vertex coherent,
// it is safe to call even with a relocation task abandoned halfway.
func (e *Engine) Step() {
	e.snap = e.snap[:0]
	e.snap = append(e.snap, e.m.Positions()...)
	bounds := geom.EmptyBox()
	for _, p := range e.snap {
		bounds = bounds.Extend(p)
	}
	e.tree = Build(e.snap, bounds, e.bucket)
	e.leafMoves = 0
	e.answerEpoch = e.m.Epoch()
}

// BeginMaintenance implements maintain.Incremental: relocate exactly the
// dirty vertices between leaf buckets, one bounded slice at a time (a
// dirty overflow relocates the full range, still sliceable). The full
// rebuild runs instead when connectivity changed (new vertex ids) or
// when accumulated drift has degraded the tree — many bucket hops since
// the last build, or too many strays outside the root box.
func (e *Engine) BeginMaintenance(d mesh.DirtyRegion) maintain.Task {
	head := e.m.Epoch()
	if d.Structural || len(e.snap) != e.m.NumVertices() {
		return maintain.StepTask(e)
	}
	if head == e.answerEpoch && d.Empty() {
		return nil
	}
	if e.leafMoves > len(e.snap)/2 || e.tree.Strays() > e.bucketSize() {
		return maintain.StepTask(e)
	}
	verts := maintain.NormalizeDirty(d, e.answerEpoch, head)
	newPos := maintain.CapturePositions(e.m.Positions(), verts)
	return &maintain.RelocationTask{
		Verts: verts,
		N:     len(newPos),
		Apply: func(i int, v int32) {
			np := newPos[i]
			if e.snap[v] == np {
				return
			}
			if e.tree.Relocate(v, e.snap[v], np) {
				e.leafMoves++
			}
			e.snap[v] = np
		},
		Done: func() { e.answerEpoch = head },
	}
}

// bucketSize returns the effective leaf capacity.
func (e *Engine) bucketSize() int {
	if e.bucket > 0 {
		return e.bucket
	}
	return DefaultBucketSize
}

// AnswerEpoch implements query.EpochReporter: queries answer at the state
// captured by the last rebuild.
func (e *Engine) AnswerEpoch() uint64 { return e.answerEpoch }

// Query implements query.Engine.
func (e *Engine) Query(q geom.AABB, out []int32) []int32 {
	return e.tree.Query(q, out)
}

// KNN implements query.KNNEngine. Like Query, it reads the tree rebuilt
// by the latest Step and is stateless at query time.
func (e *Engine) KNN(p geom.Vec3, k int, out []int32) []int32 { return e.tree.KNN(p, k, out) }

// MemoryFootprint implements query.Engine: the tree plus the position
// snapshot it was built over.
func (e *Engine) MemoryFootprint() int64 { return e.tree.MemoryBytes() + int64(len(e.snap))*24 }

// Tree exposes the current tree for inspection in tests and diagnostics.
func (e *Engine) Tree() *Tree { return e.tree }

// NewCursor implements query.ParallelEngine. The tree is rebuilt only in
// Step; Query is a read-only traversal, so the engine is stateless at
// query time.
func (e *Engine) NewCursor() query.Cursor { return &query.StatelessCursor{Engine: e} }
