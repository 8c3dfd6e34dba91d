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
//
// The tree is built over the embedded shadow, reused across rebuilds.
// Building over a copy instead of aliasing the live array makes every
// query exact at the rebuild's epoch and race-free under concurrent
// deformation — the throwaway index is a snapshot index either way, now
// explicitly so. Relocation keeps the shadow in lockstep with the tree
// per vertex: it is the "old position" every relocation starts from.
type Engine struct {
	maintain.Shadow
	bucket int
	tree   *Tree
	// leafMoves counts bucket-to-bucket relocations since the last full
	// rebuild — the tree-quality trigger.
	leafMoves int
}

// NewEngine builds the initial tree over m. bucket <= 0 uses
// DefaultBucketSize.
func NewEngine(m *mesh.Mesh, bucket int) *Engine {
	e := &Engine{Shadow: maintain.NewShadow(m), bucket: bucket}
	e.build(e.Pos)
	return e
}

// Name implements query.Engine.
func (e *Engine) Name() string { return "OCTREE" }

// Step implements query.Engine: full rebuild from scratch over a fresh
// position snapshot. Because relocation keeps the shadow per-vertex
// coherent, it is safe to call even with a relocation task abandoned
// halfway.
func (e *Engine) Step() { e.build(e.Capture()) }

// build replaces the tree with one over pos, bounded by pos's own box.
func (e *Engine) build(pos []geom.Vec3) {
	bounds := geom.EmptyBox()
	for _, p := range pos {
		bounds = bounds.Extend(p)
	}
	e.tree = Build(pos, bounds, e.bucket)
	e.leafMoves = 0
}

// BeginMaintenance implements maintain.Incremental: relocate exactly the
// dirty vertices between leaf buckets, one bounded slice at a time (a
// dirty overflow relocates the full range, still sliceable). The full
// rebuild runs instead when connectivity changed (new vertex ids) or
// when accumulated drift has degraded the tree — many bucket hops since
// the last build, or too many strays outside the root box.
func (e *Engine) BeginMaintenance(d mesh.DirtyRegion) maintain.Task {
	degraded := e.leafMoves > len(e.Pos)/2 || e.tree.Strays() > e.bucketSize()
	return e.Begin(d, e, degraded, maintain.Rule{Move: e.relocate})
}

// relocate is the octree's move rule.
func (e *Engine) relocate(v int32, old, now geom.Vec3) {
	if e.tree.Relocate(v, old, now) {
		e.leafMoves++
	}
}

// bucketSize returns the effective leaf capacity.
func (e *Engine) bucketSize() int {
	if e.bucket > 0 {
		return e.bucket
	}
	return DefaultBucketSize
}

// Query implements query.Engine.
func (e *Engine) Query(q geom.AABB, out []int32) []int32 {
	return e.tree.Query(q, out)
}

// KNN implements query.KNNEngine. Like Query, it reads the tree rebuilt
// by the latest Step and is stateless at query time.
func (e *Engine) KNN(p geom.Vec3, k int, out []int32) []int32 { return e.tree.KNN(p, k, out) }

// MemoryFootprint implements query.Engine: the tree plus the position
// snapshot it was built over.
func (e *Engine) MemoryFootprint() int64 { return e.tree.MemoryBytes() + int64(len(e.Pos))*24 }

// Tree exposes the current tree for inspection in tests and diagnostics.
func (e *Engine) Tree() *Tree { return e.tree }

// NewCursor implements query.ParallelEngine. The tree is rebuilt only in
// Step; Query is a read-only traversal, so the engine is stateless at
// query time.
func (e *Engine) NewCursor() query.Cursor { return &query.StatelessCursor{Engine: e} }
