// Package kdtree implements a bucket kd-tree over vertex positions
// (Bentley 1975, the paper's reference [4]) used as an additional
// throwaway-index baseline: like the octree it is rebuilt from scratch at
// every simulation step, trading per-step build cost for fast queries.
package kdtree

import (
	"octopus/internal/geom"
	"octopus/internal/maintain"
	"octopus/internal/mesh"
	"octopus/internal/query"
)

// DefaultBucketSize is the leaf capacity used when none is given.
const DefaultBucketSize = 256

// Tree is a bucket kd-tree over a snapshot of positions. Like the
// octree it additionally supports localized maintenance between rebuilds
// (Relocate): moved points hop between leaf buckets, with per-leaf
// overflow buckets for arrivals since the packed id array cannot grow in
// place. kd splits cover all of space, so no stray list is needed.
type Tree struct {
	pos    []geom.Vec3
	ids    []int32
	nodes  []node
	bucket int

	// extra[n] holds ids relocated into leaf n after the build; nil
	// until the first relocation.
	extra [][]int32
}

// node is one kd-tree node; leaves reference ids[start:start+count].
type node struct {
	split        float64
	axis         int8
	leaf         bool
	left, right  int32
	start, count int32
}

// Build constructs the tree over pos. bucket <= 0 uses DefaultBucketSize.
// The positions are captured, not copied: rebuild after they change.
func Build(pos []geom.Vec3, bucket int) *Tree {
	if bucket <= 0 {
		bucket = DefaultBucketSize
	}
	t := &Tree{pos: pos, bucket: bucket}
	t.ids = make([]int32, len(pos))
	for i := range t.ids {
		t.ids[i] = int32(i)
	}
	t.nodes = make([]node, 0, 2*len(pos)/bucket+8)
	if len(pos) > 0 {
		t.build(0, len(t.ids), 0)
	}
	return t
}

const maxDepth = 48

// build creates the subtree over ids[lo:hi] and returns its node index.
func (t *Tree) build(lo, hi, depth int) int32 {
	idx := int32(len(t.nodes))
	t.nodes = append(t.nodes, node{})
	if hi-lo <= t.bucket || depth >= maxDepth {
		t.nodes[idx] = node{leaf: true, start: int32(lo), count: int32(hi - lo), left: -1, right: -1}
		return idx
	}

	// Split along the axis of largest extent at the midpoint of the
	// extent (cheap, robust against clustered data).
	bounds := geom.EmptyBox()
	for _, id := range t.ids[lo:hi] {
		bounds = bounds.Extend(t.pos[id])
	}
	size := bounds.Size()
	axis := 0
	if size.Y > size.X && size.Y >= size.Z {
		axis = 1
	} else if size.Z > size.X && size.Z > size.Y {
		axis = 2
	}
	split := bounds.Center().Component(axis)

	mid := t.partition(lo, hi, axis, split)
	if mid == lo || mid == hi {
		// Degenerate split (all points on one side): make a leaf.
		t.nodes[idx] = node{leaf: true, start: int32(lo), count: int32(hi - lo), left: -1, right: -1}
		return idx
	}
	left := t.build(lo, mid, depth+1)
	right := t.build(mid, hi, depth+1)
	t.nodes[idx] = node{split: split, axis: int8(axis), left: left, right: right}
	return idx
}

// partition reorders ids[lo:hi] so points with component < split come
// first, returning the boundary.
func (t *Tree) partition(lo, hi, axis int, split float64) int {
	i := lo
	for j := lo; j < hi; j++ {
		if t.pos[t.ids[j]].Component(axis) < split {
			t.ids[i], t.ids[j] = t.ids[j], t.ids[i]
			i++
		}
	}
	return i
}

// Query appends all ids whose position lies inside q to out.
func (t *Tree) Query(q geom.AABB, out []int32) []int32 {
	if len(t.nodes) == 0 {
		return out
	}
	return t.query(0, q, out)
}

func (t *Tree) query(idx int32, q geom.AABB, out []int32) []int32 {
	n := &t.nodes[idx]
	if n.leaf {
		for _, id := range t.ids[n.start : n.start+n.count] {
			if q.Contains(t.pos[id]) {
				out = append(out, id)
			}
		}
		for _, id := range t.leafExtra(idx) {
			if q.Contains(t.pos[id]) {
				out = append(out, id)
			}
		}
		return out
	}
	if q.Min.Component(int(n.axis)) < n.split {
		out = t.query(n.left, q, out)
	}
	if q.Max.Component(int(n.axis)) >= n.split {
		out = t.query(n.right, q, out)
	}
	return out
}

// KNN appends the k points closest to p to out, nearest first (ties by
// ascending id): the classical best-first kd-tree descent — visit the
// child on p's side of the splitting plane first, then the far child only
// if the plane is closer than the current k-th best candidate.
func (t *Tree) KNN(p geom.Vec3, k int, out []int32) []int32 {
	var b query.KBest
	b.Reset(k)
	if len(t.nodes) > 0 && k > 0 {
		t.knn(0, p, &b)
	}
	return b.AppendSorted(out)
}

func (t *Tree) knn(idx int32, p geom.Vec3, b *query.KBest) {
	n := &t.nodes[idx]
	if n.leaf {
		for _, id := range t.ids[n.start : n.start+n.count] {
			b.Offer(t.pos[id].Dist2(p), id)
		}
		for _, id := range t.leafExtra(idx) {
			b.Offer(t.pos[id].Dist2(p), id)
		}
		return
	}
	diff := p.Component(int(n.axis)) - n.split
	near, far := n.left, n.right
	if diff >= 0 {
		near, far = n.right, n.left
	}
	t.knn(near, p, b)
	// The far half-space is at least |diff| away from p; skip it when even
	// that lower bound cannot beat the current k-th best.
	if !b.Full() || diff*diff <= b.Bound() {
		t.knn(far, p, b)
	}
}

// leafExtra returns the overflow bucket of leaf idx (nil when none).
func (t *Tree) leafExtra(idx int32) []int32 {
	if t.extra == nil {
		return nil
	}
	return t.extra[idx]
}

// Relocate moves id from the bucket holding old to the bucket for now —
// the localized maintenance primitive (DESIGN.md §11). Buckets are
// located by descending with the position through the same split
// comparisons the build partitioned with, so the id is found without any
// id->leaf map. It returns true when the id actually changed leaf.
func (t *Tree) Relocate(id int32, old, now geom.Vec3) bool {
	if len(t.nodes) == 0 {
		return false
	}
	src := t.leafFor(old)
	dst := t.leafFor(now)
	if src == dst {
		return false
	}
	t.removeFromLeaf(src, id)
	if t.extra == nil {
		t.extra = make([][]int32, len(t.nodes))
	}
	t.extra[dst] = append(t.extra[dst], id)
	return true
}

// leafFor descends from the root with p; kd splits partition all of
// space, so a leaf always exists.
func (t *Tree) leafFor(p geom.Vec3) int32 {
	idx := int32(0)
	for {
		n := &t.nodes[idx]
		if n.leaf {
			return idx
		}
		if p.Component(int(n.axis)) < n.split {
			idx = n.left
		} else {
			idx = n.right
		}
	}
}

// removeFromLeaf deletes id from leaf idx's packed range or overflow
// bucket, reporting whether it was found.
func (t *Tree) removeFromLeaf(idx, id int32) bool {
	n := &t.nodes[idx]
	for i := n.start; i < n.start+n.count; i++ {
		if t.ids[i] == id {
			t.ids[i] = t.ids[n.start+n.count-1]
			n.count--
			return true
		}
	}
	ex := t.leafExtra(idx)
	for i, v := range ex {
		if v == id {
			ex[i] = ex[len(ex)-1]
			t.extra[idx] = ex[:len(ex)-1]
			return true
		}
	}
	return false
}

// MemoryBytes returns the tree's footprint.
func (t *Tree) MemoryBytes() int64 {
	const nodeBytes = 8 + 1 + 1 + 4 + 4 + 4 + 4 + 6 // fields + pad
	b := int64(len(t.nodes))*nodeBytes + int64(len(t.ids))*4
	for _, ex := range t.extra {
		b += int64(cap(ex)) * 4
	}
	if t.extra != nil {
		b += int64(len(t.extra)) * 24
	}
	return b
}

// Engine adapts the kd-tree to the query.Engine lifecycle with a full
// rebuild per step — or, under the incremental-maintenance scheduler
// (maintain.Incremental), a budget-sliced relocation of only the dirty
// vertices, with the rebuild reserved for structural change and drift
// degradation (DESIGN.md §11).
type Engine struct {
	m      *mesh.Mesh
	bucket int
	tree   *Tree
	// snap is the engine-owned position copy the tree is built over
	// (reused across rebuilds); see the octree engine for why the
	// throwaway index snapshots instead of aliasing the live array.
	// Incremental maintenance keeps snap in lockstep with the tree per
	// vertex.
	snap        []geom.Vec3
	answerEpoch uint64
	// leafMoves counts leaf-to-leaf relocations since the last full
	// rebuild — the tree-quality trigger (the splits go stale as the
	// geometry drifts).
	leafMoves int
}

// NewEngine builds the initial tree. bucket <= 0 uses DefaultBucketSize.
func NewEngine(m *mesh.Mesh, bucket int) *Engine {
	e := &Engine{m: m, bucket: bucket}
	e.Step()
	return e
}

// Name implements query.Engine.
func (e *Engine) Name() string { return "KD-Tree" }

// Step implements query.Engine: rebuild from scratch over a fresh
// position snapshot. It is safe mid-relocation (snap stays per-vertex
// coherent).
func (e *Engine) Step() {
	e.snap = append(e.snap[:0], e.m.Positions()...)
	e.tree = Build(e.snap, e.bucket)
	e.leafMoves = 0
	e.answerEpoch = e.m.Epoch()
}

// BeginMaintenance implements maintain.Incremental: relocate exactly the
// dirty vertices between leaf buckets, one bounded slice at a time; full
// rebuild on structural change or once drift has moved more than half
// the vertices across leaves since the last build.
func (e *Engine) BeginMaintenance(d mesh.DirtyRegion) maintain.Task {
	head := e.m.Epoch()
	if d.Structural || len(e.snap) != e.m.NumVertices() {
		return maintain.StepTask(e)
	}
	if head == e.answerEpoch && d.Empty() {
		return nil
	}
	if e.leafMoves > len(e.snap)/2 {
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

// AnswerEpoch implements query.EpochReporter: queries answer at the state
// captured by the last rebuild.
func (e *Engine) AnswerEpoch() uint64 { return e.answerEpoch }

// Query implements query.Engine.
func (e *Engine) Query(q geom.AABB, out []int32) []int32 { return e.tree.Query(q, out) }

// KNN implements query.KNNEngine. Like Query, it reads the tree rebuilt
// by the latest Step and is stateless at query time.
func (e *Engine) KNN(p geom.Vec3, k int, out []int32) []int32 { return e.tree.KNN(p, k, out) }

// MemoryFootprint implements query.Engine: the tree plus the position
// snapshot it was built over.
func (e *Engine) MemoryFootprint() int64 { return e.tree.MemoryBytes() + int64(len(e.snap))*24 }

// NewCursor implements query.ParallelEngine. The tree is rebuilt only in
// Step; Query is a read-only traversal, so the engine is stateless at
// query time.
func (e *Engine) NewCursor() query.Cursor { return &query.StatelessCursor{Engine: e} }
