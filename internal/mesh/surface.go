package mesh

import (
	"iter"
	"slices"
)

// faceKey canonically identifies a polyhedral face by its sorted vertex
// ids. Triangular faces use -1 in the last slot so they can never collide
// with quads.
type faceKey [4]int32

// tetFaces lists the 4 triangular faces of a tetrahedron as index triples
// into Cell.Verts.
var tetFaces = [4][4]int{{1, 2, 3, -1}, {0, 2, 3, -1}, {0, 1, 3, -1}, {0, 1, 2, -1}}

// hexFaces lists the 6 quad faces of a hexahedron.
var hexFaces = [6][4]int{
	{0, 1, 2, 3}, // bottom
	{4, 5, 6, 7}, // top
	{0, 1, 5, 4},
	{1, 2, 6, 5},
	{2, 3, 7, 6},
	{3, 0, 4, 7},
}

// cellFaces returns the face index table for a cell type.
func cellFaces(t CellType) [][4]int {
	if t == Tetrahedron {
		return tetFaces[:]
	}
	return hexFaces[:]
}

// makeFaceKey builds the canonical key of the f-th face of cell c.
func makeFaceKey(c *Cell, f [4]int) faceKey {
	var k faceKey
	n := 0
	for _, idx := range f {
		if idx < 0 {
			break
		}
		k[n] = c.Verts[idx]
		n++
	}
	// Insertion sort of at most 4 elements.
	for i := 1; i < n; i++ {
		for j := i; j > 0 && k[j] < k[j-1]; j-- {
			k[j], k[j-1] = k[j-1], k[j]
		}
	}
	if n == 3 {
		k[3] = -1
	}
	return k
}

// boundaryFaces calls fn with the canonical key of every face that occurs
// exactly once among the live cells' faces: the surface faces. Faces are
// matched locally at their lowest vertex, without a hash map: a counting
// sort buckets every face key by k[0], each bucket's [3]int32 remainders
// are sorted, and a run of length 1 is a boundary face. That is O(V + F)
// plus one short sort per vertex — the paper's once-in-the-face-list
// criterion without the list's global sort. numVerts must exceed every
// vertex id the cells reference.
func boundaryFaces(cells []Cell, numVerts int, fn func(faceKey)) {
	end := make([]int32, numVerts+1) // bucket v ends at end[v+1]
	for i := range cells {
		c := &cells[i]
		if c.Dead {
			continue
		}
		for _, f := range cellFaces(c.Type) {
			end[makeFaceKey(c, f)[0]+1]++
		}
	}
	for v := 0; v < numVerts; v++ {
		end[v+1] += end[v]
	}
	rest := make([][3]int32, end[numVerts])
	fill := slices.Clone(end[:numVerts])
	for i := range cells {
		c := &cells[i]
		if c.Dead {
			continue
		}
		for _, f := range cellFaces(c.Type) {
			k := makeFaceKey(c, f)
			rest[fill[k[0]]] = [3]int32{k[1], k[2], k[3]}
			fill[k[0]]++
		}
	}
	for v := 0; v < numVerts; v++ {
		bucket := rest[end[v]:end[v+1]]
		slices.SortFunc(bucket, func(x, y [3]int32) int { return slices.Compare(x[:], y[:]) })
		for r := range singles(bucket) {
			fn(faceKey{int32(v), r[0], r[1], r[2]})
		}
	}
}

// singles yields every element that occurs exactly once in the sorted
// slice s: a face key in a run of length 1 is a boundary face.
func singles[E comparable](s []E) iter.Seq[E] {
	return func(yield func(E) bool) {
		for i := 0; i < len(s); {
			j := i + 1
			for j < len(s) && s[j] == s[i] {
				j++
			}
			if j == i+1 && !yield(s[i]) {
				return
			}
			i = j
		}
	}
}

// surfaceOf returns the sorted ids of the vertices on at least one
// boundary face of the live cells; it is never nil.
func surfaceOf(cells []Cell, numVerts int) []int32 {
	on := make([]bool, numVerts)
	count := 0
	boundaryFaces(cells, numVerts, func(k faceKey) {
		for _, v := range k {
			if v >= 0 && !on[v] {
				on[v] = true
				count++
			}
		}
	})
	out := make([]int32, 0, count)
	for v, s := range on {
		if s {
			out = append(out, int32(v))
		}
	}
	return out
}

// SurfaceVertices returns the sorted ids of all vertices lying on at least
// one boundary face: the vertex set the paper's surface index keeps. The
// caller owns the returned slice.
//
// The list is computed once, by boundaryFaces, and each call returns a
// copy — every engine built over the mesh asks for it. Restructuring drops
// the memo (recordStructuralDirty), so the next call derives the list from
// the live cells. Renumber carries the memo over to the copy it returns
// (the surface is a vertex set, so the permutation maps it), which is why
// a dataset or shard sub-mesh laid out surface-first never derives its
// surface twice.
func (m *Mesh) SurfaceVertices() []int32 {
	m.memoMu.Lock()
	defer m.memoMu.Unlock()
	if m.surface == nil {
		m.surface = surfaceOf(m.cells, len(m.pos))
	}
	return append([]int32(nil), m.surface...)
}

// BoundaryFaceCount returns the number of faces on the mesh surface.
func (m *Mesh) BoundaryFaceCount() int {
	n := 0
	boundaryFaces(m.cells, len(m.pos), func(faceKey) { n++ })
	return n
}

// SurfaceToVolumeRatio returns S of the paper's analytical model: the number
// of surface vertices divided by the total number of vertices.
func (m *Mesh) SurfaceToVolumeRatio() float64 {
	if m.NumVertices() == 0 {
		return 0
	}
	return float64(len(m.SurfaceVertices())) / float64(m.NumVertices())
}

// isSurfaceVertex reports whether v lies on a boundary face: boundaryFaces'
// rule restricted to the faces that contain v. Every cell sharing such a
// face is incident to v, so the keys gathered from v's live incident cells
// hold every copy of each face, and a run of length 1 among them is a
// boundary face. Needs the incidence table (prepareRestructure).
func (m *Mesh) isSurfaceVertex(v int32) bool {
	var keys []faceKey
	for _, ci := range m.incidence.cellsOf(v) {
		c := &m.cells[ci]
		if c.Dead {
			continue
		}
		for _, f := range cellFaces(c.Type) {
			if faceHasVertexIdx(c, f, v) {
				keys = append(keys, makeFaceKey(c, f))
			}
		}
	}
	slices.SortFunc(keys, func(x, y faceKey) int { return slices.Compare(x[:], y[:]) })
	for range singles(keys) {
		return true
	}
	return false
}

func faceHasVertexIdx(c *Cell, f [4]int, v int32) bool {
	for _, idx := range f {
		if idx < 0 {
			break
		}
		if c.Verts[idx] == v {
			return true
		}
	}
	return false
}
