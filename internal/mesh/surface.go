package mesh

import "sort"

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

// faceTable counts, for every face in the global face list, how many live
// cells share it. A face with count 1 is a boundary (surface) face — the
// paper's criterion "a face F belongs to the mesh surface if it occurs once
// in the list" (§IV-E1).
type faceTable struct {
	count map[faceKey]int32
}

func newFaceTable(cells []Cell) *faceTable {
	ft := &faceTable{count: make(map[faceKey]int32, len(cells)*2)}
	for i := range cells {
		c := &cells[i]
		if c.Dead {
			continue
		}
		for _, f := range cellFaces(c.Type) {
			ft.count[makeFaceKey(c, f)]++
		}
	}
	return ft
}

// SurfaceVertices returns the sorted ids of all vertices lying on at least
// one boundary face: the vertex set the paper's surface index keeps. The
// caller owns the returned slice.
//
// Until restructuring is enabled the cell list cannot change, so the list
// is computed once and each call returns a copy — every engine built over
// the mesh asks for it, and the face table it is derived from is tens of
// MB on the level-5 neuron against 0.2 MB for the ids. The table itself
// is not kept. Once restructuring maintains a live face table, every call
// derives the list from it.
func (m *Mesh) SurfaceVertices() []int32 {
	if m.faces != nil {
		return m.faces.surfaceVertices()
	}
	m.surfaceOnce.Do(func() { m.surface = newFaceTable(m.cells).surfaceVertices() })
	return append([]int32(nil), m.surface...)
}

func (ft *faceTable) surfaceVertices() []int32 {
	onSurface := make(map[int32]struct{})
	for k, n := range ft.count {
		if n != 1 {
			continue
		}
		for _, v := range k {
			if v >= 0 {
				onSurface[v] = struct{}{}
			}
		}
	}
	out := make([]int32, 0, len(onSurface))
	for v := range onSurface {
		out = append(out, v)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// BoundaryFaceCount returns the number of faces on the mesh surface.
func (m *Mesh) BoundaryFaceCount() int {
	ft := m.faces
	if ft == nil {
		ft = newFaceTable(m.cells)
	}
	n := 0
	for _, c := range ft.count {
		if c == 1 {
			n++
		}
	}
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

// isSurfaceVertex reports whether v lies on a boundary face, evaluated
// against the live face table. Only valid when restructuring state is
// enabled.
func (m *Mesh) isSurfaceVertex(v int32) bool {
	for _, ci := range m.incidence.cellsOf(v) {
		c := &m.cells[ci]
		if c.Dead {
			continue
		}
		for _, f := range cellFaces(c.Type) {
			if !faceHasVertexIdx(c, f, v) {
				continue
			}
			if m.faces.count[makeFaceKey(c, f)] == 1 {
				return true
			}
		}
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
