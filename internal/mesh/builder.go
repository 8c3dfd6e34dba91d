package mesh

import (
	"fmt"
	"sort"

	"octopus/internal/geom"
)

// Builder assembles a Mesh from vertices and cells. Building the CSR
// adjacency deduplicates the edges shared between cells, so cells may be
// added in any order and may freely share vertices, edges and faces.
type Builder struct {
	pos   []geom.Vec3
	cells []Cell
}

// NewBuilder returns an empty Builder. The expected counts are capacity
// hints; zero is fine.
func NewBuilder(vertexHint, cellHint int) *Builder {
	return &Builder{
		pos:   make([]geom.Vec3, 0, vertexHint),
		cells: make([]Cell, 0, cellHint),
	}
}

// AddVertex appends a vertex and returns its id.
func (b *Builder) AddVertex(p geom.Vec3) int32 {
	b.pos = append(b.pos, p)
	return int32(len(b.pos) - 1)
}

// NumVertices returns the number of vertices added so far.
func (b *Builder) NumVertices() int { return len(b.pos) }

// AddTet appends a tetrahedral cell over vertices v0..v3.
func (b *Builder) AddTet(v0, v1, v2, v3 int32) {
	b.cells = append(b.cells, Cell{Type: Tetrahedron, Verts: [8]int32{v0, v1, v2, v3}})
}

// AddHex appends a hexahedral cell. Vertex order follows the usual
// convention: v[0..3] is the bottom quad in cyclic order, v[4..7] the top
// quad with v[4] above v[0].
func (b *Builder) AddHex(v [8]int32) {
	b.cells = append(b.cells, Cell{Type: Hexahedron, Verts: v})
}

// tetEdges lists the 6 edges of a tetrahedron as index pairs into Verts.
var tetEdges = [6][2]int{{0, 1}, {0, 2}, {0, 3}, {1, 2}, {1, 3}, {2, 3}}

// hexEdges lists the 12 edges of a hexahedron.
var hexEdges = [12][2]int{
	{0, 1}, {1, 2}, {2, 3}, {3, 0}, // bottom
	{4, 5}, {5, 6}, {6, 7}, {7, 4}, // top
	{0, 4}, {1, 5}, {2, 6}, {3, 7}, // verticals
}

// cellEdges returns the edge index-pair table for a cell type.
func cellEdges(t CellType) [][2]int {
	if t == Tetrahedron {
		return tetEdges[:]
	}
	return hexEdges[:]
}

// Build constructs the Mesh: it validates cell indices and assembles the
// deduplicated CSR adjacency. The Builder may be reused afterwards, but the
// built Mesh owns its own storage.
func (b *Builder) Build() (*Mesh, error) {
	n := int32(len(b.pos))
	for i := range b.cells {
		c := &b.cells[i]
		nv := c.VertexCount()
		for k := 0; k < nv; k++ {
			if c.Verts[k] < 0 || c.Verts[k] >= n {
				return nil, fmt.Errorf("mesh: cell %d references vertex %d, have %d vertices", i, c.Verts[k], n)
			}
			for j := 0; j < k; j++ {
				if c.Verts[j] == c.Verts[k] {
					return nil, fmt.Errorf("mesh: cell %d is degenerate (repeated vertex %d)", i, c.Verts[k])
				}
			}
		}
	}

	// Gather directed edges as packed 64-bit keys, sort, deduplicate.
	var dir []uint64
	for i := range b.cells {
		c := &b.cells[i]
		for _, e := range cellEdges(c.Type) {
			a, bb := c.Verts[e[0]], c.Verts[e[1]]
			dir = append(dir, pack(a, bb), pack(bb, a))
		}
	}
	sort.Slice(dir, func(i, j int) bool { return dir[i] < dir[j] })

	adjStart := make([]int32, n+1)
	adjList := make([]int32, 0, len(dir))
	var prev uint64 = ^uint64(0)
	for _, k := range dir {
		if k == prev {
			continue
		}
		prev = k
		from := int32(k >> 32)
		to := int32(k & 0xffffffff)
		adjStart[from+1]++
		adjList = append(adjList, to)
	}
	for v := int32(0); v < n; v++ {
		adjStart[v+1] += adjStart[v]
	}

	pos := make([]geom.Vec3, len(b.pos))
	copy(pos, b.pos)
	cells := make([]Cell, len(b.cells))
	copy(cells, b.cells)

	return newMesh(pos, adjStart, adjList, cells), nil
}

func pack(a, b int32) uint64 { return uint64(uint32(a))<<32 | uint64(uint32(b)) }
