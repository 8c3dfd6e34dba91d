package mesh

import (
	"fmt"
	"math"
	"slices"

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
	tets, hexes := 0, 0
	for i := range b.cells {
		c := &b.cells[i]
		if c.Type == Tetrahedron {
			tets++
		} else {
			hexes++
		}
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
	if err := checkEdgeSlots(tets, hexes); err != nil {
		return nil, err
	}

	// Counting-sort the directed edges by source vertex: size each vertex's
	// slot range with every cell edge counted (shared edges repeat), then
	// drop each edge's far end into its source's range.
	slotEnd := make([]int32, n+1) // slots of v end at slotEnd[v+1]
	for i := range b.cells {
		c := &b.cells[i]
		for _, e := range cellEdges(c.Type) {
			slotEnd[c.Verts[e[0]]+1]++
			slotEnd[c.Verts[e[1]]+1]++
		}
	}
	for v := int32(0); v < n; v++ {
		slotEnd[v+1] += slotEnd[v]
	}
	slots := make([]int32, slotEnd[n])
	fill := slices.Clone(slotEnd[:n])
	for i := range b.cells {
		c := &b.cells[i]
		for _, e := range cellEdges(c.Type) {
			a, bb := c.Verts[e[0]], c.Verts[e[1]]
			slots[fill[a]] = bb
			fill[a]++
			slots[fill[bb]] = a
			fill[bb]++
		}
	}

	// Deduplicate and sort each short list in place, compacting the
	// survivors to the front of slots; they become the exact-size CSR. A
	// vertex's list repeats every shared edge (a tet-grid vertex has 14
	// neighbours in ≈ 70 slots), so duplicates are dropped first, against
	// a stamp per vertex, and only the survivors are sorted.
	adjStart := make([]int32, n+1)
	stamp := make([]int32, n) // stamp[w] == v+1: w is already in v's list
	for v := int32(0); v < n; v++ {
		w := adjStart[v]
		for _, x := range slots[slotEnd[v]:slotEnd[v+1]] {
			if stamp[x] != v+1 {
				stamp[x] = v + 1
				slots[w] = x
				w++
			}
		}
		slices.Sort(slots[adjStart[v]:w])
		adjStart[v+1] = w
	}
	adjList := slices.Clone(slots[:adjStart[n]])

	pos := make([]geom.Vec3, len(b.pos))
	copy(pos, b.pos)
	cells := make([]Cell, len(b.cells))
	copy(cells, b.cells)

	return newMesh(pos, adjStart, adjList, cells), nil
}

// checkEdgeSlots rejects a cell list whose directed edges, counted before
// deduplication (12 per tetrahedron, 24 per hexahedron), overflow Build's
// int32 slot offsets: about 179 M tetrahedra or 89 M hexahedra.
func checkEdgeSlots(tets, hexes int) error {
	slots := 2 * (tets*len(tetEdges) + hexes*len(hexEdges))
	if slots > math.MaxInt32 {
		return fmt.Errorf("mesh: %d tetrahedra and %d hexahedra need %d edge slots, more than %d", tets, hexes, slots, math.MaxInt32)
	}
	return nil
}
