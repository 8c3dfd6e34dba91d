package mesh

import (
	"fmt"
	"slices"

	"octopus/internal/geom"
)

// SurfaceDelta describes how a restructuring operation changed the set of
// surface vertices. The operation itself folds it into the mesh's surface
// index as slot inserts/deletes (§IV-E2); engines that keep
// connectivity-derived state of their own (OCTOPUS's components) consume
// it too.
type SurfaceDelta struct {
	// Added lists vertices that joined the surface.
	Added []int32
	// Removed lists vertices that left the surface (or left the mesh).
	Removed []int32
}

// Empty reports whether the delta changes nothing.
func (d SurfaceDelta) Empty() bool { return len(d.Added) == 0 && len(d.Removed) == 0 }

// incidenceTable maps each vertex to the cells containing it. The first
// restructuring operation builds it (prepareRestructure); deformation-only
// workloads never pay for it.
type incidenceTable struct {
	start []int32
	list  []int32
	// extra holds incidence entries for cells added after the base table
	// was built, and for vertices created by restructuring.
	extra map[int32][]int32
}

func newIncidenceTable(numVerts int, cells []Cell) *incidenceTable {
	start := make([]int32, numVerts+1)
	for i := range cells {
		c := &cells[i]
		if c.Dead {
			continue
		}
		for k := 0; k < c.VertexCount(); k++ {
			start[c.Verts[k]+1]++
		}
	}
	for v := 0; v < numVerts; v++ {
		start[v+1] += start[v]
	}
	list := make([]int32, start[numVerts])
	fill := make([]int32, numVerts)
	for i := range cells {
		c := &cells[i]
		if c.Dead {
			continue
		}
		for k := 0; k < c.VertexCount(); k++ {
			v := c.Verts[k]
			list[start[v]+fill[v]] = int32(i)
			fill[v]++
		}
	}
	return &incidenceTable{start: start, list: list, extra: make(map[int32][]int32)}
}

// cellsOf returns the (possibly stale) incidence list of v; dead cells must
// be filtered by the caller.
func (t *incidenceTable) cellsOf(v int32) []int32 {
	var base []int32
	if int(v) < len(t.start)-1 {
		base = t.list[t.start[v]:t.start[v+1]]
	}
	ex := t.extra[v]
	if len(ex) == 0 {
		return base
	}
	out := make([]int32, 0, len(base)+len(ex))
	out = append(out, base...)
	out = append(out, ex...)
	return out
}

func (t *incidenceTable) add(v, cell int32) {
	t.extra[v] = append(t.extra[v], cell)
}

// prepareRestructure builds the restructuring state on the first SplitCell
// or DeleteCell: the vertex-incidence table and the patch layer over the
// CSR adjacency.
func (m *Mesh) prepareRestructure() {
	if m.incidence == nil {
		m.incidence = newIncidenceTable(len(m.pos), m.cells)
	}
	if m.patched == nil {
		m.patched = make(map[int32][]int32)
	}
}

// SplitCell performs a 1-to-4 tetrahedron split: a new vertex is inserted at
// the cell centroid and the cell is replaced by four tetrahedra. This is the
// paper's "polyhedra may be split, thus increasing the number of vertices"
// restructuring. The mesh surface is unchanged (the new vertex is interior),
// so the returned delta is always empty and the slot order and leaf boxes
// stand (the surface index still maps the relabelled components); it is
// returned for symmetry with DeleteCell.
func (m *Mesh) SplitCell(ci int) (newVertex int32, delta SurfaceDelta, err error) {
	if ci < 0 || ci >= len(m.cells) {
		return -1, SurfaceDelta{}, fmt.Errorf("mesh: cell %d out of range", ci)
	}
	c := &m.cells[ci]
	if c.Dead {
		return -1, SurfaceDelta{}, fmt.Errorf("mesh: cell %d is deleted", ci)
	}
	if c.Type != Tetrahedron {
		return -1, SurfaceDelta{}, fmt.Errorf("mesh: SplitCell supports tetrahedra only, got %v", c.Type)
	}
	m.prepareRestructure()

	a, b, cc, d := c.Verts[0], c.Verts[1], c.Verts[2], c.Verts[3]
	front := m.front()
	centroid := front[a].Add(front[b]).Add(front[cc]).Add(front[d]).Scale(0.25)
	x := m.growPosition(centroid)
	// Grow adjStart so the CSR lookup for x yields an empty base list; its
	// real neighbours live in the patch layer.
	m.adjStart = append(m.adjStart, m.adjStart[len(m.adjStart)-1])

	// Replace the cell with four tets around x.
	c.Dead = true
	m.liveCells--
	base := int32(len(m.cells))
	m.cells = append(m.cells,
		Cell{Type: Tetrahedron, Verts: [8]int32{x, b, cc, d}},
		Cell{Type: Tetrahedron, Verts: [8]int32{a, x, cc, d}},
		Cell{Type: Tetrahedron, Verts: [8]int32{a, b, x, d}},
		Cell{Type: Tetrahedron, Verts: [8]int32{a, b, cc, x}},
	)
	m.liveCells += 4
	for i := int32(0); i < 4; i++ {
		nc := &m.cells[base+i]
		for k := 0; k < 4; k++ {
			m.incidence.add(nc.Verts[k], base+i)
		}
	}

	// Adjacency: x connects to a, b, cc, d; each of them gains x.
	m.patched[x] = []int32{a, b, cc, d}
	slices.Sort(m.patched[x])
	for _, v := range [4]int32{a, b, cc, d} {
		nb := m.Neighbors(v)
		upd := make([]int32, 0, len(nb)+1)
		upd = append(upd, nb...)
		upd = append(upd, x)
		slices.Sort(upd)
		m.patched[v] = upd
	}

	m.recordStructuralDirty(m.cellBox(ci), int32(ci), base, base+1, base+2, base+3)
	m.recordAddedVert(x)
	m.reindexSurface(SurfaceDelta{})
	return x, SurfaceDelta{}, nil
}

// DeleteCell removes a cell from the mesh: the paper's "merged, hence
// reducing the vertices on the surface" direction of restructuring (here the
// cell's volume simply leaves the mesh, exposing its interior faces). The
// returned SurfaceDelta lists vertices that joined or left the surface set;
// it has already been applied to the surface index, whose component map
// is rebuilt and whose current boxes are refit.
func (m *Mesh) DeleteCell(ci int) (SurfaceDelta, error) {
	if ci < 0 || ci >= len(m.cells) {
		return SurfaceDelta{}, fmt.Errorf("mesh: cell %d out of range", ci)
	}
	c := &m.cells[ci]
	if c.Dead {
		return SurfaceDelta{}, fmt.Errorf("mesh: cell %d already deleted", ci)
	}
	m.prepareRestructure()

	// Only the cell's own vertices can change surface status: each is
	// tested locally before and after the cell leaves.
	affected := c.Verts[:c.VertexCount()]
	var wasSurface [8]bool
	for i, v := range affected {
		wasSurface[i] = m.isSurfaceVertex(v)
	}
	c.Dead = true
	m.liveCells--

	// Recompute the adjacency of affected vertices from their remaining
	// live incident cells.
	for _, v := range affected {
		m.patched[v] = m.recomputeNeighbors(v)
	}

	var delta SurfaceDelta
	for i, v := range affected {
		switch now := m.isSurfaceVertex(v); {
		case now && !wasSurface[i]:
			delta.Added = append(delta.Added, v)
		case !now && wasSurface[i]:
			delta.Removed = append(delta.Removed, v)
		}
	}
	slices.Sort(delta.Added)
	slices.Sort(delta.Removed)
	m.recordStructuralDirty(m.cellBox(ci), int32(ci))
	m.dirtyLog.Untrack() // no epoch moves: the next publish carries it
	m.reindexSurface(delta)
	return delta, nil
}

// recomputeNeighbors derives v's neighbour list from its live incident
// cells.
func (m *Mesh) recomputeNeighbors(v int32) []int32 {
	set := make(map[int32]struct{})
	for _, ci := range m.incidence.cellsOf(v) {
		c := &m.cells[ci]
		if c.Dead {
			continue
		}
		for _, e := range cellEdges(c.Type) {
			a, b := c.Verts[e[0]], c.Verts[e[1]]
			if a == v {
				set[b] = struct{}{}
			} else if b == v {
				set[a] = struct{}{}
			}
		}
	}
	out := make([]int32, 0, len(set))
	for w := range set {
		out = append(out, w)
	}
	slices.Sort(out)
	return out
}

// Centroid returns the centroid of cell ci at current vertex positions.
func (m *Mesh) Centroid(ci int) geom.Vec3 {
	c := &m.cells[ci]
	pos := m.front()
	sum := geom.Vec3{}
	n := c.VertexCount()
	for k := 0; k < n; k++ {
		sum = sum.Add(pos[c.Verts[k]])
	}
	return sum.Scale(1 / float64(n))
}
