// Package mesh implements the in-memory polyhedral mesh store that OCTOPUS
// operates on: an adjacency-list representation of a 3-D tetrahedral /
// hexahedral mesh (paper §III-A), with
//
//   - an immutable connectivity core (CSR adjacency) that survives arbitrary
//     in-place deformation of vertex positions,
//   - extraction of the mesh surface via the global face list (§IV-E1),
//   - rare connectivity restructuring (cell split / delete) with incremental
//     surface maintenance deltas (§IV-E2), each vertex's surface status
//     decided locally from the faces of its incident cells, and
//   - Hilbert-order data reorganization for crawl cache locality (§IV-H1).
//
// A Mesh is safe for concurrent readers. The position store is
// double-buffered and epoch-versioned (positions.go): Deform may overlap
// readers that pin their epoch via PinPositions. In-place writes to
// Positions() — the paper's strictly alternating update/monitor loop —
// and restructuring require exclusive access.
package mesh

import (
	"fmt"
	"sync"
	"sync/atomic"

	"octopus/internal/geom"
)

// CellType identifies the polyhedral primitive of a cell.
type CellType uint8

const (
	// Tetrahedron is a 4-vertex, 4-triangle-face cell.
	Tetrahedron CellType = iota
	// Hexahedron is an 8-vertex, 6-quad-face cell.
	Hexahedron
)

// String implements fmt.Stringer.
func (t CellType) String() string {
	switch t {
	case Tetrahedron:
		return "tetrahedron"
	case Hexahedron:
		return "hexahedron"
	default:
		return fmt.Sprintf("CellType(%d)", uint8(t))
	}
}

// Cell is one polyhedron of the mesh. For tetrahedra only Verts[:4] is
// meaningful. A cell whose Dead flag is set has been removed by
// restructuring and must be skipped.
type Cell struct {
	Type  CellType
	Dead  bool
	Verts [8]int32
}

// VertexCount returns the number of vertices of the cell's primitive.
func (c *Cell) VertexCount() int {
	if c.Type == Tetrahedron {
		return 4
	}
	return 8
}

// Mesh is the memory-resident mesh dataset. Vertex positions are mutable in
// place (mesh deformation); connectivity is immutable except through the
// restructuring operations in restructure.go.
type Mesh struct {
	// Versioned position store (positions.go). pos holds even epochs,
	// back odd ones (nil until the first Deform allocates it). The buffer
	// holding the current state is buf(epoch): Deform writes the other
	// buffer and publishes with one atomic epoch increment; pins count
	// readers per buffer so a writer never recycles a buffer still being
	// read.
	pos      []geom.Vec3
	back     []geom.Vec3
	epoch    atomic.Uint64
	pins     [2]atomic.Int64
	writerMu sync.Mutex

	// CSR adjacency over vertices: the neighbours of vertex v are
	// adjList[adjStart[v]:adjStart[v+1]].
	adjStart []int32
	adjList  []int32

	// patched holds replacement neighbour lists for vertices whose
	// connectivity changed after restructuring. It overlays the CSR base;
	// the common (never-restructured) path never touches the map.
	patched map[int32][]int32

	cells []Cell

	// liveCells counts cells with Dead == false.
	liveCells int

	// incidence maps each vertex to its cells; the first SplitCell or
	// DeleteCell builds it (prepareRestructure).
	incidence *incidenceTable

	// Topology memos, guarded by memoMu and dropped by every restructuring
	// operation (recordStructuralDirty). surface memoizes SurfaceVertices:
	// nil until computed, or seeded by the Renumber that made this mesh.
	// compLabels and compCount memoize ConnectedComponents; compLabels is
	// nil until computed. blockGraph memoizes BlockGraph; it is stored
	// under memoMu and read without it.
	memoMu     sync.Mutex
	surface    []int32
	compLabels []int32
	compCount  int
	blockGraph atomic.Pointer[BlockGraph]

	// Dirty-region tracking (dirty.go): which vertices moved and which
	// cells were restructured since the last TakeDirty, recorded from
	// construction; the incremental-maintenance scheduler consumes it.
	// dirtyMark is allocated with back. The block sits last, behind the
	// adjacency every crawled vertex reads: placed before it, a sim-step
	// run (in-place writes, no publish, no diff) measured 3–4 % slower.
	dirtyCap   int
	dirty      DirtyRegion
	dirtyMark  []uint32
	dirtyStamp uint32
	dirtyLog   *DirtyLog // per-epoch dirt for result caches (dirtylog.go)

	// surfIdx is the surface index (surfaceindex.go), nil until an
	// engine asks for it; set under writerMu.
	surfIdx *SurfaceIndex
}

// newMesh assembles a mesh over freshly built arrays, with its dirty
// accumulator empty at epoch 0 — every construction path goes through it.
func newMesh(pos []geom.Vec3, adjStart, adjList []int32, cells []Cell) *Mesh {
	return &Mesh{
		pos:        pos,
		adjStart:   adjStart,
		adjList:    adjList,
		cells:      cells,
		liveCells:  len(cells),
		dirtyCap:   defaultDirtyCap(len(pos)),
		dirty:      DirtyRegion{Box: geom.EmptyBox()},
		dirtyStamp: 1,
		dirtyLog:   NewDirtyLog(0),
	}
}

// forgetTopology drops the topology memos, so the next SurfaceVertices,
// ConnectedComponents and BlockGraph derive them from the current cells.
// A labelling or graph handed out before stays valid: the next call
// allocates a new one.
func (m *Mesh) forgetTopology() {
	m.memoMu.Lock()
	m.surface, m.compLabels, m.compCount = nil, nil, 0
	m.blockGraph.Store(nil)
	m.memoMu.Unlock()
}

// NumVertices returns the number of vertices, including vertices added by
// restructuring.
func (m *Mesh) NumVertices() int { return len(m.pos) }

// NumCells returns the number of live (non-deleted) cells.
func (m *Mesh) NumCells() int { return m.liveCells }

// Cells returns the backing cell slice, including dead cells. Callers must
// check Cell.Dead. The slice must not be modified.
func (m *Mesh) Cells() []Cell { return m.cells }

// Position returns the current position of vertex v (at the current
// epoch).
func (m *Mesh) Position(v int32) geom.Vec3 { return m.front()[v] }

// SetPosition moves vertex v in place in the current front buffer. This is
// the paper's "mesh deformation" update: connectivity (and therefore the
// surface index) is unaffected. Like every in-place write it requires
// exclusive access (no query in flight) and an engine Step() before the
// next query; Deform has neither requirement.
func (m *Mesh) SetPosition(v int32, p geom.Vec3) { m.front()[v] = p }

// Positions returns the position array holding the current epoch. Callers
// may mutate elements to deform the mesh in bulk (the simulation's
// in-place update) while no query is in flight, followed by the engines'
// Step(), but must not grow or reallocate the slice. For deformation
// concurrent with queries, use Deform instead, and read through
// PinPositions.
func (m *Mesh) Positions() []geom.Vec3 { return m.front() }

// Neighbors returns the vertex ids adjacent to v (connected by a cell
// edge). The returned slice aliases internal storage and must not be
// modified.
func (m *Mesh) Neighbors(v int32) []int32 {
	if m.patched != nil {
		if p, ok := m.patched[v]; ok {
			return p
		}
	}
	return m.adjList[m.adjStart[v]:m.adjStart[v+1]]
}

// Degree returns the number of neighbours of vertex v.
func (m *Mesh) Degree(v int32) int { return len(m.Neighbors(v)) }

// degreeSum returns the summed vertex degree (2x the edge count). The CSR
// base contributes len(adjList); vertices with a patched neighbour list
// swap their base degree for the patch's length. O(patched) instead of a
// full O(V) Degree loop — on a never-restructured mesh it is O(1).
func (m *Mesh) degreeSum() int {
	total := len(m.adjList)
	for v, p := range m.patched {
		total += len(p) - int(m.adjStart[v+1]-m.adjStart[v])
	}
	return total
}

// NumEdges returns the number of undirected edges.
func (m *Mesh) NumEdges() int { return m.degreeSum() / 2 }

// AvgDegree returns the mesh degree M of the paper's analytical model: the
// average number of edges per vertex.
func (m *Mesh) AvgDegree() float64 {
	if len(m.pos) == 0 {
		return 0
	}
	return float64(m.degreeSum()) / float64(len(m.pos))
}

// Bounds returns the tight axis-aligned bounding box of all vertices at
// their current positions. It is O(V); during a simulation it is typically
// computed at most once per time step.
func (m *Mesh) Bounds() geom.AABB {
	b := geom.EmptyBox()
	for _, p := range m.front() {
		b = b.Extend(p)
	}
	return b
}

// MemoryBytes estimates the resident size of the mesh dataset itself
// (positions, adjacency, cells). Index structures report their own
// footprints separately, matching the paper's accounting where the mesh is
// given and only auxiliary structures count as overhead.
func (m *Mesh) MemoryBytes() int64 {
	bytes := int64(len(m.pos)+len(m.back)) * 24
	bytes += int64(len(m.adjStart)) * 4
	bytes += int64(len(m.adjList)) * 4
	bytes += int64(len(m.cells)) * 34
	for _, p := range m.patched {
		bytes += int64(len(p))*4 + 16
	}
	return bytes
}

// Validate checks internal structural invariants. It is intended for tests
// and dataset generators, not hot paths.
func (m *Mesh) Validate() error {
	n := int32(len(m.pos))
	if len(m.adjStart) != int(n)+1 {
		return fmt.Errorf("mesh: adjStart length %d, want %d", len(m.adjStart), n+1)
	}
	for v := int32(0); v < n; v++ {
		if m.adjStart[v] > m.adjStart[v+1] {
			return fmt.Errorf("mesh: adjStart not monotone at %d", v)
		}
		prev := int32(-1)
		for _, w := range m.Neighbors(v) {
			if w < 0 || w >= n {
				return fmt.Errorf("mesh: vertex %d has out-of-range neighbour %d", v, w)
			}
			if w == v {
				return fmt.Errorf("mesh: vertex %d has a self-loop", v)
			}
			if w == prev {
				return fmt.Errorf("mesh: vertex %d has duplicate neighbour %d", v, w)
			}
			prev = w
		}
	}
	// Symmetry: every edge must appear in both directions.
	for v := int32(0); v < n; v++ {
		for _, w := range m.Neighbors(v) {
			if !contains(m.Neighbors(w), v) {
				return fmt.Errorf("mesh: edge %d->%d not symmetric", v, w)
			}
		}
	}
	live := 0
	for i := range m.cells {
		c := &m.cells[i]
		if c.Dead {
			continue
		}
		live++
		for k := 0; k < c.VertexCount(); k++ {
			if c.Verts[k] < 0 || c.Verts[k] >= n {
				return fmt.Errorf("mesh: cell %d has out-of-range vertex %d", i, c.Verts[k])
			}
		}
	}
	if live != m.liveCells {
		return fmt.Errorf("mesh: liveCells %d, counted %d", m.liveCells, live)
	}
	return nil
}

func contains(s []int32, x int32) bool {
	for _, v := range s {
		if v == x {
			return true
		}
	}
	return false
}
