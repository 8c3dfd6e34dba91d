package core

import (
	"time"

	"octopus/internal/geom"
	"octopus/internal/grid"
	"octopus/internal/maintain"
	"octopus/internal/mesh"
	"octopus/internal/query"
)

// DefaultGridCells is the grid resolution the paper settles on for
// OCTOPUS-CON after the Figure 9(c)/(d) trade-off study ("for the
// experiments ... we use a 1000 cell grid").
const DefaultGridCells = 1000

// Con is OCTOPUS-CON (§IV-F), the variant for meshes that stay convex
// during simulation. Convexity gives internal reachability of the whole
// mesh, so no surface index is needed: any vertex reaches the query region
// by directed walk, and a stale uniform grid — built once, never updated —
// supplies a starting vertex near the query center. Staleness can only
// lengthen the walk, never corrupt results, which is the fundamental
// difference from using an outdated spatial index for the query itself.
//
// Like Octopus, Con is read-only at query time: queries through distinct
// cursors may run concurrently.
type Con struct {
	m    *mesh.Mesh
	grid *grid.Grid

	// compOf/compReps: vertex→component labels and one descent start per
	// connected component, computed once at build time (deformation never
	// changes them). A strictly convex mesh has one component; on
	// multi-component input the kNN crawl visits every component. Range
	// queries do not use them — see Octopus and DESIGN.md §4.
	compOf   []int32
	compReps []int32

	cursorHost
}

// NewCon builds OCTOPUS-CON over m with a start-point grid of
// approximately gridCells cells (<= 0 uses DefaultGridCells). The grid
// indexes the positions at build time and is never maintained.
func NewCon(m *mesh.Mesh, gridCells int) *Con {
	if gridCells <= 0 {
		gridCells = DefaultGridCells
	}
	c := &Con{m: m, grid: grid.Build(m, gridCells)}
	count, labels := m.ConnectedComponents()
	c.compOf, c.compReps = labels, componentReps(labels, count, nil)
	c.resident = newCursor(c, m)
	return c
}

// Name implements query.Engine.
func (c *Con) Name() string { return "OCTOPUS-CON" }

// Step implements query.Engine: nothing to maintain; the grid is
// deliberately left stale.
func (c *Con) Step() {}

// BeginMaintenance implements maintain.Incremental with the nil task:
// like OCTOPUS, CON's only auxiliary structure is the deliberately stale
// start-point grid, which staleness cannot make incorrect.
func (c *Con) BeginMaintenance(mesh.DirtyRegion) maintain.Task { return nil }

// NewCursor implements query.ParallelEngine.
func (c *Con) NewCursor() query.Cursor { return newCursor(c, c.m) }

// Query implements query.Engine on the resident cursor: stale-grid
// start-point lookup, directed walk, then crawl. A concurrent entry
// panics; use NewCursor, one per goroutine, for parallel execution.
func (c *Con) Query(q geom.AABB, out []int32) []int32 {
	c.guard.Enter("core")
	defer c.guard.Leave()
	return c.queryWith(c.resident, q, out)
}

func (c *Con) queryWith(cur *Cursor, q geom.AABB, out []int32) []int32 {
	before := len(out)
	cur.beginRange()

	t0 := time.Now()
	start, ok := c.grid.NearestPopulated(q.Center())
	t1 := time.Now()
	cur.stats.SurfaceProbe += t1.Sub(t0) // grid lookup plays the probe's role

	// Directed walk from the grid-supplied start. Convexity makes the
	// descent arrive; on other input (non-convex, multi-component) a stall
	// falls back to the scan of every position, as in Octopus, so the
	// answer is exactly brute force's instead of silently empty.
	if !ok {
		start = -1
	}
	cur.stats.DirectedWalks++
	if !cur.walkFrom(q, start) {
		cur.scanStalled(q, 0)
	}
	t2 := time.Now()
	cur.stats.DirectedWalk += t2.Sub(t1)

	return cur.crawlRange(q, out, before, t2)
}

// MemoryFootprint implements query.Engine: the stale grid, the mesh's
// block graph once a crawl has built it, the component labels and the
// resident cursor's crawl structures.
func (c *Con) MemoryFootprint() int64 {
	return c.grid.MemoryBytes() + c.m.BlockGraphBytes() +
		int64(len(c.compOf)+len(c.compReps))*4 +
		c.resident.MemoryBytes()
}

// GridMemoryBytes returns the stale grid's footprint alone (Figure 9(d)).
func (c *Con) GridMemoryBytes() int64 { return c.grid.MemoryBytes() }
