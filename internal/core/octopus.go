// Package core implements OCTOPUS, the paper's range-query execution
// strategy for dynamic meshes, plus its convex-mesh variant OCTOPUS-CON
// and the analytical cost model of §IV-G.
//
// OCTOPUS answers a range query in three phases (§IV-A):
//
//  1. Surface probe — scan the surface index (the vertices on boundary
//     faces; connectivity-derived, hence stable under deformation) and
//     collect those inside the query box as crawl seeds.
//  2. Directed walk — if no surface vertex is inside the box (query fully
//     interior to the mesh, or disjoint from it), greedily walk from a
//     surface vertex near the box towards it to find a seed. A query
//     starts from the nearest vertex of the leaf whose box is
//     nearest; if that walk stalls it is retried once from the closest
//     surface vertex, and a second stall scans the positions the probe
//     did not test and seeds the crawl from every vertex inside the box —
//     or proves there is none.
//  3. Crawling — BFS from the seeds, never expanding past what lies
//     outside the box. It moves in crawl blocks of 32 consecutive vertex
//     ids (crawl.go), so the Hilbert layout's locality is the unit of work.
//
// Because every phase reads positions directly from the live mesh, the
// strategy needs no maintenance when the simulation moves vertices — the
// property that lets it beat both rebuilt and incrementally-maintained
// indexes under the paper's massive-update workload. The surface index and
// the exact probe's block boxes over it belong to the mesh
// (mesh.SurfaceIndex): every writer of a position buffer refits that
// buffer's boxes in one pass over the surface before a reader can see it.
// A simulation that writes positions in place is such a writer, and Step
// is its refit; a published Deform refits inside the publish.
//
// # Concurrency
//
// Every engine in this package separates its index state (the surface
// index, the start-point grid, the selectivity histogram) from the
// per-query mutable scratch, which lives in a Cursor. At query time the
// index is read-only: no query builds, refits or locks anything, and the
// block boxes a cursor reads are those of the position buffer it pinned,
// which the pin keeps the writer off. Queries issued through distinct
// cursors (one per goroutine, via NewCursor) may therefore run
// concurrently, as may the resident-cursor Query method from a single
// goroutine. Queries may also overlap mesh.Mesh.Deform: every cursor pins
// a position epoch for the duration of each query, so result sets are
// exact at the pinned epoch, never torn across a deformation step. A
// query never leaves the goroutine that issued it: there is one range
// crawl (crawl.go), it runs on the cursor's visited set, and its output
// order is deterministic per cursor. What is NOT safe is running queries
// concurrently with anything that writes the index or the buffer they
// read: Step and restructuring require exclusive access (the
// query.Pipeline serializes them against queries), as does
// in-place mutation of Positions() — which must be followed by Step
// before the next query. Tuning is not among them: the crawl budget is
// held by each cursor (SetBudget) and read only by that cursor's queries.
// A cursor's answers depend on the mesh state and its budget alone, not
// on which queries it ran before.
package core

import (
	"sync"
	"time"

	"octopus/internal/geom"
	"octopus/internal/maintain"
	"octopus/internal/mesh"
	"octopus/internal/query"
)

// Octopus is the general (non-convex-safe) OCTOPUS engine. Its fields are
// immutable during query execution; per-query scratch lives in Cursors.
type Octopus struct {
	m *mesh.Mesh

	// idx is the mesh's surface index and block boxes. Its ascending id
	// order walks the position array near-sequentially (random probe
	// order costs several times more memory bandwidth).
	idx *mesh.SurfaceIndex

	cursorHost
}

// cursorHost is the cursor plumbing Octopus and Con embed: the resident
// cursor behind the single-threaded Query and KNN methods, the guard that
// panics when two goroutines enter it at once, and the statistics totals
// folded in from closed cursors.
type cursorHost struct {
	resident *Cursor
	guard    query.ResidentGuard

	// statsMu guards merged, the totals folded in from closed cursors.
	statsMu sync.Mutex
	merged  Stats
}

// mergeStats implements cursorOwner.
func (h *cursorHost) mergeStats(s Stats) {
	h.statsMu.Lock()
	h.merged.Add(s)
	h.statsMu.Unlock()
}

// Stats returns the accumulated phase statistics: the resident cursor's
// plus everything folded in from closed worker cursors.
func (h *cursorHost) Stats() Stats {
	h.statsMu.Lock()
	s := h.merged
	h.statsMu.Unlock()
	s.Add(h.resident.Stats())
	return s
}

// ResetStats clears the accumulated statistics (resident and merged).
func (h *cursorHost) ResetStats() {
	h.statsMu.Lock()
	h.merged = Stats{}
	h.statsMu.Unlock()
	h.resident.takeStats()
}

// Stats accumulates per-phase timings and counters across queries — the
// instrumentation behind the paper's Figures 9(b), 9(c) and 10(a).
type Stats struct {
	Queries       int64
	Results       int64
	SurfaceProbe  time.Duration
	DirectedWalk  time.Duration
	Crawl         time.Duration
	ProbeChecked  int64 // containment/distance tests of the probe and the walk-start search: surface positions and block boxes
	ProbeBoxes    int64 // the block-box tests among ProbeChecked, both levels
	WalkVisited   int64 // vertices accessed during directed walks, fallback scans included
	CrawlVisited  int64 // vertices expanded by the BFS
	DirectedWalks int64 // queries that needed the walk
	WalkStalls    int64 // exact walks that stalled (or had no start) and took the scan
}

// Total returns the summed phase time.
func (s Stats) Total() time.Duration { return s.SurfaceProbe + s.DirectedWalk + s.Crawl }

// Add accumulates o into s field by field — the merge operation applied to
// each worker cursor's local Stats after a parallel batch.
func (s *Stats) Add(o Stats) {
	s.Queries += o.Queries
	s.Results += o.Results
	s.SurfaceProbe += o.SurfaceProbe
	s.DirectedWalk += o.DirectedWalk
	s.Crawl += o.Crawl
	s.ProbeChecked += o.ProbeChecked
	s.ProbeBoxes += o.ProbeBoxes
	s.WalkVisited += o.WalkVisited
	s.CrawlVisited += o.CrawlVisited
	s.DirectedWalks += o.DirectedWalks
	s.WalkStalls += o.WalkStalls
}

// New builds the OCTOPUS engine over m: the first engine over a mesh
// extracts its surface index (the paper's one-time preprocessing; 62 s for
// the 33 GB dataset there), later ones share it. It creates the resident
// cursor, whose crawl structures are allocated by its first seeded crawl.
func New(m *mesh.Mesh) *Octopus {
	o := &Octopus{m: m, idx: m.SurfaceIndex()}
	o.resident = newCursor(o, m)
	return o
}

// Name implements query.Engine.
func (o *Octopus) Name() string { return "OCTOPUS" }

// Step implements query.Engine after positions were written in place.
// Deformation changes no connectivity, so OCTOPUS has no index to
// maintain — the core of its advantage. Step does the writer's one duty:
// it refits the block boxes of the written buffer (mesh.RefitSurface),
// one O(S) pass. A mesh deformed through Deform needs no Step.
func (o *Octopus) Step() { o.m.RefitSurface() }

// BeginMaintenance implements maintain.Incremental with the nil task:
// positional dirt needs no index work (the publish that recorded it refit
// the boxes), and structural dirt none either (the restructuring that
// recorded it updated the surface index and the component labels).
func (o *Octopus) BeginMaintenance(mesh.DirtyRegion) maintain.Task { return nil }

// SurfaceSize returns the number of vertices in the surface index.
func (o *Octopus) SurfaceSize() int { return len(o.idx.Slots()) }

// NewCursor implements query.ParallelEngine: it returns fresh per-worker
// query scratch over this engine.
func (o *Octopus) NewCursor() query.Cursor { return newCursor(o, o.m) }

// Query implements query.Engine, executing Algorithm 1 on the resident
// cursor. A concurrent entry panics; use NewCursor, one per goroutine,
// for parallel execution.
func (o *Octopus) Query(q geom.AABB, out []int32) []int32 {
	o.guard.Enter("core")
	defer o.guard.Leave()
	return o.queryWith(o.resident, q, out)
}

func (o *Octopus) queryWith(cur *Cursor, q geom.AABB, out []int32) []int32 {
	before := len(out)
	t0 := time.Now()
	pos := cur.beginRange()

	// Phase 1: surface probe. It descends the two levels of block boxes
	// and runs the containment kernel, the CS unit cost of the analytical
	// model, inside the leaves that meet q. Only in the no-seed case is a
	// walk start looked for: the boxes say which leaf is nearest q, and
	// that leaf's vertex nearest q is the start. Its tests count as the
	// probe's.
	boxes, positions := o.probeRange(cur, q, pos)
	cur.stats.ProbeBoxes += boxes
	cur.stats.ProbeChecked += boxes + positions
	start := int32(-1)
	if len(cur.seeds) == 0 {
		start, boxes, positions = o.blockStart(cur, q, pos)
		cur.stats.ProbeBoxes += boxes
		cur.stats.ProbeChecked += boxes + positions
	}
	t1 := time.Now()
	cur.stats.SurfaceProbe += t1.Sub(t0)

	// Phase 2: directed walk, only when the probe found no seed. The
	// greedy descent from the start answers the common interior query in
	// a few hops. A stalled descent is retried once from the exact
	// closest surface vertex (a best-first search over the same block
	// boxes), and a second stall (or a mesh with no surface vertex to
	// start from) falls back to one sequential pass over the positions the
	// probe did not test, every vertex inside the box becoming a seed: no
	// seed proves the mesh holds nothing in the box, and a seeded crawl
	// then covers every component and isolated vertex, so the no-seed
	// answer is exactly brute force's.
	if len(cur.seeds) == 0 {
		cur.stats.DirectedWalks++
		if !cur.walkFrom(q, start) {
			if v := o.closestSurfaceVertex(cur, q, pos); v == start || !cur.walkFrom(q, v) {
				unprobed := 0
				if o.idx.Dense() {
					unprobed = o.SurfaceSize()
				}
				cur.scanStalled(q, unprobed)
			}
		}
		t2 := time.Now()
		cur.stats.DirectedWalk += t2.Sub(t1)
		t1 = t2
	}

	// Phase 3: crawling.
	return cur.crawlRange(q, out, before, t1)
}

// MemoryFootprint implements query.Engine: the surface index with the
// boxes that exist (SurfaceIndex.MemoryBytes), the mesh's block graph
// once a crawl has built it, its component labels and the resident
// cursor's crawl structures — the accounting of Figures 6(b) and 10(b).
// Extra cursors' scratch is per-worker and transient.
func (o *Octopus) MemoryFootprint() int64 {
	return o.idx.MemoryBytes() + o.m.BlockGraphBytes() + o.m.ComponentsBytes() +
		o.resident.MemoryBytes()
}
