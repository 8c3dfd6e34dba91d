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
//     surface vertex near the box towards it to find a seed. An exact
//     query starts from the nearest vertex of the leaf whose box is
//     nearest; if that walk stalls it is retried once from the closest
//     surface vertex, and a second stall scans the positions the probe
//     did not test and seeds the crawl from every vertex inside the box —
//     or proves there is none.
//  3. Crawling — BFS along mesh edges from the seeds, never expanding past
//     a vertex outside the box.
//
// Because every phase reads positions directly from the live mesh, the
// strategy needs no maintenance when the simulation moves vertices — the
// property that lets it beat both rebuilt and incrementally-maintained
// indexes under the paper's massive-update workload. The one thing derived
// from positions is the exact probe's block boxes (probe.go): a cache that
// the first query of a position state rebuilds in one pass over the
// surface, never a structure a writer has to keep up. A simulation that
// writes positions in place announces the new state with Step, which is
// O(1); a snapshot mesh's epochs announce themselves.
//
// # Concurrency
//
// Every engine in this package separates its index state (the surface
// index, the start-point grid, the selectivity histogram) from the
// per-query mutable scratch, which lives in a Cursor. At query time the
// index is read-only with one exception: the block boxes of the exact
// probe, a mutex-guarded cache tagged with the position epoch and engine
// generation it was computed from, which the first query that pins another
// state rebuilds while later arrivals wait for it. Queries issued through
// distinct cursors (one per goroutine, via NewCursor) may therefore run
// concurrently, as may the resident-cursor Query method from a single
// goroutine. Queries may also overlap mesh.Mesh.Deform: every cursor pins
// a position epoch for the duration of each query, so result sets are
// exact at the pinned epoch, never torn across a deformation step. A query never leaves the goroutine that
// issued it: there is one crawl (crawl.go), it runs on the cursor's mark
// array, and its output order is deterministic per cursor. What is NOT
// safe is running queries concurrently with anything that mutates the
// index: Step, BeginMaintenance, restructuring and ApplySurfaceDelta
// require exclusive access (the query.Pipeline serializes them against
// queries), as does in-place mutation of Positions() — which must be
// followed by Step before the next query. Tuning is not among them: the
// approximate mode is a CrawlBudget held by each cursor (SetBudget) and
// read only by that cursor's queries.
package core

import (
	"sync"
	"sync/atomic"
	"time"

	"octopus/internal/geom"
	"octopus/internal/maintain"
	"octopus/internal/mesh"
	"octopus/internal/query"
)

// Octopus is the general (non-convex-safe) OCTOPUS engine. All fields but
// the probe summary are immutable during query execution; per-query
// scratch lives in Cursors.
type Octopus struct {
	m *mesh.Mesh

	// surface is the surface index: a packed array of the vertex ids on
	// the mesh surface, kept in ascending id order so the probe walks the
	// position array near-sequentially (random probe order costs several
	// times more memory bandwidth and would erase the win over the scan).
	surface []int32
	// surfaceSlot maps a surface vertex id to its slot in surface,
	// enabling O(1) insert/delete maintenance under restructuring
	// (§IV-E2).
	surfaceSlot map[int32]int32

	// compOf labels every vertex with its connected-component id and
	// compReps holds one descent start per component (a surface vertex
	// when the component has one). Both are rebuilt on New and
	// ApplySurfaceDelta — deformation never changes connectivity, so they
	// are as maintenance-free as the surface index. They serve kNN only: a
	// crawl can only ever reach vertices of its start's component, so the
	// kNN crawl visits every component. Range queries do not need them —
	// a no-seed range query that the walk cannot answer scans the unprobed
	// positions instead (DESIGN.md §4).
	compOf   []int32
	compReps []int32

	// denseSurface is true when surface == [0, len) — the surface-first
	// layout — enabling the probe's direct position-scan fast path.
	denseSurface bool

	// summary holds the exact probe's block boxes, one slot per position
	// buffer parity (probe.go). gen is the engine generation half of a
	// slot's validity tag: it starts at 1 and is bumped by everything that
	// can change what a slot describes without changing the position epoch
	// — Step and BeginMaintenance (positions written in place) and
	// ApplySurfaceDelta (slots move).
	summary [2]probeSlot
	gen     atomic.Uint64

	// resident is the cursor behind the single-threaded Query and KNN
	// methods; guard panics when two goroutines enter it at once.
	resident *Cursor
	guard    query.ResidentGuard

	// statsMu guards merged, the totals folded in from closed cursors.
	statsMu sync.Mutex
	merged  Stats
}

// Stats accumulates per-phase timings and counters across queries — the
// instrumentation behind the paper's Figures 9(b), 9(c) and 10(a).
type Stats struct {
	Queries       int64
	Results       int64
	SurfaceProbe  time.Duration
	DirectedWalk  time.Duration
	Crawl         time.Duration
	ProbeChecked  int64 // containment/distance tests of the probe: surface positions and block boxes
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

// New builds the OCTOPUS engine over m: it extracts the mesh surface once
// (the paper's one-time preprocessing; 62 s for the 33 GB dataset there)
// and creates the resident cursor, whose crawl structures are allocated by
// its first seeded crawl.
func New(m *mesh.Mesh) *Octopus {
	o := &Octopus{m: m}
	o.gen.Store(1)
	o.resident = newCursor(o, m)
	o.surface = m.SurfaceVertices() // ascending order: near-sequential probe
	o.surfaceSlot = make(map[int32]int32, len(o.surface))
	for i, v := range o.surface {
		o.surfaceSlot[v] = int32(i)
	}
	o.refreshDense()
	o.refreshComponents()
	return o
}

// refreshComponents rebuilds the vertex→component labels and the
// per-component walk representatives. Each representative is the
// component's first surface vertex, falling back to its lowest-id vertex
// for components without boundary faces (isolated vertices left behind by
// restructuring).
func (o *Octopus) refreshComponents() {
	count, labels := o.m.ConnectedComponents()
	o.compOf = labels
	o.compReps = make([]int32, count)
	for i := range o.compReps {
		o.compReps[i] = -1
	}
	assigned := 0
	for _, v := range o.surface {
		if c := labels[v]; o.compReps[c] < 0 {
			o.compReps[c] = v
			assigned++
		}
	}
	if assigned == count {
		return
	}
	for v := int32(0); v < int32(len(labels)); v++ {
		if c := labels[v]; o.compReps[c] < 0 {
			o.compReps[c] = v
		}
	}
}

// probeStride returns the surface-probe sampling stride of a cursor's
// CrawlBudget.SurfaceFrac: 1 for the full surface, else ~1/frac clamped
// to the surface length. The clamp matters: a stride beyond the surface
// length would let the rotating start offset skip the whole surface — zero
// vertices probed and, because the closest-vertex scan shares the offset,
// no walk start either, silently returning empty. Clamping keeps at least
// one probe per query on arbitrarily small surfaces. Both the range probe
// and the kNN probe use this stride, so their sampling behavior can never
// drift apart.
func (o *Octopus) probeStride(frac float64) int {
	if frac <= 0 || frac >= 1 {
		return 1
	}
	stride := int(1 / frac)
	if stride > len(o.surface) && len(o.surface) > 0 {
		stride = len(o.surface)
	}
	return stride
}

// refreshDense detects the surface-first vertex layout (surface ids form
// the prefix 0..len-1), which lets the probe scan the position array
// directly instead of gathering through the id array. Dataset generators
// emit this layout; restructuring deltas may break it.
func (o *Octopus) refreshDense() {
	o.denseSurface = true
	for i, v := range o.surface {
		if v != int32(i) {
			o.denseSurface = false
			return
		}
	}
}

// Name implements query.Engine.
func (o *Octopus) Name() string { return "OCTOPUS" }

// Step implements query.Engine. Mesh deformation changes no connectivity,
// so OCTOPUS has nothing to maintain — the core of its advantage. All Step
// does is start a new generation, O(1): positions written in place leave
// the mesh's epoch where it was, so this is how the probe's block boxes
// learn that they describe the previous step (the next exact query
// rebuilds them). A mesh deformed through snapshots needs no Step.
func (o *Octopus) Step() { o.gen.Add(1) }

// BeginMaintenance implements maintain.Incremental with the nil task:
// OCTOPUS reads positions through per-query pinned epochs, so positional
// dirt needs no index work at all, and structural dirt is handled by the
// explicit ApplySurfaceDelta path (under the scheduler's exclusive
// section). The localized path in its purest form. The scheduler calls
// this instead of Step, so a non-empty region starts a new generation like
// Step does.
func (o *Octopus) BeginMaintenance(d mesh.DirtyRegion) maintain.Task {
	if !d.Empty() {
		o.gen.Add(1)
	}
	return nil
}

// SurfaceSize returns the number of vertices in the surface index.
func (o *Octopus) SurfaceSize() int { return len(o.surface) }

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
	cur.stats.Queries++
	cur.armCrawl()
	before := len(out)

	// Phase 1: surface probe. The exact probe descends its two levels of
	// block boxes and runs the containment kernel inside the leaves that
	// meet q; the approximate probe samples the surface with a rotating
	// stride. Both walk the position array forward and perform only the
	// containment test (the CS unit cost of the analytical model). Only in
	// the no-seed case is a walk start looked for: the exact probe asks
	// its block boxes which leaf is nearest q and takes that leaf's vertex
	// nearest q; the approximate probe, which has no boxes, samples its
	// lattice.
	t0 := time.Now()
	cur.seeds = cur.seeds[:0]
	pos := cur.beginQuery(o.m)
	stride := o.probeStride(cur.budget.SurfaceFrac)
	exact := stride == 1
	probed := int64(0)
	minVertex := int32(-1)
	if exact {
		boxes, positions := o.probeRange(cur, q, pos)
		cur.stats.ProbeBoxes += boxes
		probed = boxes + positions
		if len(cur.seeds) == 0 {
			minVertex = o.blockStart(cur, q, pos)
		}
	} else {
		start := cur.probeOffset % stride
		cur.probeOffset++
		cur.seeds = o.appendContainedSlots(cur.seeds, q, pos, start, len(o.surface), stride)
		probed = int64((len(o.surface) - start + stride - 1) / stride) // slots start, start+stride, ...
		if len(cur.seeds) == 0 {
			minVertex = o.sampledStart(q, pos, start, stride)
		}
	}
	cur.stats.ProbeChecked += probed
	t1 := time.Now()
	cur.stats.SurfaceProbe += t1.Sub(t0)

	// Phase 2: directed walk, only when the probe found no seed. The
	// greedy descent from the start answers the common interior query in
	// a few hops. In exact mode a stalled descent is retried once from the
	// exact closest surface vertex (a best-first search over the same
	// block boxes), and a second stall (or a mesh with no surface vertex
	// to start from) falls back to one sequential pass over the positions
	// the probe did not test, every vertex inside the box becoming a seed:
	// no seed proves the mesh holds nothing in the box, and a seeded crawl
	// then covers every component and isolated vertex, so the no-seed
	// answer is exactly brute force's. Approximate mode keeps the paper's
	// plain greedy walk (accuracy is already being traded away).
	if len(cur.seeds) == 0 && (exact || minVertex >= 0) {
		cur.stats.DirectedWalks++
		if !cur.walkFrom(q, minVertex) && exact {
			if v := o.closestSurfaceVertex(cur, q, pos); v == minVertex || !cur.walkFrom(q, v) {
				unprobed := 0
				if o.denseSurface {
					unprobed = len(o.surface)
				}
				cur.scanStalled(q, unprobed)
			}
		}
		t2 := time.Now()
		cur.stats.DirectedWalk += t2.Sub(t1)
		t1 = t2
	}

	// Phase 3: crawling.
	out = cur.crawl(q, cur.seeds, out)
	cur.endQuery(o.m)
	cur.stats.Crawl += time.Since(t1)
	cur.stats.Results += int64(len(out) - before)
	return out
}

// MemoryFootprint implements query.Engine: the surface index (array +
// hash), the probe's block boxes (both levels, both parities) and the
// resident cursor's crawl structures — the accounting of Figures 6(b)
// and 10(b). Extra cursors report nothing here; their scratch is
// per-worker and transient.
func (o *Octopus) MemoryFootprint() int64 {
	return int64(cap(o.surface))*4 +
		int64(len(o.surfaceSlot))*16 +
		int64(len(o.compOf)+len(o.compReps))*4 +
		o.probeMemoryBytes() +
		o.resident.MemoryBytes()
}

// ApplySurfaceDelta folds a restructuring delta (§IV-E2) into the surface
// index: hash-table inserts and deletes, no rebuild. Deltas may break the
// surface-first layout, in which case the probe falls back to the
// id-array path, and they move slots between leaves, so the next exact
// query rebuilds the block boxes. Restructuring is the one event that can
// change mesh connectivity, so the component labels and walk
// representatives are rebuilt here too (an O(V+E) sweep on the rare path,
// per the paper's accounting of restructuring as an infrequent, charged
// event). Not safe concurrently with queries.
func (o *Octopus) ApplySurfaceDelta(d mesh.SurfaceDelta) {
	o.gen.Add(1)
	defer o.refreshDense()
	defer o.refreshComponents()
	for _, v := range d.Removed {
		slot, ok := o.surfaceSlot[v]
		if !ok {
			continue
		}
		last := int32(len(o.surface) - 1)
		moved := o.surface[last]
		o.surface[slot] = moved
		o.surfaceSlot[moved] = slot
		o.surface = o.surface[:last]
		delete(o.surfaceSlot, v)
	}
	for _, v := range d.Added {
		if _, ok := o.surfaceSlot[v]; ok {
			continue
		}
		o.surfaceSlot[v] = int32(len(o.surface))
		o.surface = append(o.surface, v)
	}
}

// mergeStats implements cursorOwner.
func (o *Octopus) mergeStats(s Stats) {
	o.statsMu.Lock()
	o.merged.Add(s)
	o.statsMu.Unlock()
}

// Stats returns the accumulated phase statistics: the resident cursor's
// plus everything folded in from closed worker cursors.
func (o *Octopus) Stats() Stats {
	o.statsMu.Lock()
	s := o.merged
	o.statsMu.Unlock()
	s.Add(o.resident.Stats())
	return s
}

// ResetStats clears the accumulated statistics (resident and merged).
func (o *Octopus) ResetStats() {
	o.statsMu.Lock()
	o.merged = Stats{}
	o.statsMu.Unlock()
	o.resident.takeStats()
}
