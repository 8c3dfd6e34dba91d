package core

import (
	"sync/atomic"

	"octopus/internal/geom"
	"octopus/internal/histogram"
	"octopus/internal/maintain"
	"octopus/internal/mesh"
	"octopus/internal/query"
)

// Hybrid puts the analytical model to the use the paper proposes
// ("Equations 5 and 6 thus help us to decide when to use OCTOPUS given
// that we know workload characteristics and the runtime constants",
// §IV-G): per query it estimates the selectivity with a spatial histogram
// and routes the query to OCTOPUS when the estimate is below the
// break-even selectivity of Equation 6, to the linear scan otherwise.
//
// The histogram is built once, like OCTOPUS-CON's grid: deformation makes
// it stale, but a stale density estimate still separates "small" from
// "huge" queries, and a wrong routing decision costs performance, never
// correctness.
//
// All routing inputs (histogram, threshold) are immutable and the routing
// counters are atomic, so Hybrid inherits the cursor-based concurrency of
// its OCTOPUS side: queries through distinct cursors may run concurrently.
// The scan side is query.ScanCursor, the linear scan's own cursor.
type Hybrid struct {
	oct  *Octopus
	hist *histogram.Histogram

	breakEven float64
	toOctopus atomic.Int64
	toScan    atomic.Int64

	resident hybridCursor
}

// NewHybrid builds the hybrid engine: OCTOPUS, a linear scan, a
// histogram with ~histCells cells, and a break-even selectivity from the
// calibrated machine constants and the dataset's S and M.
func NewHybrid(m *mesh.Mesh, histCells int, consts Constants) *Hybrid {
	if histCells <= 0 {
		histCells = 4096
	}
	oct := New(m)
	S := float64(oct.SurfaceSize()) / float64(max(1, m.NumVertices()))
	h := &Hybrid{
		oct:       oct,
		hist:      histogram.Build(m.Positions(), m.Bounds(), histCells),
		breakEven: BreakEvenSelectivity(S, m.AvgDegree(), consts),
	}
	h.resident = hybridCursor{h: h, oct: oct.resident, scan: query.NewScanCursor(m)}
	return h
}

// Name implements query.Engine.
func (h *Hybrid) Name() string { return "OCTOPUS-Hybrid" }

// Step implements query.Engine; neither routed engine needs maintenance,
// but positions written in place leave the OCTOPUS side's block boxes to
// refit (Octopus.Step).
func (h *Hybrid) Step() { h.oct.Step() }

// BeginMaintenance implements maintain.Incremental with the nil task:
// neither routed side maintains positional state (the stale histogram
// only ever costs routing quality, never correctness), and the publish
// that recorded the region refit the boxes.
func (h *Hybrid) BeginMaintenance(mesh.DirtyRegion) maintain.Task { return nil }

// BreakEven returns the routing threshold (Equation 6).
func (h *Hybrid) BreakEven() float64 { return h.breakEven }

// Routed returns how many queries went to each side.
func (h *Hybrid) Routed() (octopus, scan int64) {
	return h.toOctopus.Load(), h.toScan.Load()
}

// route decides the engine for q and bumps the routing counters.
func (h *Hybrid) route(q geom.AABB) (useScan bool) {
	if h.hist.Selectivity(q) >= h.breakEven {
		h.toScan.Add(1)
		return true
	}
	h.toOctopus.Add(1)
	return false
}

// Query implements query.Engine on the resident cursor — a hybridCursor
// over the OCTOPUS side's resident cursor, so the resident path honors
// the same snapshot contract as every other cursor. A concurrent entry
// panics.
func (h *Hybrid) Query(q geom.AABB, out []int32) []int32 {
	h.oct.guard.Enter("core")
	defer h.oct.guard.Leave()
	return h.resident.Query(q, out)
}

// hybridCursor routes each query to one of its two inner cursors — a core
// cursor for the OCTOPUS side, a scan cursor for the scan side — and
// reports whichever answered last.
type hybridCursor struct {
	h       *Hybrid
	oct     *Cursor
	scan    *query.ScanCursor
	scanned bool // the most recent query was scan-routed
}

// NewCursor implements query.ParallelEngine.
func (h *Hybrid) NewCursor() query.Cursor {
	return &hybridCursor{h: h, oct: newCursor(h.oct, h.oct.m), scan: query.NewScanCursor(h.oct.m)}
}

// Query implements query.Cursor. Both sides pin the head epoch per query,
// so a hybrid batch stays consistent no matter how each query is routed.
func (c *hybridCursor) Query(q geom.AABB, out []int32) []int32 {
	if c.scanned = c.h.route(q); c.scanned {
		return c.scan.Query(q, out)
	}
	return c.h.oct.queryWith(c.oct, q, out)
}

// SetBudget implements query.BudgetedCursor on the OCTOPUS side (the
// scan side has no crawl): scan-routed queries are always exact.
func (c *hybridCursor) SetBudget(b query.CrawlBudget) { c.oct.SetBudget(b) }

// LastEpoch implements query.PinnedCursor.
func (c *hybridCursor) LastEpoch() uint64 {
	if c.scanned {
		return c.scan.LastEpoch()
	}
	return c.oct.LastEpoch()
}

// LastKNNBound2 implements query.KNNBoundReporter: the ball of whichever
// side answered.
func (c *hybridCursor) LastKNNBound2() (float64, bool) {
	if c.scanned {
		return c.scan.LastKNNBound2()
	}
	return c.oct.LastKNNBound2()
}

// LastCoverage implements query.CoverageReporter: scan-routed queries are
// always exact.
func (c *hybridCursor) LastCoverage() query.CrawlCoverage {
	if c.scanned {
		return query.CrawlCoverage{}
	}
	return c.oct.LastCoverage()
}

// Close implements query.Cursor.
func (c *hybridCursor) Close() { c.oct.Close() }

// MemoryFootprint implements query.Engine.
func (h *Hybrid) MemoryFootprint() int64 {
	return h.oct.MemoryFootprint() + h.hist.MemoryBytes()
}
