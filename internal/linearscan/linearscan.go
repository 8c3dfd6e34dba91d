// Package linearscan implements the paper's baseline: a full scan of the
// vertex array per query. It needs no auxiliary structures and no
// maintenance, but its query cost is Θ(V) — Equation 4 of the analytical
// model — which is exactly the scaling problem OCTOPUS removes.
//
// The scan itself lives in internal/query (ScanPositions,
// ScanKNNPositions), and so does its cursor: NewCursor returns a
// query.ScanCursor, the one pinned scan the hybrid's scan route and the
// pipeline's mid-maintenance fallback also answer through.
package linearscan

import (
	"octopus/internal/geom"
	"octopus/internal/maintain"
	"octopus/internal/mesh"
	"octopus/internal/query"
)

// Scan is the linear-scan query engine.
type Scan struct {
	m *mesh.Mesh
}

// New returns a linear-scan engine over m.
func New(m *mesh.Mesh) *Scan {
	return &Scan{m: m}
}

// Name implements query.Engine.
func (s *Scan) Name() string { return "LinearScan" }

// Step implements query.Engine; the scan has nothing to maintain.
func (s *Scan) Step() {}

// BeginMaintenance implements maintain.Incremental with the nil task:
// the scan stores nothing, so nothing is ever dirty.
func (s *Scan) BeginMaintenance(mesh.DirtyRegion) maintain.Task { return nil }

// Query implements query.Engine.
func (s *Scan) Query(q geom.AABB, out []int32) []int32 {
	return query.ScanPositions(s.m.Positions(), q, out)
}

// KNN implements query.KNNEngine: one pass over the position array with a
// bounded selection heap — Θ(V + k log k), the kNN analog of Equation 4's
// scan cost, and the yardstick every kNN strategy is compared against.
func (s *Scan) KNN(p geom.Vec3, k int, out []int32) []int32 {
	return query.ScanKNNPositions(s.m.Positions(), p, k, out)
}

// MemoryFootprint implements query.Engine; the scan stores nothing.
func (s *Scan) MemoryFootprint() int64 { return 0 }

// NewCursor implements query.ParallelEngine: the scan carries no
// query-time scratch, so its cursor is the pinned scan itself.
func (s *Scan) NewCursor() query.Cursor { return query.NewScanCursor(s.m) }
