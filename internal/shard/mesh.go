package shard

import (
	"fmt"
	"sync"
	"sync/atomic"

	"octopus/internal/geom"
	"octopus/internal/mesh"
)

// Mesh is the sharded counterpart of mesh.Mesh: the global source mesh
// plus its K-way Hilbert partition. It implements query.DeformableMesh, so
// a query.Pipeline can drive a sharded engine exactly like a single-mesh
// one: Deform applies each simulation step to the global positions and
// republishes every shard's sub-mesh (one epoch per global step, all
// shards in lockstep).
//
// Cross-shard snapshot coherence: a multi-shard query must not observe
// shard A at step e and shard B at step e+1 — that would be the torn read
// the position epochs eliminated, reintroduced at shard granularity.
// Deform therefore publishes under the write side of an RW gate that
// every router query holds for reading, so every query fans out over one
// consistent global step. The gate covers only what queries can observe —
// the partition swap, the scatter into the K sub-meshes (with each
// shard's dirty diff) and the epoch bump, ≈ 20 ns per local position with
// every vertex moving — and not the caller's fn, which writes the global
// array under a writer mutex while queries keep running: no query reads
// the global array. A query waits for at most one scatter (plus the
// queries already in flight ahead of it); queries never block each other. Index maintenance is NOT under this gate — it
// runs under each shard's own target lock (the scheduler's slices, or
// Router.Step once its publish is done), which is the point of sharding:
// one shard's rebuild blocks only the queries that need that shard.
//
// The partition is live (DESIGN.md §13): restructuring the global mesh
// after partitioning no longer panics. Deform and Resync detect pending
// structural dirt — the global mesh records it from construction — and
// re-partition incrementally inside the gate before the scatter, so the
// remap tables and the K sub-meshes swap atomically with respect to
// queries and no query ever observes mixed partition generations.
type Mesh struct {
	global *mesh.Mesh
	part   *Partition

	// writeMu serializes the writers (Deform; Resync and Router.Step go
	// through it): it alone covers Deform's fn, which writes the global
	// array no query reads.
	writeMu sync.Mutex
	// deformMu is the cross-shard coherence gate: a writer holds it for
	// the partition swap, the scatter into the sub-meshes and the epoch
	// bump; router queries read.
	deformMu sync.RWMutex

	// epoch counts published global deformation steps; after each step
	// every shard sub-mesh is at this epoch.
	epoch    atomic.Uint64
	dirtyLog *mesh.DirtyLog // per step, each shard's sub-mesh publish record

	// onRepartition, when set (the Router installs it), is called with
	// the rebuilt shard indices immediately after a partition swap, under
	// the same exclusion as the swap itself.
	onRepartition func(touched []int)

	stats RepartitionStats // guarded by deformMu
}

// RepartitionStats accumulates what live re-partitioning has done to a
// sharded mesh since construction: each Partition.Apply adds its counts
// to it.
type RepartitionStats struct {
	// Generations counts partition swaps (incremental or full).
	Generations int
	// FullRebuilds counts swaps that fell back to a from-scratch
	// re-partition (the global mesh shrank, or a grown mesh came without
	// its structural dirt; see Partition.Apply).
	FullRebuilds int
	// BoundaryShifts totals cut points moved to rebalance owned counts.
	BoundaryShifts int
	// MigratedVerts and MigratedCells total vertices/cells that changed
	// owner across all swaps; TotalCellsSeen totals the live cell counts
	// at each swap, so MigratedCells/TotalCellsSeen is the mean migrated
	// fraction.
	MigratedVerts  int
	MigratedCells  int
	TotalCellsSeen int
	// RebuiltShards totals shards rebuilt across all swaps (out of
	// Generations x K possible).
	RebuiltShards int
	// ImbalanceBefore and ImbalanceAfter are the owned-count imbalance
	// (max/mean) around the most recent swap.
	ImbalanceBefore, ImbalanceAfter float64
}

// NewMesh partitions m into k Hilbert shards and returns the sharded
// container. The global mesh remains the deformation source of truth: a
// sim.Simulation may keep writing its positions in place between queries
// (followed by Router.Step), or Mesh.Deform applies each step while
// queries run.
//
// The global mesh may be restructured (SplitCell, DeleteCell) after
// partitioning: the next Deform or Resync re-partitions incrementally,
// re-keying only the dirty cells' vertices and rebuilding only the shards
// whose owned set or cell set changed. See RepartitionStats.
func NewMesh(m *mesh.Mesh, k int, _ Options) (*Mesh, error) {
	part, err := NewPartition(m, k)
	if err != nil {
		return nil, err
	}
	return &Mesh{global: m, part: part, dirtyLog: mesh.NewDirtyLog(0)}, nil
}

// Global returns the global source mesh.
func (sm *Mesh) Global() *mesh.Mesh { return sm.global }

// Partition returns the underlying partition.
func (sm *Mesh) Partition() *Partition { return sm.part }

// K returns the number of shards.
func (sm *Mesh) K() int { return sm.part.K }

// RepartitionStats returns the accumulated live re-partitioning
// statistics. Safe to call concurrently with queries; it waits for a
// re-partition and publish in progress, never for Deform's fn.
func (sm *Mesh) RepartitionStats() RepartitionStats {
	sm.deformMu.RLock()
	defer sm.deformMu.RUnlock()
	return sm.stats
}

// Epoch implements query.DeformableMesh: the number of deformation steps
// published through Deform (Resync and Router.Step publish one each).
func (sm *Mesh) Epoch() uint64 { return sm.epoch.Load() }

// Deform applies one whole-mesh position update: fn mutates the global
// position array in place (it is pre-loaded with the current state, like
// mesh.Mesh.Deform's back buffer), and the new positions are then
// published into every shard sub-mesh — copied, nothing derived: the
// shard summaries are the readers' to compute (Part.Summary). Each shard
// publishes through its own double-buffered store, one epoch per global
// step; router queries in flight keep reading the step they pinned. fn
// runs under the writer mutex only (no query reads the global array —
// router legs read sub-mesh buffers), so queries keep running while it
// computes; the gate covers re-partition + scatter + publish.
//
// If the global mesh was restructured since the last publish, Deform
// re-partitions inside the gate, before the scatter — the sub-meshes and
// remap tables swap atomically, then the scatter publishes the new
// positions through the new tables, so queries never mix partition
// generations. fn always sees the full (grown) vertex array: restructuring
// grows the global mesh itself, not the partition.
func (sm *Mesh) Deform(fn func(pos []geom.Vec3)) {
	sm.writeMu.Lock()
	defer sm.writeMu.Unlock()
	global := sm.global.Positions()
	fn(global)
	sm.deformMu.Lock()
	defer sm.deformMu.Unlock()
	// The global mesh's dirty region, consumed here, says whether it was
	// restructured since the partition was (re)built.
	if d := sm.global.TakeDirty(); d.Structural {
		sm.applyRepartition(d)
	}
	e := sm.epoch.Load() + 1
	recs := make([]mesh.DirtyRec, 0, len(sm.part.Parts))
	for _, p := range sm.part.Parts {
		from := p.Mesh.Epoch()
		// The scatter rewrites every local position, so the publish can
		// skip the back buffer's preload copy.
		p.Mesh.DeformOverwrite(func(pos []geom.Vec3) {
			pos = pos[:len(p.ToGlobal)]
			for l, g := range p.ToGlobal {
				pos[l] = global[g]
			}
		})
		for _, r := range p.Mesh.DirtySince(from).Recs {
			r.Epoch = e
			recs = append(recs, r)
		}
	}
	sm.epoch.Store(e)
	sm.dirtyLog.Append(recs...)
}

// DirtySince returns the dirty log after epoch from: per step, one record
// per shard, the first untracked after a re-partition.
func (sm *Mesh) DirtySince(from uint64) mesh.DirtySince { return sm.dirtyLog.Since(from) }

// Resync publishes the global mesh's current positions into every shard
// sub-mesh — Deform with nothing to apply,
// for simulations that wrote the global positions in place (Router.Step
// calls it each step; call it manually before building engines over a
// partition whose global mesh has moved since). Like Deform it
// re-partitions first when the global mesh was restructured, serializes
// with router queries through the coherence gate, and advances Epoch by
// one.
func (sm *Mesh) Resync() { sm.Deform(func([]geom.Vec3) {}) }

// applyRepartition swaps in the partition derived by Apply, which adds
// its counts to the mesh's stats, and notifies the router. Deform calls
// it holding writeMu and deformMu.
func (sm *Mesh) applyRepartition(d mesh.DirtyRegion) {
	np, touched, err := sm.part.Apply(sm.global, d, &sm.stats)
	if err != nil {
		panic(fmt.Sprintf("shard: re-partition after restructuring failed (K=%d, %d -> %d global vertices): %v",
			sm.part.K, len(sm.part.Owner), sm.global.NumVertices(), err))
	}
	sm.part = np
	// Rebuilt sub-meshes diff against the state they were built from, so
	// the next step's records could miss movement: log it untracked.
	sm.dirtyLog.Untrack()
	if sm.onRepartition != nil && len(touched) > 0 {
		sm.onRepartition(touched)
	}
}
