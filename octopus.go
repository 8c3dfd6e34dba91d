package octopus

import (
	"octopus/internal/core"
	"octopus/internal/dist"
	"octopus/internal/geom"
	"octopus/internal/grid"
	"octopus/internal/kdtree"
	"octopus/internal/linearscan"
	"octopus/internal/lurtree"
	"octopus/internal/mesh"
	"octopus/internal/octree"
	"octopus/internal/query"
	"octopus/internal/qutrade"
	"octopus/internal/shard"
)

// Geometry primitives.
type (
	// Vec3 is a point or direction in 3-D space.
	Vec3 = geom.Vec3
	// AABB is an axis-aligned box — the shape of every range query.
	AABB = geom.AABB
)

// V constructs a Vec3.
func V(x, y, z float64) Vec3 { return geom.V(x, y, z) }

// Box constructs an AABB from two opposite corners (any order).
func Box(a, b Vec3) AABB { return geom.Box(a, b) }

// BoxAround constructs the cube of half-extent r centered at c.
func BoxAround(c Vec3, r float64) AABB { return geom.BoxAround(c, r) }

// Mesh types.
type (
	// Mesh is the in-memory mesh dataset: positions (mutable in place),
	// immutable CSR adjacency, cells, surface extraction and
	// restructuring.
	Mesh = mesh.Mesh
	// MeshBuilder assembles a Mesh from vertices and cells.
	MeshBuilder = mesh.Builder
	// MeshStats characterizes a dataset (V, M, S:V, ...).
	MeshStats = mesh.Stats
	// SurfaceDelta describes surface changes from restructuring; feed it
	// to Octopus.ApplySurfaceDelta.
	SurfaceDelta = mesh.SurfaceDelta
)

// NewMeshBuilder returns a mesh builder; the hints are capacities.
func NewMeshBuilder(vertexHint, cellHint int) *MeshBuilder {
	return mesh.NewBuilder(vertexHint, cellHint)
}

// ComputeMeshStats gathers dataset characteristics.
func ComputeMeshStats(m *Mesh) MeshStats { return mesh.ComputeStats(m) }

// Engine is the common interface of every query execution strategy: Step
// after each simulation update (maintenance), Query for range queries.
type Engine = query.Engine

// ParallelEngine is an Engine whose immutable index state is separated
// from per-query scratch: NewCursor hands out per-goroutine cursors so
// independent queries execute concurrently. Every engine constructor in
// this package returns a ParallelEngine.
type ParallelEngine = query.ParallelEngine

// Cursor is per-goroutine query scratch bound to the engine that created
// it (ParallelEngine.NewCursor). Distinct cursors may Query concurrently;
// a single cursor may not. Close folds the cursor's statistics back into
// the engine.
type Cursor = query.Cursor

// KNNQuery is one k-nearest-neighbor probe: the k mesh vertices closest
// to the probe point P (ties broken by smaller vertex id).
type KNNQuery = query.KNNQuery

// KNNEngine is implemented by engines that answer k-nearest-neighbor
// queries; every engine in this package does. Results are nearest first
// and match BruteForceKNN exactly on well-shaped meshes (see DESIGN.md §8
// for the crawl engines' connectivity assumption).
type KNNEngine = query.KNNEngine

// ParallelKNNEngine supports both batched parallel range queries and kNN
// queries. Every engine constructor in this package returns one.
type ParallelKNNEngine = query.ParallelKNNEngine

// EngineCursor is the concrete cursor of the OCTOPUS-family engines
// (Octopus, Con): what their NewCursor returns, with per-cursor Stats.
type EngineCursor = core.Cursor

// ExecuteBatch executes queries on eng with a pool of workers (one cursor
// each) and returns one result slice per query. In exact mode each result
// SET equals serial execution's (the Query contract leaves order
// unspecified; the OCTOPUS engines are deterministic per cursor and return
// the serial slice).
// workers <= 0 uses GOMAXPROCS. It must not run concurrently with Step,
// deformation or restructuring — parallelism applies within the
// monitoring phase, not across the simulation's update/monitor
// alternation.
func ExecuteBatch(eng ParallelEngine, queries []AABB, workers int) [][]int32 {
	return query.ExecuteBatch(eng, queries, workers)
}

// ExecuteKNNBatch executes kNN probes on eng with a pool of workers (one
// cursor each) and returns one result slice per probe, nearest first,
// bit-identical to serial execution in exact mode. workers <= 0 uses
// GOMAXPROCS. The same exclusion rule as ExecuteBatch applies: no Step,
// deformation or restructuring may overlap the batch.
func ExecuteKNNBatch(eng ParallelKNNEngine, probes []KNNQuery, workers int) [][]int32 {
	return query.ExecuteKNNBatch(eng, probes, workers)
}

// CrawlBudget is the approximate mode of the crawl engines: a budgeted
// crawl stops at MaxVisited expansions, keeps everything discovered so
// far, and reports its coverage per query. It is cursor state: set it
// with SetBudget on a cursor of Octopus, Con, Hybrid or ShardedEngine
// (each a BudgetedCursor); the zero value is exact.
type CrawlBudget = query.CrawlBudget

// CrawlCoverage reports how much of a query's crawl ran before the budget
// cut it off — visited/frontier counts and the kNN bound gap. It is
// carried per query in QueryTrace.Coverage.
type CrawlCoverage = query.CrawlCoverage

// BudgetedCursor is implemented by the cursors of the crawl engines
// (Octopus, Con, Hybrid, ShardedEngine): SetBudget sets the CrawlBudget
// of the cursor's later queries.
type BudgetedCursor = query.BudgetedCursor

// Octopus is the paper's general engine (non-convex-safe).
type Octopus = core.Octopus

// Con is OCTOPUS-CON, the convex-mesh variant.
type Con = core.Con

// Stats carries OCTOPUS' per-phase timings and counters.
type Stats = core.Stats

// New builds the OCTOPUS engine: one-time surface extraction, zero
// per-step maintenance afterwards.
func New(m *Mesh) *Octopus { return core.New(m) }

// NewCon builds OCTOPUS-CON with a stale start-point grid of roughly
// gridCells cells (<= 0 chooses the paper's 1000).
func NewCon(m *Mesh, gridCells int) *Con { return core.NewCon(m, gridCells) }

// Hybrid routes each query to OCTOPUS or the linear scan using the
// analytical model's break-even selectivity (Equation 6) — the decision
// procedure the paper proposes in §IV-G.
type Hybrid = core.Hybrid

// NewHybrid builds the model-routed hybrid engine. histCells <= 0 uses a
// 4096-cell selectivity histogram.
func NewHybrid(m *Mesh, histCells int, c ModelConstants) *Hybrid {
	return core.NewHybrid(m, histCells, c)
}

// Baselines (the paper's competitors plus extended ones), all implementing
// Engine and KNNEngine.

// NewLinearScan returns the linear-scan baseline.
func NewLinearScan(m *Mesh) ParallelKNNEngine { return linearscan.New(m) }

// NewOctree returns the throwaway bucket-octree baseline, rebuilt from
// scratch on every Step. bucket <= 0 uses the default.
func NewOctree(m *Mesh, bucket int) ParallelKNNEngine { return octree.NewEngine(m, bucket) }

// NewKDTree returns the throwaway kd-tree baseline. bucket <= 0 uses the
// default.
func NewKDTree(m *Mesh, bucket int) ParallelKNNEngine { return kdtree.NewEngine(m, bucket) }

// NewLURTree returns the lazy-update R-tree baseline. fanout <= 0 uses the
// paper's 110.
func NewLURTree(m *Mesh, fanout int) ParallelKNNEngine { return lurtree.New(m, fanout) }

// NewQUTrade returns the grace-window R-tree baseline. fanout <= 0 uses
// the paper's 110; window <= 0 self-tunes.
func NewQUTrade(m *Mesh, fanout int, window float64) ParallelKNNEngine {
	return qutrade.New(m, fanout, window)
}

// NewLUGrid returns the lazily updated uniform-grid baseline.
func NewLUGrid(m *Mesh, targetCells int) ParallelKNNEngine { return grid.NewLUEngine(m, targetCells) }

// Sharded execution (DESIGN.md §10): the mesh cut into K spatially
// coherent sub-meshes along the Hilbert order, each served by its own
// engine instance, with range and kNN queries routed across them.

// ShardedMesh is a global mesh plus its K-way Hilbert partition. It
// implements the pipeline's DeformableMesh, publishing every deformation
// step into all shards in lockstep.
type ShardedMesh = shard.Mesh

// ShardedEngine routes queries across the shards of a ShardedMesh — one
// inner engine per shard. It implements ParallelKNNEngine: range queries
// fan out to the shards whose bounding box intersects the query; kNN
// visits shards best-first under a shared k-best bound that prunes
// shards that cannot contribute. Results are identical to the inner
// engine running on the unsharded mesh.
type ShardedEngine = shard.Router

// ShardPartition exposes the partition itself: per-shard sub-meshes,
// ownership tables and cut-edge ghost lists.
type ShardPartition = shard.Partition

// RepartitionStats accumulates a sharded mesh's live re-partitioning
// activity — generations, boundary cut shifts, migrated vertices and
// cells versus the totals a full rebuild would have moved, and the
// owned-count imbalance before/after the latest generation. Read it with
// ShardedMesh.RepartitionStats.
type RepartitionStats = shard.RepartitionStats

// NewShardedMesh cuts m into k shards of (nearly) equal vertex count
// along the Hilbert order of the current positions. k is clamped to the
// vertex count.
func NewShardedMesh(m *Mesh, k int) (*ShardedMesh, error) {
	return shard.NewMesh(m, k, shard.Options{})
}

// NewShardedEngine shards m K ways and builds one inner engine per shard
// with factory (any engine constructor of this package). The returned
// router is a drop-in ParallelKNNEngine; its Mesh() is the ShardedMesh
// to hand to a Pipeline for live sharded execution.
func NewShardedEngine(m *Mesh, k int, factory func(*Mesh) ParallelKNNEngine) (*ShardedEngine, error) {
	sm, err := NewShardedMesh(m, k)
	if err != nil {
		return nil, err
	}
	return shard.NewRouter(sm, factory), nil
}

// Distributed serving (DESIGN.md §15): shard servers owning sub-meshes
// behind a compact wire protocol, and a stateless router tier that fans
// queries out to them — bit-equal to the in-process ShardedEngine, with
// honest errors (never silently wrong or partial answers) when shards
// are unreachable or epoch-skewed.

// DistCluster is the serving-side harness: one shard server per shard
// of a ShardedMesh plus the control plane that publishes deformation
// steps (the ghost-position exchange) and drives maintenance. Localized
// steps ship as dirty deltas — only the moved vertices cross the wire,
// with an automatic full-publish fallback when a step moves too much
// (see DESIGN.md §16). It implements the pipeline's DeformableMesh, so a
// Pipeline can run over a distributed engine unchanged.
type DistCluster = dist.Cluster

// DistRouter is the stateless query tier: it caches only routing
// metadata (per-shard boxes and the common epoch) and merges responses
// under an epoch-vector coherence gate. Any number of router instances
// may serve the same cluster.
type DistRouter = dist.Router

// DistEngine adapts a DistRouter (plus optionally its cluster's control
// plane) to ParallelKNNEngine for ExecuteBatch and Pipeline use. Failed
// queries return empty results and surface their error through the
// cursor (query traces record them as degraded).
type DistEngine = dist.Engine

// DistRetryPolicy bounds the router's per-RPC deadline and retry
// behavior; the zero value uses the defaults.
type DistRetryPolicy = dist.RetryPolicy

// DistWireStats is a per-op snapshot of one endpoint's wire traffic in
// payload bytes (transport framing excluded, so the numbers agree across
// loopback and TCP). Read it with DistRouter.WireStats (query side) or
// DistCluster.WireStats (publish/maintenance side); PublishedBytes sums
// the per-step position traffic the delta encoding shrinks.
type DistWireStats = dist.WireStats

// DistOpStats counts one RPC op's completed exchanges within a
// DistWireStats snapshot: calls, request bytes sent, response bytes
// received.
type DistOpStats = dist.OpStats

// DistCacheStats reports the router-side result cache's counters —
// hits, misses, dirty-region invalidations and epoch flushes. Enable the
// cache with DistRouter.EnableCache (hits answer repeat queries with
// zero network traffic), keep it coherent across published steps with
// DistRouter.SyncCache, and read the counters with DistRouter.CacheStats.
type DistCacheStats = query.CacheStats

// NewDistCluster builds one shard server per shard of sm with engines
// from factory; serve it with ServeTCP (real sockets) or ServeLoopback.
// Call Close when done: it stops the servers and the control plane's
// per-shard workers.
func NewDistCluster(sm *ShardedMesh, factory func(*Mesh) ParallelKNNEngine) *DistCluster {
	return dist.NewCluster(sm, factory)
}

// NewDistRouter returns a stateless router over the shard servers at
// addrs (index = shard id) reached over TCP under policy.
func NewDistRouter(addrs []string, policy DistRetryPolicy) *DistRouter {
	return dist.NewRouter(&dist.TCPTransport{}, addrs, policy)
}

// NewDistControlPlane returns a cluster that drives externally served
// shard servers (cmd/shardserver processes) at addrs (index = shard id)
// over TCP, instead of owning them: sm must be built from the same
// deterministic dataset and shard count as the servers', and publishes
// and maintenance fan out as RPCs. Its first publish or maintain starts
// one control worker per shard; call Close to stop them and drop the
// connections.
func NewDistControlPlane(sm *ShardedMesh, addrs []string) *DistCluster {
	return dist.NewControlPlane(sm, &dist.TCPTransport{}, addrs)
}

// NewDistEngine wraps a router (and, when non-nil, a cluster whose
// maintenance Step drives) as a drop-in engine.
func NewDistEngine(r *DistRouter, cl *DistCluster) *DistEngine { return dist.NewEngine(r, cl) }

// Analytical model (§IV-G).

// ModelConstants holds the machine constants CS (sequential access) and CR
// (adjacency access) of the cost model.
type ModelConstants = core.Constants

// Calibrate measures ModelConstants on this machine using m.
func Calibrate(m *Mesh) ModelConstants { return core.Calibrate(m) }

// CostOctopus evaluates Equation 3: predicted seconds per OCTOPUS query.
func CostOctopus(V int, S, M, selectivity float64, c ModelConstants) float64 {
	return core.CostOctopus(V, S, M, selectivity, c)
}

// CostScan evaluates Equation 4: predicted seconds per linear scan.
func CostScan(V int, c ModelConstants) float64 { return core.CostScan(V, c) }

// PredictedSpeedup evaluates Equation 5: OCTOPUS' speedup over the scan.
func PredictedSpeedup(S, M, selectivity float64, c ModelConstants) float64 {
	return core.PredictedSpeedup(S, M, selectivity, c)
}

// BreakEvenSelectivity evaluates Equation 6: the selectivity above which
// the linear scan wins.
func BreakEvenSelectivity(S, M float64, c ModelConstants) float64 {
	return core.BreakEvenSelectivity(S, M, c)
}

// BruteForce returns the ground-truth result of q by scanning positions —
// a testing aid.
func BruteForce(m *Mesh, q AABB) []int32 { return query.BruteForce(m, q) }

// BruteForceKNN returns the ground-truth k nearest vertices to p by
// scanning positions, nearest first with ties broken by ascending id — a
// testing aid and the ordering contract of every KNNEngine.
func BruteForceKNN(m *Mesh, p Vec3, k int) []int32 { return query.BruteForceKNN(m, p, k) }

// Diff compares two result sets (destructively sorting both) and returns
// a description of the first discrepancy, or "" when they match — a
// testing aid for range results, whose order is unspecified.
func Diff(got, want []int32) string { return query.Diff(got, want) }
