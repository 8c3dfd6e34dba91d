// Package octopus is a Go implementation of OCTOPUS (Tauheed, Heinis,
// Schürmann, Markram, Ailamaki — ICDE 2014): an execution strategy for 3-D
// range queries over mesh datasets that are deformed in place, massively
// and unpredictably, at every step of a scientific simulation.
//
// # Why not an index?
//
// Simulations move every vertex every time step. Any spatial index —
// rebuilt or incrementally maintained — pays for the whole dataset per
// step, amortized over only a handful of monitoring queries; a linear scan
// avoids maintenance but reads the whole dataset per query. OCTOPUS
// exploits the one thing deformation cannot change: mesh connectivity. A
// query is answered by probing only the mesh surface (stable under
// deformation) for seed vertices inside the box, then crawling mesh edges
// breadth-first, never expanding past a vertex outside the box. Cost is
// proportional to surface size plus result size — sublinear in the mesh.
//
// # Quick start
//
//	b := octopus.NewMeshBuilder(0, 0)
//	// ... b.AddVertex / b.AddTet ...
//	m, err := b.Build()
//	perm := m.SurfaceFirstHilbertPerm(10)       // spatially coherent ids, if yours are not
//	m, err = m.Renumber(perm)                   // your vertex i is now perm[i]
//	eng := octopus.New(m)                       // builds the surface index once
//	for step := 0; step < steps; step++ {
//	    simulate(m.Positions())                 // your in-place deformation
//	    eng.Step()                              // required after in-place writes: refits the probe boxes, O(surface)
//	    ids := eng.Query(octopus.Box(lo, hi), nil)
//	    // ... analyze ids ...
//	}
//
// The engines assume spatially coherent vertex ids — nearby vertices
// with nearby ids — because a crawl moves through runs of consecutive ids.
// A mesh built in arbitrary order answers correctly but crawls ≈ 10×
// slower or worse (the layout ablation: 400–600 µs of crawl per query
// with random ids against ≈ 40 µs in Hilbert order); the Renumber line
// above fixes that, and it renumbers the caller's ids, so keep perm to
// map them back.
//
// For meshes that stay convex during simulation, NewCon returns
// OCTOPUS-CON, which needs no surface index at all: a stale uniform grid
// (built once, never updated) supplies a start vertex for a directed walk
// into the query region.
//
// Restructuring — Mesh.SplitCell and Mesh.DeleteCell, the paper's rare
// connectivity changes (§IV-E2) — needs no engine call: the mesh alone
// carries it, folding each change into the surface index, its boxes and
// the connected-component labels every OCTOPUS engine reads at each
// query. Like an in-place write, it must not overlap queries.
//
// # Parallel query execution
//
// Every engine separates its immutable index state from per-query scratch
// (a Cursor), so the monitoring phase's independent queries can run on
// all cores: queries through distinct cursors may run concurrently (the
// mesh is safe for concurrent readers). ExecuteBatch packages the
// pattern:
//
//	eng := octopus.New(m)
//	for step := 0; step < steps; step++ {
//	    simulate(m.Positions())              // update phase: exclusive
//	    eng.Step()
//	    results := octopus.ExecuteBatch(eng, queries, 0) // 0 = GOMAXPROCS
//	    // results[i] answers queries[i]; in exact mode exactly what
//	    // serial execution returns
//	}
//
// Per-worker statistics are merged into the engine when the batch
// completes, so Stats() totals match serial execution. For hand-rolled
// pools, ParallelEngine.NewCursor hands out the same per-goroutine
// cursors directly.
//
// A single query stays on the goroutine that issued it — parallelism is
// between queries, one cursor each — and the crawl engines answer it in
// one deterministic order per cursor. Their cursors take a CrawlBudget
// (BudgetedCursor.SetBudget): a crawl that stops at an expansion count,
// keeps everything discovered so far, and reports its coverage (visited
// fraction, kNN bound gap) through each QueryTrace — a real
// latency/recall dial. The budget is cursor state, read once per query,
// so tuning one cursor never disturbs another's queries, and a cursor's
// answers do not depend on the queries it ran before.
//
// # Querying while the mesh deforms
//
// Deformation does not have to stop the world. The mesh keeps two
// position buffers (the second allocated by the first Deform) and an
// atomic epoch counter: Mesh.Deform writes the back buffer and publishes
// it with a single atomic swap, and every cursor pins the head epoch for the
// duration of each query, so a result set is never torn across a step —
// it equals brute force evaluated at the pinned epoch, exactly. The
// precise contract:
//
//   - Mesh.Deform may overlap queries freely. In-place mutation of
//     Positions() — the paper's loop — is stop-the-world: no query in
//     flight, and the engines' Step() before the next one.
//   - Index maintenance mutates engine-owned state that position epochs
//     do not version, so it must be excluded from queries on the same
//     maintenance target. Inside a Pipeline, a pressure-aware scheduler
//     owns that exclusion (DESIGN.md §11): the mesh records dirty
//     regions (which vertices moved, which cells were restructured),
//     engines turn them into resumable maintenance tasks — localized
//     relocation where the structure allows it, a sliceable full pass
//     otherwise, a nil task for the OCTOPUS family — and the scheduler
//     runs task slices under one read-write lock per target (the
//     engine, or each shard of a sharded engine), so OCTOPUS queries
//     never wait and one shard's maintenance stalls only the queries
//     fanning out to it.
//   - Pipeline.MaintenanceBudget bounds each tick's maintenance: tasks
//     are sliced at the deadline and resumed next tick. A query landing
//     mid-task never reads the half-updated index — it answers from a
//     scan of the pinned head positions instead, exact at the head
//     epoch. Pipeline.SchedulerStats reports slices, completions,
//     fallback scans and budget utilization.
//   - Engines that answer from an internal snapshot (the rebuilt trees,
//     the lazily updated grid and R-trees) report results exact at their
//     last maintenance epoch; cursors expose the epoch via LastEpoch and
//     the pipeline reports staleness = head epoch − answer epoch.
//
// Pipeline packages the whole arrangement — a writer goroutine stepping
// the simulation at a configurable tick, a maintenance tick after every
// step, a worker pool draining range and kNN queries, per-query latency
// (including any wait for maintenance, per the paper's accounting) and
// staleness traces:
//
//	pl := octopus.NewPipeline(eng, m, deformer.Step, time.Millisecond, 0)
//	pl.MaintenanceBudget = 500 * time.Microsecond // bound per-tick maintenance
//	report := pl.Run(queries, probes)
//	// report.RangeResults[i] is exact at report.RangeTraces[i].Epoch
//	// pl.SchedulerStats() accounts for every maintenance slice
//
// # k-nearest-neighbor queries
//
// Every engine also answers kNN queries ("the k vertices closest to this
// probe point" — the shape of the paper's monitoring scenarios), again
// with zero maintenance for OCTOPUS: a search of the surface finds the
// closest surface vertex, a greedy descent walks towards the probe point,
// a best-first crawl expands mesh edges outward, keeping the k best
// candidates in a bounded heap and stopping at the k-th-best radius, and
// the surface probe then offers every surface vertex inside that radius
// the crawl did not reach.
// Results are nearest first with ties broken by vertex id — identical to
// BruteForceKNN on well-shaped meshes (DESIGN.md §8 states the exact
// guarantee):
//
//	ids := eng.KNN(octopus.V(x, y, z), 10, nil)            // serial
//	results := octopus.ExecuteKNNBatch(eng, probes, 0)     // all cores
//
// The competitors answer kNN through their native machinery (kd-tree
// best-first descent, octree ordered descent, grid cell rings, R-tree
// pruned descent, scan selection heap), so comparisons stay honest; see
// DESIGN.md §8.
//
// # Sharded execution
//
// A mesh larger than one engine's rebuild budget can be cut into K
// spatially coherent shards along the Hilbert order, each served by its
// own engine instance, with queries routed across them:
//
//	eng, _ := octopus.NewShardedEngine(m, 4, func(sub *octopus.Mesh) octopus.ParallelKNNEngine {
//	    return octopus.New(sub)
//	})
//	ids := eng.Query(box, nil)       // fans out to the shards owning cells in box
//	nn := eng.KNN(p, 10, nil)        // best-first over shards, pruned by the k-th distance
//
// Each shard's sub-mesh carries a one-cell ghost ring, so the cut faces
// are ordinary sub-mesh surface and crawls terminate there; the router
// drops ghost hits (the neighbor shard owns them) and remaps local ids
// back to global ones. Results are bit-identical to the unsharded
// engine's — the equivalence suite asserts it for every engine,
// K ∈ {1, 2, 4, 8}, range and kNN, static and deforming. The returned
// router is a drop-in ParallelKNNEngine; handing its Mesh() to
// NewPipeline runs the live pipeline over the whole partition with
// lockstep epochs and per-shard maintenance (one shard's rebuild stalls
// only the queries that fan out to it).
//
// The partition is live: restructuring the global mesh (SplitCell,
// DeleteCell) re-partitions incrementally at the next publish — only the
// vertices of dirty cells are re-keyed, the Hilbert cut points shift
// within a balance tolerance, and the assembly step that builds every
// partition rebuilds only the shards whose ownership actually changed;
// untouched shards keep their sub-meshes and engines. Rebuilt shards
// answer exactly through the owned-scan fallback until their budgeted
// rebuild tasks complete, so queries never block on a migration and
// never see a torn partition (each re-partition adds its migration
// volume to ShardedMesh.RepartitionStats).
// See DESIGN.md §10 and §13.
//
// # Distributed serving
//
// The shard boundary also crosses the wire: each shard can be served by
// its own process (cmd/shardserver, or NewDistCluster in-process) and
// queried through a stateless router tier that owns no mesh data — only
// the shard addresses and cached routing metadata:
//
//	cl := octopus.NewDistCluster(sm, factory)
//	addrs, _ := cl.ServeTCP()
//	rt := octopus.NewDistRouter(addrs, octopus.DistRetryPolicy{})
//	ids, epoch, err := rt.Range(box, nil)
//	nn, _, err := rt.KNN(p, 10, nil)
//
// Answers are bit-equal to the in-process sharded engine's: range fan-out
// and kNN best-first order come from the same planner, and kNN scans each
// shard server-side under the shipped KBest widening state. Every
// response carries the shard's epoch; the router merges only responses
// proving a common epoch (re-querying on skew, bounded), and a shard that
// stays unreachable after the retry budget fails the query with an error
// naming it — never a silently narrowed result. Any number of router
// instances may serve one cluster.
//
// The distributed hot path is lean: localized deformation steps publish
// dirty deltas (only the moved vertices cross the wire, with an
// automatic full-publish fallback), the TCP wire multiplexes concurrent
// in-flight RPCs over pooled connections, and DistRouter.EnableCache
// adds a result cache whose hits answer repeat queries with zero network
// traffic — kept coherent by dirty-box invalidation riding the publish
// stream (DistRouter.SyncCache). Both endpoints expose per-op payload
// byte counters (DistWireStats). See DESIGN.md §15 and §16.
//
// The package also exposes the paper's baselines (linear scan, throwaway
// octree, LUR-Tree, QU-Trade, and extended baselines) for comparison, the
// analytical cost model of §IV-G, and the synthetic dataset generators
// used by the evaluation harness. See DESIGN.md for the system inventory
// and EXPERIMENTS.md for the reproduced evaluation.
package octopus
