// Package dist puts a network boundary at the shard.Router seam: shard
// servers own sub-meshes (each a maintain.TargetState-driven engine over
// one shard.Part) and answer range/kNN/epoch RPCs over a compact binary
// protocol, while a stateless router tier fans queries out to the
// servers whose summary meets the query and merges responses under the
// global query.KBest (dist, id) contract — results bit-equal to the
// in-process shard.Router. See DESIGN.md §15 (wire boundary) and §16 (delta
// publishes, the multiplexed wire, router-side caching).
//
// The pieces:
//
//   - Server wraps one shard.Part: it answers Range and KNN requests
//     through the shard's engine (owned-filtered, remapped to global
//     ids), falling back to an exact owned scan of the pinned head
//     positions when the engine is mid-maintenance or stale — the same
//     decision procedure as the in-process router, so the two
//     architectures agree answer for answer. kNN requests carry the
//     router's current global bound, and the server runs the full
//     widening loop locally, returning its owned candidates capped to
//     the local top-k (capping cannot change the global top-k: a dropped
//     candidate is dominated by k returned ones under the (dist, id)
//     total order).
//
//   - Router is the stateless tier: it holds no mesh data, only cached
//     shard metadata refreshed from the servers: one shard.Summary per
//     shard — the owned box and the 8³ occupancy bitmap of the owned
//     vertices over the partition's frame — and the common epoch. A Meta
//     reply (protocol version 2) carries all three for one shard, at one
//     epoch: the server computes the whole summary in one pass per epoch
//     (shard.Part.Summary), under no lock of its own, and labels it with
//     the epoch that pass pinned. The plan skips a shard whose bitmap
//     misses a range query's box or a kNN bound's cube, so most legs that
//     would come back empty are never sent; a query every shard is
//     pruned from answers empty at the metadata's epoch without an RPC.
//     It runs no query loop of its own: Range, KNN and the Engine's
//     cursors are shard.Fanout — the cursor the in-process router uses —
//     over the router's shard.Legs: the cached metadata as the view to
//     plan from, one RPC per leg.
//
//   - Coherence: every response carries the shard's position epoch. The
//     fan-out merges only responses proving the common epoch the
//     metadata promised; a skewed response (the shard published a step
//     the router has not seen) discards the partial merge, drops the
//     metadata so it is refreshed, and re-plans the query — bounded
//     rounds, then an honest ErrEpochSkew. Servers double-check their epoch after executing
//     (epochs are monotonic, so equal before-and-after pins the answer
//     epoch), and never answer against geometry the router did not ask
//     about.
//
//   - Transports: an in-process Loopback (deterministic tests and fault
//     drills via Kill/Revive) and TCP, both behind the
//     Transport interface. The TCP wire is multiplexed: every frame
//     carries a request id, so one pooled connection serves many
//     concurrent in-flight RPCs — a slow query never head-of-line-blocks
//     a fast one — with per-call deadlines, and a demux goroutine
//     delivering each response to its waiter (DESIGN.md §16). A frame
//     leaves in one Write and arrives through a buffered reader; request
//     buffers, waiters and handler goroutines are reused per
//     connection, so a warmed RPC allocates only its two responses (the
//     one the server encodes and the one the client hands over). The router
//     retries transport failures with exponential backoff under
//     RetryPolicy and returns an honest error when a shard stays
//     unreachable — it never silently narrows a result. Both endpoints
//     count per-op payload bytes (WireStats): transport-independent,
//     deterministic for a seeded workload, and pinned exactly on
//     neuro-l2 by the package's counter tests.
//
//   - Cluster is the serving-side harness: it builds one Server per
//     shard of a shard.Mesh and owns the publish fan-out. Deform applies
//     a step to the global positions and consumes the mesh's dirty
//     region: a localized step ships as PublishDelta RPCs — only the
//     moved vertices each shard can see (owned plus ghost ring),
//     translated to local ids, applied into the sub-mesh's back buffer
//     before the atomic swap, so the result is bit-equal to a full
//     publish by construction. When a step moves too much (dirty-set
//     overflow) it falls back to pushing each shard's full local
//     position array as a Publish RPC. A structural change
//     (a split or deleted cell) is refused: that Deform and every later
//     one publish nothing and fail.
//     Either way every shard receives exactly one publish per step
//     (empty deltas included), keeping the cluster's epochs in lockstep;
//     MaintainToHead then drives every server's maintenance target to
//     the published epoch, localized by the dirt the server's own
//     sub-mesh recorded when the publish landed. A publish or maintain
//     step is one fan-out round: all K RPCs are in flight together, one
//     long-lived control worker per shard keeps each shard's RPCs in
//     order, and a failing shard stays behind alone. The steady-state
//     publish and maintain paths allocate nothing: per-shard encode
//     buffers and remap scratch are reused across steps.
//
//   - Result caching: EnableCache gives a Router a query.ResultCache
//     keyed by (kind, geometry) and the epoch its entry was computed at,
//     consulted in one place — the fan-out, before any leg is called.
//     A hit answers a repeat query with zero network traffic; coherence
//     rides the publish stream — every server logs the dirty box of each
//     published step, SyncCache pulls one shard's log (lockstep epochs
//     make it cluster-wide) and invalidates exactly the entries whose
//     geometry intersects a published dirty box, flushing outright on
//     full publishes or log truncation. Replayed hits are bit-equal to
//     re-executing the query.
//
// The distributed tier serves a pinned partition generation: live
// re-partitioning (shard.Mesh restructuring, pressure rebalancing)
// remains an in-process feature — a Cluster must be rebuilt to pick up a
// new partition, and one whose global mesh is restructured refuses to
// publish rather than serve the old cells.
package dist
