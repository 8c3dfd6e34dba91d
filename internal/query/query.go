// Package query defines the common interface every range-query execution
// strategy implements — OCTOPUS, the linear scan and all competitor indexes
// — plus shared helpers for comparing engines against the ground truth.
//
// The lifecycle mirrors the paper's measurement protocol (§V-A): Build runs
// once when the mesh is loaded (preprocessing, reported separately);
// Step runs after every simulation time step's in-place update and carries
// all index maintenance (rebuilds, lazy updates, window checks) so its cost
// is charged to the total query response time; Query answers a 3-D range
// query on the current state.
//
// # Concurrency
//
// Engines keep only immutable index state at query time; all per-query
// mutable scratch lives in a Cursor. The contract, precisely:
//
//   - Queries through distinct cursors (one per goroutine, from
//     ParallelEngine.NewCursor) may run concurrently — mesh.Mesh is safe
//     for concurrent readers, and so is every engine's index.
//   - A single cursor — including the resident one behind Engine.Query —
//     must not be used from two goroutines at once. The OCTOPUS family,
//     the sharded router and the distributed engine enforce it on their
//     resident cursors (ResidentGuard): a concurrent entry panics.
//   - Mesh deformation through mesh.Mesh.Deform may overlap queries:
//     Deform publishes each step into the inactive buffer with an atomic
//     epoch swap, and cursors pin the epoch they execute against, so a
//     query's result set equals brute force at its pinned epoch — never a
//     torn mix of two steps. In-place mutation of Positions() is
//     stop-the-world: no query in flight, Step before the next one.
//   - Index maintenance still requires exclusion from queries on the
//     same maintenance target: Engine.Step mutates engine-owned state
//     that position epochs do not version, and restructuring
//     (mesh.Mesh.SplitCell/DeleteCell) mutates the mesh's connectivity
//     and the surface index and component labels it keeps for the core
//     engines — which is all there is to restructure: no engine is told,
//     and there is no engine call to forget. Tuning does not: the approximate mode is a CrawlBudget
//     held by each cursor (BudgetedCursor), read once per query.
//     Inside a Pipeline the maintain.Scheduler owns that exclusion with
//     one read-write lock per target (the engine, or each shard of a
//     sharded router) and runs maintenance as budget-sliced resumable
//     tasks; a query landing mid-task answers through a ScanCursor — the
//     pinned linear scan — instead of the half-updated index (see
//     internal/maintain and DESIGN.md §11). Outside a Pipeline the
//     paper's strict update/monitor alternation applies.
//   - A single query runs on the goroutine that issued it; parallelism
//     is between queries. Engine.Query leaves range result order
//     unspecified, but the core engines (internal/core) are deterministic
//     per cursor: the same query on the same positions returns the same
//     slice, the crawl's BFS discovery order from the probe's seeds.
//
// ExecuteBatch packages the stop-the-world pattern (a worker pool, one
// cursor per worker, statistics merged after the pool drains); Pipeline
// packages the live pattern, overlapping deformation with the pool:
//
//	eng := core.New(m)                       // any ParallelEngine
//	results := query.ExecuteBatch(eng, queries, runtime.GOMAXPROCS(0))
//	// results[i] answers queries[i]: the same result set as serial
//	// execution (kNN bit-identical; range order unspecified by the
//	// contract, identical on the core engines; exact mode)
//
// ScanCursor is the one pinned linear scan (Equation 4): the linear-scan
// engine's cursor, the hybrid's scan route and the pipeline's
// mid-maintenance fallback all answer through it. Whatever cursor
// answered, everything recorded about the answer — the trace's epoch,
// coverage and error, and whether ResultCache.KeepRange/KeepKNN cache it
// — is read from that one cursor.
package query

import (
	"fmt"
	"sort"

	"octopus/internal/geom"
	"octopus/internal/maintain"
	"octopus/internal/mesh"
)

// Engine is a range-query execution strategy over a dynamic mesh. Query
// and Step use the engine's resident cursor and are single-threaded, like
// the paper's measurement loop; Query must not be called concurrently
// with itself or with Step. For multi-core execution use the cursor API
// (ParallelEngine, ExecuteBatch), which runs queries concurrently through
// per-goroutine scratch — see the package comment for the full contract.
type Engine interface {
	// Name returns the display name used in experiment reports.
	Name() string

	// Step performs per-time-step index maintenance after the simulation
	// has updated vertex positions in place, and must be called before
	// the next query even by engines with nothing to maintain: OCTOPUS
	// refits the probe's block boxes of the written buffer (one pass over
	// the surface), the linear scan does nothing, throwaway indexes
	// rebuild here.
	Step()

	// Query appends the ids of all vertices whose current position lies in
	// q to out and returns the extended slice. Order is unspecified.
	Query(q geom.AABB, out []int32) []int32

	// MemoryFootprint returns the current size in bytes of all auxiliary
	// data structures (the mesh itself is excluded, as in Figure 6(b)).
	MemoryFootprint() int64
}

// EpochReporter is the one answer-epoch interface; see
// maintain.EpochReporter.
type EpochReporter = maintain.EpochReporter

// PinnedCursor is the epoch report every cursor gives (Cursor embeds it):
// the OCTOPUS-family cursors and ScanCursor pin the head epoch per query,
// StatelessCursor reports the engine's AnswerEpoch, the fan-out the epoch
// its shards proved. The pipeline reads it for per-query staleness and the
// result cache for the epoch an answer is filled at.
type PinnedCursor interface {
	// LastEpoch returns the epoch the cursor's most recent Query/KNN was
	// consistent with (0 before the first query).
	LastEpoch() uint64
}

// ErrorReporter is implemented by cursors whose queries can fail — a
// remote engine whose shard servers may be unreachable or epoch-skewed.
// Such a cursor returns an empty result from the failed Query/KNN and
// reports the error here; the pipeline records it in the trace
// (QueryTrace.Err) so a degraded answer is never presented as an exact
// empty one, and never cached.
type ErrorReporter interface {
	// LastError returns the error of the cursor's most recent Query/KNN,
	// or nil when it succeeded.
	LastError() error
}

// SortIDs sorts a result set in place; results have unspecified order, so
// comparisons normalize first.
func SortIDs(ids []int32) {
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
}

// Diff compares two result sets (destructively sorting both) and returns a
// description of the first discrepancy, or "" when they match.
func Diff(got, want []int32) string {
	SortIDs(got)
	SortIDs(want)
	if len(got) != len(want) {
		return fmt.Sprintf("result size %d, want %d", len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			return fmt.Sprintf("result[%d] = %d, want %d", i, got[i], want[i])
		}
	}
	return ""
}

// BruteForce returns the ground-truth result of q by scanning positions.
func BruteForce(m *mesh.Mesh, q geom.AABB) []int32 {
	return ScanPositions(m.Positions(), q, nil)
}

// ScanPositions appends every id whose position in pos lies in q — the
// range scan over an explicit position array, shared by BruteForce and
// ScanCursor.
func ScanPositions(pos []geom.Vec3, q geom.AABB, out []int32) []int32 {
	for i, p := range pos {
		if q.Contains(p) {
			out = append(out, int32(i))
		}
	}
	return out
}
