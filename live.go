package octopus

import (
	"time"

	"octopus/internal/maintain"
	"octopus/internal/query"
)

// Live deform+query pipeline: the facade over internal/query's
// epoch-pinned concurrent execution (DESIGN.md §9).
//
// Deform through Mesh.Deform instead of mutating Positions() in place and
// queries do not need to stop the world: each one pins the epoch it
// executes against, so its result set is exactly brute force at that
// epoch even while deformation steps publish concurrently.

// Pipeline runs a writer goroutine stepping the simulation at a
// configurable tick while a worker pool drains range and kNN queries,
// reporting per-query latency and staleness (epochs behind the simulation
// head at completion).
type Pipeline = query.Pipeline

// QueryTrace is the per-query record of a pipeline run: latency, the
// epoch the result is consistent with, and the head epoch at completion.
type QueryTrace = query.QueryTrace

// PipelineReport is the outcome of one Pipeline.Run.
type PipelineReport = query.PipelineReport

// DeformableMesh is the dataset surface the pipeline's writer drives: a
// *Mesh directly, or a *ShardedMesh publishing every shard in lockstep.
type DeformableMesh = query.DeformableMesh

// NewPipeline assembles a live deform+query pipeline: deform is the
// per-step in-place update (it receives the back position buffer), tick
// the minimum interval between steps (0 = continuous), workers the query
// pool size (<= 0 = GOMAXPROCS). Tune the remaining knobs (MinSteps,
// MaxSteps, Maintain, MaintenanceBudget) on the returned value before
// Run. m is a *Mesh or, for sharded execution, the
// ShardedEngine's Mesh().
func NewPipeline(eng ParallelKNNEngine, m DeformableMesh, deform func(step int, pos []Vec3), tick time.Duration, workers int) *Pipeline {
	return &Pipeline{Engine: eng, Mesh: m, Deform: deform, Tick: tick, Workers: workers}
}

// Incremental maintenance (DESIGN.md §11): inside a Pipeline, index
// maintenance runs through a pressure-aware scheduler as dirty-region
// driven, resumable tasks — one maintenance target per engine, or per
// shard for sharded engines. Setting Pipeline.MaintenanceBudget bounds
// how long each tick may spend on maintenance: tasks are sliced at the
// deadline and resumed next tick, and a query that lands mid-task
// answers from a scan of the pinned head positions (exact at the head
// epoch) instead of waiting out the rebuild.

// SchedulerStats is the maintenance scheduler's accounting for one
// Pipeline run: ticks, task slices, completions, mid-maintenance
// fallback queries, total slice time and max observed staleness.
// Retrieve it with Pipeline.SchedulerStats after (or during) Run.
type SchedulerStats = maintain.Stats

// TargetStats is one maintenance target's share of SchedulerStats (the
// engine itself, or one shard of a sharded engine).
type TargetStats = maintain.TargetStats

// PinnedCursor is implemented by every cursor in this package: LastEpoch
// reports the position epoch the cursor's most recent query executed
// against.
type PinnedCursor = query.PinnedCursor

// SLO-driven serving (DESIGN.md §14): setting Pipeline.TargetLatency
// turns the pipeline into a closed control loop — each writer tick
// compares the sliding p99 of served queries against the target and
// adapts the maintenance budget (primary actuator), the admission window
// (excess queries are shed with an honest QueryTrace instead of queuing
// into the latency distribution), and, under sustained overload, the
// per-query crawl budget (approximate results with honest CrawlCoverage
// instead of missed SLOs; relaxed back to exact once the target holds).
// Setting Pipeline.CacheSize enables the epoch-keyed result cache:
// repeat queries answer bit-equal to fresh execution at a provably valid
// epoch, invalidated by the dirty log every publish appends to (a Mesh's
// or a ShardedMesh's DirtySince).

// SLOStats is the SLO controller's state and counters for one Pipeline
// run — target, sliding p99, the adaptive budget and its clamp range,
// the admission shift and crawl budget, and the tick/overload/
// tightening/relaxation counters. Retrieve it with Pipeline.SLOStats.
type SLOStats = query.SLOStats

// CacheStats is the result cache's counters for one Pipeline run — hits,
// misses, invalidations, flushes and the current epoch floor. Retrieve
// it with Pipeline.CacheStats.
type CacheStats = query.CacheStats

// ResultCache is the epoch-keyed result cache itself, exported for
// standalone (single-writer) use outside a Pipeline: after each publish,
// c.Apply(m.DirtySince(c.Stats().ValidEpoch)) keeps it coherent.
// NewResultCache builds one with the given capacity (<= 0 uses
// DefaultCacheSize).
type ResultCache = query.ResultCache

// NewResultCache builds a standalone result cache.
func NewResultCache(size int) *ResultCache { return query.NewResultCache(size) }

// DefaultCacheSize is the capacity used when ResultCache is built with
// size <= 0.
const DefaultCacheSize = query.DefaultCacheSize

// LatencyStats summarizes trace latencies (mean and the q-quantile),
// excluding shed queries — they were never served.
func LatencyStats(traces []QueryTrace, q float64) (mean, quantile time.Duration) {
	return query.LatencyStats(traces, q)
}

// StalenessStats summarizes trace staleness (mean and max epochs behind).
func StalenessStats(traces []QueryTrace) (mean float64, max uint64) {
	return query.StalenessStats(traces)
}
