package query

import (
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"octopus/internal/geom"
	"octopus/internal/maintain"
	"octopus/internal/mesh"
)

// DeformableMesh is the dataset surface the pipeline's writer needs: an
// epoch-versioned position store that applies one whole-mesh update per
// step and reports the published epoch. *mesh.Mesh implements it
// directly; shard.Mesh implements it over a whole partition, publishing
// every shard in lockstep.
type DeformableMesh interface {
	// Deform applies one step: fn mutates pos (pre-loaded with the
	// current state) in place, and the new state is published atomically.
	Deform(fn func(pos []geom.Vec3))
	// Epoch returns the number of published deformation steps.
	Epoch() uint64
}

// pinnedMesh is the pinned-snapshot side of a position store: what a
// ScanCursor reads through, and the optional side of a DeformableMesh the
// pipeline's mid-maintenance fallback needs (*mesh.Mesh implements it;
// the sharded mesh handles its fallback inside the router instead).
type pinnedMesh interface {
	PinPositions() (uint64, []geom.Vec3)
	UnpinPositions(uint64)
}

// dirtyLogger is the optional side of a DeformableMesh that keeps a dirty
// log (*mesh.Mesh, shard.Mesh): the result cache's feed.
type dirtyLogger interface {
	DirtySince(from uint64) mesh.DirtySince
}

// Pipeline overlaps mesh deformation with query execution — the live mode
// the paper's alternating update/monitor loop cannot express. A writer
// goroutine advances the simulation through Mesh.Deform (double-buffered
// position publish, one epoch per step) while a pool of query workers
// drains range and kNN queries through per-goroutine cursors. Each cursor
// pins a position epoch for the duration of its query, so every result
// set is internally consistent — exactly equal to brute force at the
// pinned epoch — no matter how many steps the writer publishes while the
// query runs.
//
// Index maintenance is owned by a maintain.Scheduler (DESIGN.md §11):
// after each published step the writer runs one scheduler tick, which
// collects the mesh's dirty regions and drives each maintenance target —
// the engine itself, or one target per shard for engines implementing
// maintain.StateProvider, like the sharded router — through resumable
// maintenance tasks under per-target locks. Queries take only their
// target's read lock, so for the OCTOPUS family (nil tasks) they never
// wait, one shard's rebuild stalls only the queries fanning out to it,
// and with a MaintenanceBudget even a rebuild-heavy engine stalls
// queries for at most one slice: a query that lands mid-task answers
// through the worker's ScanCursor — a scan of the pinned head positions —
// instead of the half-updated index: exact at the head epoch, never a torn
// mix. Whichever cursor answered, the query's trace and the cache fill
// (ResultCache.KeepRange/KeepKNN) are read from that one cursor.
//
// The Maintain hook runs through Scheduler.Exclusive: every target's
// write lock, in-flight tasks completed first. That composes the hook
// with fine-grained (per-shard) serialization instead of silently
// disabling it, which is what the pre-scheduler pipeline did.
type Pipeline struct {
	// Engine answers the queries; every engine constructor in this
	// repository returns a suitable ParallelKNNEngine.
	Engine ParallelKNNEngine
	// Mesh is the dataset being deformed; its dirty regions (recorded by
	// every publish) feed the maintenance scheduler, and its dirty log
	// the result cache. *mesh.Mesh is the single-mesh case; shard.Mesh
	// drives a whole partition in lockstep.
	Mesh DeformableMesh
	// Deform applies one simulation step's in-place update to pos (which
	// is the back buffer, pre-loaded with the current positions). It runs
	// on the writer goroutine through Mesh.Deform; sim.Deformer.Step
	// satisfies it directly.
	Deform func(step int, pos []geom.Vec3)
	// Tick is the minimum interval between deformation steps. 0 steps
	// continuously — the most hostile schedule for the query side.
	Tick time.Duration
	// Workers is the query pool size; <= 0 uses GOMAXPROCS.
	Workers int
	// MinSteps keeps the writer running until at least this many steps
	// have been published, even if the queries drain first — tests use it
	// to guarantee genuine overlap.
	MinSteps int
	// MaxSteps, when > 0, stops the writer after that many steps even if
	// queries are still in flight (they continue on the frozen mesh).
	MaxSteps int
	// Maintain, when non-nil, runs after the maintenance tick each writer
	// step, inside Scheduler.Exclusive (every target's write lock held,
	// no task mid-flight — no queries are in flight on any target). It
	// is the hook for rare exclusive work inside a live run, such as
	// restructuring: SplitCell/DeleteCell on the mesh, which maintains
	// the core engines' surface index and component labels itself, so
	// the hook forwards nothing to the engine.
	Maintain func(step int)

	// MaintenanceBudget is the per-tick wall-clock maintenance budget.
	// 0 (the default) runs each tick's maintenance to completion —
	// still incremental and localized where the engine supports it, but
	// never deferred. > 0 slices maintenance tasks at the deadline and
	// resumes them on later ticks, bounding the maintenance-induced
	// query stall to roughly one slice.
	MaintenanceBudget time.Duration

	// TargetLatency, when > 0, is the p99 latency SLO and turns the
	// pipeline into a controlled serving loop (DESIGN.md §14): each tick
	// an SLOController compares the sliding p99 of served queries
	// against it and adapts the maintenance budget (between
	// MaintenanceBudget — or a 2ms default when unset — and 1/32 of it),
	// the admission window, and, under sustained overload, the crawl
	// budget of every worker's cursor, serving approximate results with
	// honest CrawlCoverage instead of queuing. The budget lives on the
	// run's cursors only, so the engine is exact again after Run. When an
	// admission window is full, excess queries are shed — their trace
	// has Shed set, their result slice is nil — rather than queued into
	// the latency distribution.
	TargetLatency time.Duration
	// CacheSize, when > 0, enables the epoch-keyed result cache with
	// that entry capacity (see ResultCache): answers the cache's fill rule
	// admits are replayed for repeated queries until a dirty-region AABB
	// intersects their query box or kNN ball. Cache hits are exact — the
	// trace reports the epoch the cached result is provably equal to
	// fresh execution at, and Cached is set. Requires a Mesh that keeps
	// a dirty log (DirtySince, like *mesh.Mesh and shard.Mesh); otherwise
	// the cache stays disabled. Only exact answers are cached: the fill
	// rule (ResultCache.KeepRange/KeepKNN) refuses an answer whose cursor
	// reports an error or a crawl truncated by a budget.
	CacheSize int

	// sched is the scheduler of the most recent Run, kept for stats.
	sched *maintain.Scheduler
	// ctl/cache are the SLO controller and result cache of the most
	// recent Run, kept for stats.
	ctl   *SLOController
	cache *ResultCache
}

// SchedulerStats returns the maintenance scheduler's statistics for the
// most recent (or in-flight) Run: slices, tasks, fallback queries,
// budget use, max staleness. The zero Stats is returned before any Run.
func (p *Pipeline) SchedulerStats() maintain.Stats {
	if p.sched == nil {
		return maintain.Stats{}
	}
	return p.sched.Stats()
}

// SLOStats returns the SLO controller's state for the most recent (or
// in-flight) Run; the zero SLOStats when TargetLatency was not set.
func (p *Pipeline) SLOStats() SLOStats {
	if p.ctl == nil {
		return SLOStats{}
	}
	return p.ctl.Stats()
}

// CacheStats returns the result cache's counters for the most recent (or
// in-flight) Run; the zero CacheStats when the cache was not enabled.
func (p *Pipeline) CacheStats() CacheStats {
	if p.cache == nil {
		return CacheStats{}
	}
	return p.cache.Stats()
}

// QueryTrace is the per-query record of a pipeline run.
type QueryTrace struct {
	// Latency is the query's execution time, including any wait for the
	// maintenance lock (maintenance cost is charged to query response
	// time, as in the paper's accounting).
	Latency time.Duration
	// Epoch is the position epoch the result set is consistent with —
	// the answering cursor's LastEpoch: the epoch it pinned (the
	// mid-maintenance fallback scan included), or the engine's
	// last-maintenance epoch for engines that answer from an internal
	// snapshot.
	Epoch uint64
	// HeadEpoch is the mesh's published epoch when the query completed.
	HeadEpoch uint64
	// Coverage is the crawl coverage of the query under the engine's
	// CrawlBudget — the zero value for exact execution, for engines
	// without a crawl phase, and for mid-maintenance fallback scans
	// (which are always exact).
	Coverage CrawlCoverage
	// Cached reports the result was served from the result cache; Epoch
	// is then the epoch the cached result is provably exact at.
	Cached bool
	// Shed reports the query was refused by admission control (the
	// in-flight window was full under an SLO overload): the result slice
	// is nil and Latency is only the shed decision time. Shed queries
	// are not latency observations — they were never served.
	Shed bool
	// Err is the query's failure when the engine can fail per query (a
	// remote engine with an unreachable shard or persistent epoch skew —
	// see ErrorReporter). The result slice is then empty and must not be
	// read as an exact empty answer; such results are never cached.
	Err error
}

// Staleness returns how many epochs behind the simulation head the
// query's answer was at completion — 0 means the result reflected the
// newest published state.
func (t QueryTrace) Staleness() uint64 {
	if t.HeadEpoch < t.Epoch {
		return 0
	}
	return t.HeadEpoch - t.Epoch
}

// PipelineReport is the outcome of one Pipeline.Run.
type PipelineReport struct {
	// RangeResults[i] answers the i-th range query; KNNResults[i] answers
	// the i-th probe, nearest first.
	RangeResults [][]int32
	KNNResults   [][]int32
	// RangeTraces/KNNTraces align with the result slices.
	RangeTraces []QueryTrace
	KNNTraces   []QueryTrace
	// Steps is the number of deformation steps the writer published
	// during the run; Wall is the serving run time — from start until
	// the writer and every query finished. The post-run maintenance
	// drain is deliberately excluded (it is shutdown cost, not serving
	// cost) and reported as DrainWall; the pre-fix accounting folded it
	// into Wall, skewing every throughput-derived bench number for
	// budget-sliced runs whose last task drains at exit.
	Steps     int
	Wall      time.Duration
	DrainWall time.Duration
	// Sheds counts queries refused by admission control (traces with
	// Shed set).
	Sheds int64
	// Degraded counts queries that failed honestly (traces with Err set).
	Degraded int64
}

// Traces returns all traces (range then kNN).
func (r *PipelineReport) Traces() []QueryTrace {
	out := make([]QueryTrace, 0, len(r.RangeTraces)+len(r.KNNTraces))
	out = append(out, r.RangeTraces...)
	out = append(out, r.KNNTraces...)
	return out
}

// LatencyStats summarizes trace latencies: mean and the given quantile
// (e.g. 0.99), using the nearest-rank definition (see quantileIndex).
// Shed traces are excluded — their latency is a refusal, not a service
// time, and counting them would flatter every percentile.
func LatencyStats(traces []QueryTrace, q float64) (mean, quantile time.Duration) {
	lats := make([]time.Duration, 0, len(traces))
	var sum time.Duration
	for _, t := range traces {
		if t.Shed {
			continue
		}
		lats = append(lats, t.Latency)
		sum += t.Latency
	}
	if len(lats) == 0 {
		return 0, 0
	}
	sort.Slice(lats, func(i, j int) bool { return lats[i] < lats[j] })
	return sum / time.Duration(len(lats)), lats[quantileIndex(len(lats), q)]
}

// StalenessStats summarizes trace staleness: mean and maximum epochs
// behind head.
func StalenessStats(traces []QueryTrace) (mean float64, maxS uint64) {
	if len(traces) == 0 {
		return 0, 0
	}
	var sum uint64
	for _, t := range traces {
		s := t.Staleness()
		sum += s
		if s > maxS {
			maxS = s
		}
	}
	return float64(sum) / float64(len(traces)), maxS
}

// maintainStates resolves the pipeline's maintenance targets: the
// engine's own per-shard states when it is a maintain.StateProvider (the
// sharded router — its cursors already take those states' read locks),
// else one state wrapping the whole engine, whose read lock the
// pipeline's workers take around every query.
func (p *Pipeline) maintainStates() (states []*maintain.TargetState, single *maintain.TargetState) {
	if sp, ok := p.Engine.(maintain.StateProvider); ok {
		return sp.MaintainStates(), nil
	}
	dm, _ := p.Mesh.(maintain.DirtyMesh)
	if _, ok := p.Mesh.(pinnedMesh); !ok {
		// Budget slicing requires the fallback scan, and the fallback
		// scan requires pinned snapshots: without them the target runs
		// unbudgeted (a nil Mesh tells the scheduler exactly that).
		dm = nil
	}
	single = maintain.NewTargetState(maintain.Target{
		Name:   p.Engine.Name(),
		Engine: p.Engine,
		Mesh:   dm,
	})
	return []*maintain.TargetState{single}, single
}

// Run executes the pipeline: it starts the writer, drains all queries
// through the worker pool, then stops the writer (after MinSteps) and
// returns the report. Cursor statistics are merged into the engine after
// the pool drains, like ExecuteBatch. The first tick hands the scheduler
// whatever dirt the mesh recorded before Run (maintaining an engine that
// was already current is redundant, never wrong). Run is not reentrant —
// one Run per Pipeline at a time —
// but the Pipeline may be Run repeatedly; epochs continue from the
// previous run's head.
func (p *Pipeline) Run(queries []geom.AABB, probes []KNNQuery) *PipelineReport {
	states, single := p.maintainStates()

	// SLO controller: owns the maintenance budget (and, under sustained
	// overload, the admission window and crawl budget) for the run.
	var ctl *SLOController
	if p.TargetLatency > 0 {
		ctl = NewSLOController(p.TargetLatency, p.MaintenanceBudget)
	}
	p.ctl = ctl
	budget := p.MaintenanceBudget
	if ctl != nil {
		budget = ctl.Stats().Budget
	}
	sched := maintain.NewScheduler(states, maintain.Options{Budget: budget})
	p.sched = sched

	// Live re-partitioning (a Deform after restructuring) replaces a
	// StateProvider's per-shard targets; syncTargets reconciles the
	// scheduler's set after every Deform so replacement targets run their
	// rebuild tasks under the budget from the very next tick.
	sp, _ := p.Engine.(maintain.StateProvider)
	syncTargets := func() {
		if sp != nil {
			sched.SyncTargets(sp.MaintainStates())
		}
	}

	// Result cache: enabled when the mesh keeps a dirty log, which the
	// writer reads after every step. It starts valid at the head: empty,
	// it has nothing to invalidate before it.
	var cache *ResultCache
	dl, _ := p.Mesh.(dirtyLogger)
	if p.CacheSize > 0 && dl != nil {
		cache = NewResultCache(p.CacheSize)
		cache.Apply(dl.DirtySince(p.Mesh.Epoch()))
	}
	p.cache = cache

	report := &PipelineReport{
		RangeResults: make([][]int32, len(queries)),
		KNNResults:   make([][]int32, len(probes)),
		RangeTraces:  make([]QueryTrace, len(queries)),
		KNNTraces:    make([]QueryTrace, len(probes)),
	}
	start := time.Now()

	workers := p.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if n := len(queries) + len(probes); workers > n {
		workers = n
	}

	drained := make(chan struct{})
	writerDone := make(chan struct{})
	steps := 0
	go func() {
		defer close(writerDone)
		for step := 0; ; step++ {
			if p.MaxSteps > 0 && step >= p.MaxSteps {
				return
			}
			if step >= p.MinSteps {
				select {
				case <-drained:
					return
				default:
				}
			}
			p.Mesh.Deform(func(pos []geom.Vec3) { p.Deform(step, pos) })
			syncTargets()
			sched.Tick()
			if cache != nil {
				cache.Apply(dl.DirtySince(cache.Stats().ValidEpoch))
			}
			if ctl != nil {
				dec := ctl.TickDecide()
				sched.SetBudget(dec.Budget)
			}
			if p.Maintain != nil {
				sched.Exclusive(func() { p.Maintain(step) })
			}
			steps = step + 1
			if p.Tick > 0 {
				timer := time.NewTimer(p.Tick)
				select {
				case <-drained:
					timer.Stop()
					if steps >= p.MinSteps {
						return
					}
				case <-timer.C:
				}
			}
		}
	}()

	if workers > 0 {
		pm, _ := p.Mesh.(pinnedMesh)
		var next atomic.Int64
		var inflight atomic.Int64
		var sheds atomic.Int64
		var degraded atomic.Int64
		var wg sync.WaitGroup
		cursors := make([]Cursor, workers)
		total := len(queries) + len(probes)
		for w := range cursors {
			cursors[w] = p.Engine.NewCursor()
			// The mid-maintenance fallback: a scan of the pinned head
			// positions, exact at the head epoch and typically cheaper than
			// waiting out the rest of the engine's task.
			var scan Cursor
			if single != nil && pm != nil {
				scan = NewScanCursor(pm)
			}
			wg.Add(1)
			go func(engCur, scan Cursor) {
				defer wg.Done()
				// The controller's crawl budget is cursor state: the
				// worker hands each change to its own cursor before the
				// next engine query, so no query ever sees another's.
				budgeted, _ := engCur.(BudgetedCursor)
				crawlMax := int64(0)
				for {
					i := int(next.Add(1)) - 1
					if i >= total {
						return
					}
					// The timer starts before the maintenance lock is
					// taken: waiting out a rebuild slice is charged to
					// the query's latency, exactly as the paper charges
					// maintenance to query response time. (The
					// pre-scheduler pipeline started timing after the
					// lock, silently hiding every maintenance stall from
					// the latency distribution.)
					t0 := time.Now()
					var trace QueryTrace
					var res []int32

					// Cache fast path: a hit replays an exact result and
					// bypasses both the engine and admission (it holds no
					// engine resources to shed).
					if cache != nil {
						var epoch uint64
						var hit bool
						if i < len(queries) {
							res, epoch, hit = cache.GetRange(queries[i])
						} else {
							q := probes[i-len(queries)]
							res, epoch, hit = cache.GetKNN(q.P, q.K)
						}
						if hit {
							trace.Cached = true
							trace.Epoch = epoch
							trace.Latency = time.Since(t0)
							trace.HeadEpoch = p.Mesh.Epoch()
							if ctl != nil {
								ctl.Observe(trace.Latency)
							}
							p.record(report, i, len(queries), res, trace)
							continue
						}
						res = nil
					}

					// Admission control: under an SLO the in-flight window
					// is workers >> shift; a query that would exceed it is
					// shed with an honest trace instead of queued.
					if ctl != nil {
						limit := int64(AdmissionLimit(workers, ctl.WindowShift()))
						if inflight.Add(1) > limit {
							inflight.Add(-1)
							sheds.Add(1)
							trace.Shed = true
							trace.Latency = time.Since(t0)
							trace.HeadEpoch = p.Mesh.Epoch()
							p.record(report, i, len(queries), nil, trace)
							continue
						}
					}
					// Pick the cursor that answers — the scan while the
					// engine's index is mid-maintenance-slice, else the
					// engine's — and read everything about the answer from
					// it alone.
					cur := engCur
					if single != nil && single.BeginQuery() && scan != nil {
						cur = scan
					}
					if ctl != nil && budgeted != nil {
						if mv := ctl.crawlMax.Load(); mv != crawlMax {
							crawlMax = mv
							budgeted.SetBudget(CrawlBudget{MaxVisited: mv})
						}
					}
					if i < len(queries) {
						res = cur.Query(queries[i], nil)
					} else {
						q := probes[i-len(queries)]
						res = cur.KNN(q.P, q.K, nil)
					}
					trace.Latency = time.Since(t0)
					trace.Epoch = cur.LastEpoch()
					if cr, ok := cur.(CoverageReporter); ok {
						trace.Coverage = cr.LastCoverage()
					}
					if er, ok := cur.(ErrorReporter); ok {
						if err := er.LastError(); err != nil {
							// Honest degraded trace: the (empty) result is a
							// failure, not an exact answer.
							trace.Err = err
							degraded.Add(1)
						}
					}
					trace.HeadEpoch = p.Mesh.Epoch()
					if single != nil {
						single.EndQuery()
					}
					if ctl != nil {
						inflight.Add(-1)
						ctl.Observe(trace.Latency)
					}
					if cache != nil {
						if i < len(queries) {
							cache.KeepRange(queries[i], cur, res)
						} else {
							q := probes[i-len(queries)]
							cache.KeepKNN(q.P, q.K, cur, res)
						}
					}
					p.record(report, i, len(queries), res, trace)
				}
			}(cursors[w], scan)
		}
		wg.Wait()
		for _, cur := range cursors {
			cur.Close()
		}
		report.Sheds = sheds.Load()
		report.Degraded = degraded.Load()
	}
	close(drained)
	<-writerDone

	// The serving run is over: stamp Wall before the shutdown drain so
	// throughput numbers measure serving, not teardown.
	report.Steps = steps
	report.Wall = time.Since(start)

	// Drain any maintenance task a budget left mid-flight: Run must not
	// return with an epoch-mixed index. A later Run builds fresh
	// scheduler state (and a sharded router's targets persist), so an
	// undrained task would lose its mid-task fallback protection; after
	// the drain every engine is consistent with the head, which is also
	// what any post-Run stop-the-world caller expects. Sync first: a
	// Maintain hook that published may have swapped targets after the
	// writer's last sync, and the drain must cover the replacements (the
	// writer has exited, so this goroutine is the sole target mutator
	// now).
	drainStart := time.Now()
	syncTargets()
	sched.Drain()
	report.DrainWall = time.Since(drainStart)
	return report
}

// record stores one query's result and trace into the report.
func (p *Pipeline) record(report *PipelineReport, i, nRange int, res []int32, trace QueryTrace) {
	if i < nRange {
		report.RangeResults[i] = res
		report.RangeTraces[i] = trace
	} else {
		report.KNNResults[i-nRange] = res
		report.KNNTraces[i-nRange] = trace
	}
}
