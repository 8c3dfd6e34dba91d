package maintain

import (
	"sync"
	"sync/atomic"
	"time"

	"octopus/internal/mesh"
)

// TargetState is the scheduler-side state of one maintained target: the
// per-target maintenance lock (replacing both the pipeline's global
// maintMu and the shard router's ad-hoc per-shard mutexes), the
// accumulated dirty region, the in-flight task, and the pressure
// counters that feed priority.
//
// Two sides use it: the scheduler runs task slices under the write lock
// (runSlice), and the query path brackets every query touching the
// target with BeginQuery/EndQuery — the read lock plus the
// mid-maintenance fallback signal.
type TargetState struct {
	t   Target
	inc Incremental   // t.Engine's localized path, nil when absent
	rep EpochReporter // t.Engine's answer-epoch, nil when absent

	mu sync.RWMutex
	// Guarded by mu:
	pending      mesh.DirtyRegion // dirty accumulated since the last task
	havePending  bool
	task         Task // in-flight task, nil when none
	inconsistent bool // mid-task: queries must use the fallback

	// Pressure: queries observed since the last tick, decayed into an
	// EMA at collect time (FanoutStats-style atomic counters — the
	// sharded router's cursors bump them once per shard fanned out to).
	pressure atomic.Int64
	ema      int64 // writer-goroutine only (updated during collect)

	// staleCache mirrors staleness() as of the last tick so Stats never
	// needs the target lock — in particular, a Maintain hook may call
	// Pipeline.SchedulerStats while Exclusive holds every write lock.
	staleCache atomic.Uint64

	// Statistics (atomic: slices may run concurrently across targets).
	slices     atomic.Int64
	started    atomic.Int64
	completed  atomic.Int64
	fallbacks  atomic.Int64
	sliceNanos atomic.Int64
}

// NewTargetState wraps a target for scheduling. The engine's Incremental
// and EpochReporter capabilities are discovered here once.
func NewTargetState(t Target) *TargetState {
	ts := &TargetState{t: t}
	ts.inc, _ = t.Engine.(Incremental)
	ts.rep, _ = t.Engine.(EpochReporter)
	return ts
}

// NewRebuildState wraps a target whose engine does not exist yet: a
// pre-installed task constructs it via build on first run. Until
// then the target reports inconsistent, so every query answers through
// the pinned-head position-scan fallback — exact, just index-less. The
// sharded router uses this to model a shard migration: the re-partition
// swap installs a rebuild state per touched shard, and the engine
// construction runs under the scheduler's wall budget like any other
// maintenance task (engine construction is one indivisible slice, like a
// monolithic StepTask; the budget spreads a multi-shard migration across
// ticks, highest-pressure shards first).
func NewRebuildState(name string, m DirtyMesh, build func() Stepper) *TargetState {
	ts := &TargetState{t: Target{Name: name, Mesh: m}}
	ts.inconsistent = true
	ts.task = &rebuildTask{ts: ts, build: build}
	ts.started.Add(1)
	return ts
}

// rebuildTask constructs a target's engine and rewires the state's
// capability interfaces to it. It always runs under the state's write
// lock (runSlice or drainLocked), which makes the field writes safe.
type rebuildTask struct {
	ts    *TargetState
	build func() Stepper
}

func (t *rebuildTask) Run(time.Duration) bool {
	e := t.build()
	t.ts.t.Engine = e
	t.ts.inc, _ = e.(Incremental)
	t.ts.rep, _ = e.(EpochReporter)
	return true
}

// Name returns the target's label.
func (ts *TargetState) Name() string { return ts.t.Name }

// PressureEMA returns the target's decayed query-pressure average as of
// the last collect. Writer goroutine only (the same one calling Tick) —
// a shard's successor target reads it at a re-partition to inherit it
// (SeedPressure).
func (ts *TargetState) PressureEMA() int64 { return ts.ema }

// SeedPressure initializes the pressure EMA — a replacement target
// (shard migration) inherits its predecessor's, so a hot shard's rebuild
// keeps its scheduling priority. Writer goroutine only, like PressureEMA.
func (ts *TargetState) SeedPressure(ema int64) { ts.ema = ema }

// BeginQuery enters a query against this target: it counts pressure,
// takes the maintenance read lock, and reports whether the target's
// index is mid-task — in which case the caller must answer from a
// position scan (the fallback) instead of the index, and the query is
// counted as a fallback. EndQuery releases the lock.
func (ts *TargetState) BeginQuery() (fallback bool) {
	ts.pressure.Add(1)
	ts.mu.RLock()
	if ts.inconsistent {
		ts.fallbacks.Add(1)
		return true
	}
	return false
}

// EndQuery exits a query entered with BeginQuery.
func (ts *TargetState) EndQuery() { ts.mu.RUnlock() }

// ToHead brings the target to the mesh head: the mesh's accumulated dirt
// is folded in, then under the write lock the in-flight task is finished
// and fresh tasks run until the engine needs nothing. It is
// Scheduler.Drain for one target — the stop-the-world callers (the shard
// router's Step, a shard server's maintain RPC) have no scheduler. Writer
// goroutine only.
func (ts *TargetState) ToHead() {
	ts.takeDirt()
	ts.mu.Lock()
	defer ts.mu.Unlock()
	ts.drainLocked()
}

// drainLocked drives the target fully up to date: the in-flight task to
// completion, then any pending dirt through fresh tasks until nothing is
// left. Caller holds mu.
func (ts *TargetState) drainLocked() {
	rounds := 0
	for {
		if ts.task == nil {
			ts.task = ts.makeTaskLocked()
			if ts.task == nil {
				return
			}
			ts.started.Add(1)
			rounds++
		}
		t0 := time.Now()
		ts.task.Run(0)
		ts.sliceNanos.Add(time.Since(t0).Nanoseconds())
		ts.slices.Add(1)
		ts.completed.Add(1)
		ts.task = nil
		ts.inconsistent = false
		// An engine that cannot report its answer epoch gives
		// makeTaskLocked no way to detect consistency (it would hand out
		// a StepTask every round, forever); one completed monolithic
		// Step reaches the head by definition, so one fresh round is
		// enough — and a hard cap backstops any future epoch-reporting
		// engine whose Step fails to catch up.
		if ts.rep == nil || rounds >= 4 {
			return
		}
	}
}

// collect decays the pressure counter and takes the mesh's dirt. Writer
// goroutine only.
func (ts *TargetState) collect() {
	ts.ema = ts.ema/2 + ts.pressure.Swap(0)
	ts.takeDirt()
}

// takeDirt folds the mesh's freshly taken dirty region into the pending
// accumulator. Writer goroutine only.
func (ts *TargetState) takeDirt() {
	if ts.t.Mesh == nil {
		return
	}
	d := ts.t.Mesh.TakeDirty()
	if d.Empty() {
		return
	}
	ts.mu.Lock()
	if ts.havePending {
		ts.pending.Merge(d)
	} else {
		ts.pending = d
		ts.havePending = true
	}
	ts.mu.Unlock()
}

// staleness returns how many epochs the target's consistent answer state
// lags the mesh head — the first priority factor. Targets without an
// epoch-reporting engine (the OCTOPUS family pins per query) are never
// stale. Writer goroutine only (reads AnswerEpoch between slices).
func (ts *TargetState) staleness() uint64 {
	if ts.rep == nil || ts.t.Mesh == nil {
		return 0
	}
	head := ts.t.Mesh.Epoch()
	ts.mu.RLock()
	ans := ts.rep.AnswerEpoch()
	ts.mu.RUnlock()
	if ans >= head {
		return 0
	}
	return head - ans
}

// priority orders targets for slicing: staleness x observed query
// pressure, both offset so an idle-but-stale and a hot-but-fresh target
// each still rank above a target with nothing going on.
func (ts *TargetState) priority() float64 {
	return float64(ts.staleness()+1) * float64(ts.ema+1)
}

// needsWork reports whether the target has anything to run this tick.
func (ts *TargetState) needsWork() bool {
	ts.mu.RLock()
	defer ts.mu.RUnlock()
	if ts.task != nil || ts.havePending {
		return true
	}
	if ts.rep != nil {
		if ts.t.Mesh == nil {
			// No dirty source to compare the answer epoch against: let
			// the engine decide every tick (BeginMaintenance returns nil
			// cheaply when it is already consistent with its own mesh).
			return true
		}
		return ts.rep.AnswerEpoch() != ts.t.Mesh.Epoch()
	}
	if ts.inc != nil {
		// Localized engines decide for themselves in BeginMaintenance;
		// with no pending dirt there is nothing to ask about.
		return false
	}
	// No interface at all: conservatively Step once per tick (covers
	// engines whose Step is not a no-op but which report no epoch).
	return true
}

// runSlice creates the target's task if needed and runs one slice toward
// the deadline. Targets without a mesh ignore the deadline (no dirty
// source means no fallback, so a task must never be left mid-flight).
// force guarantees one minimal slice even past the deadline — the
// scheduler grants it to the highest-priority target so maintenance
// always progresses, no matter how small the budget.
func (ts *TargetState) runSlice(deadline time.Time, force bool) {
	ts.mu.Lock()
	defer ts.mu.Unlock()
	if ts.task == nil {
		ts.task = ts.makeTaskLocked()
		if ts.task == nil {
			return
		}
		ts.started.Add(1)
	}
	budget := time.Duration(0)
	if !deadline.IsZero() && ts.t.Mesh != nil {
		budget = time.Until(deadline)
		if budget <= 0 {
			if !force {
				// Out of budget before this tick's slicing reached the
				// target; it stays queued for the next tick.
				return
			}
			budget = 1 // minimal: one stride of work
		}
	}
	ts.inconsistent = true
	t0 := time.Now()
	done := ts.task.Run(budget)
	ts.sliceNanos.Add(time.Since(t0).Nanoseconds())
	ts.slices.Add(1)
	if done {
		ts.task = nil
		ts.inconsistent = false
		ts.completed.Add(1)
	}
}

// makeTaskLocked consumes the pending dirty region and builds the next
// task, or returns nil when the engine needs nothing. Caller holds mu.
func (ts *TargetState) makeTaskLocked() Task {
	d := ts.pending
	ts.pending = mesh.DirtyRegion{}
	ts.havePending = false
	if ts.inc == nil {
		if ts.rep != nil && ts.t.Mesh != nil && ts.rep.AnswerEpoch() == ts.t.Mesh.Epoch() {
			return nil
		}
		return StepTask(ts.t.Engine)
	}
	return ts.inc.BeginMaintenance(d)
}

// TargetStats is one target's scheduler statistics.
type TargetStats struct {
	Name           string
	SlicesRun      int64
	TasksStarted   int64
	TasksCompleted int64
	// FallbackQueries counts queries that arrived mid-task and answered
	// from the position-scan fallback instead of the index.
	FallbackQueries int64
	// SliceTime is the total wall time spent running this target's
	// slices.
	SliceTime time.Duration
	// Staleness is the target's epoch lag at the last stats snapshot.
	Staleness uint64
}

// stats snapshots the target's counters. Lock-free by design (the
// staleness is the cached last-tick value), so it is safe from inside
// Scheduler.Exclusive sections.
func (ts *TargetState) stats() TargetStats {
	return TargetStats{
		Name:            ts.t.Name,
		SlicesRun:       ts.slices.Load(),
		TasksStarted:    ts.started.Load(),
		TasksCompleted:  ts.completed.Load(),
		FallbackQueries: ts.fallbacks.Load(),
		SliceTime:       time.Duration(ts.sliceNanos.Load()),
		Staleness:       ts.staleCache.Load(),
	}
}
