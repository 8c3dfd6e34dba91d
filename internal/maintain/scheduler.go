package maintain

import (
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// Options configures a Scheduler.
type Options struct {
	// Budget is the per-tick wall-clock maintenance budget. 0 runs every
	// target's task to completion each tick (unbudgeted incremental
	// maintenance); > 0 slices tasks at the deadline and resumes them
	// next tick, with queries meanwhile answering via the fallback.
	// StepTasks (engines without Incremental) cannot be sliced and may
	// overshoot.
	Budget time.Duration
}

// Scheduler drives budgeted, pressure-aware maintenance over a set of
// targets. One Tick per published deformation step: collect dirty
// regions, rank targets by staleness x query pressure, then run task
// slices — highest priority first, per-target tasks concurrently —
// until the budget's deadline.
//
// It replaces both the pipeline's global maintenance lock (queries now
// take only their target's read lock) and the shard router's internal
// Step serialization (per-shard targets are scheduled like any others,
// so one shard's rebuild never stalls queries to its neighbors).
type Scheduler struct {
	states []*TargetState
	opt    Options
	// base holds each target's counter values at registration: target
	// states may outlive one scheduler (the sharded router keeps its
	// per-shard states across pipeline runs), so Stats reports deltas
	// against this baseline to stay per-run. Keyed by state identity —
	// re-partitioning replaces targets mid-run, so positions are not
	// stable.
	base map[*TargetState]TargetStats
	// retired accumulates the per-run activity of removed targets, so
	// aggregate stats stay continuous across a target-set swap.
	retired TargetStats

	// mu guards states/base/retired mutation against concurrent Stats
	// readers. Tick, Exclusive, Drain and SyncTargets all run on the
	// writer goroutine and need no lock among themselves.
	mu sync.Mutex

	ticks      atomic.Int64
	exclusives atomic.Int64
	maxStale   atomic.Uint64
}

// NewScheduler builds a scheduler over the given target states.
func NewScheduler(states []*TargetState, opt Options) *Scheduler {
	s := &Scheduler{opt: opt, base: make(map[*TargetState]TargetStats)}
	s.SyncTargets(states)
	return s
}

// SetBudget replaces the per-tick maintenance budget for subsequent
// ticks — the SLO controller's primary actuator. Writer goroutine only,
// like Tick; in-flight slices of the current tick are unaffected.
func (s *Scheduler) SetBudget(d time.Duration) { s.opt.Budget = d }

// Budget returns the current per-tick maintenance budget.
func (s *Scheduler) Budget() time.Duration { return s.opt.Budget }

// SyncTargets reconciles the scheduled set with want (the engine's
// current MaintainStates); it is the one target-set mutator. Targets not
// in want are retired, their per-run activity folded into the retired
// accumulator so aggregate stats never go backwards across a swap; new
// ones are registered once, however often want names them. The pipeline
// calls it after every step so a re-partition's replacement targets run
// under the budget from the very next tick. Writer goroutine only.
func (s *Scheduler) SyncTargets(want []*TargetState) {
	s.mu.Lock()
	defer s.mu.Unlock()
	keep := make(map[*TargetState]bool, len(want))
	for _, ts := range want {
		keep[ts] = true
	}
	for i := len(s.states) - 1; i >= 0; i-- {
		ts := s.states[i]
		if keep[ts] {
			continue
		}
		b, t := s.base[ts], ts.stats()
		delete(s.base, ts)
		s.states = append(s.states[:i], s.states[i+1:]...)
		s.retired.SlicesRun += t.SlicesRun - b.SlicesRun
		s.retired.TasksStarted += t.TasksStarted - b.TasksStarted
		s.retired.TasksCompleted += t.TasksCompleted - b.TasksCompleted
		s.retired.FallbackQueries += t.FallbackQueries - b.FallbackQueries
		s.retired.SliceTime += t.SliceTime - b.SliceTime
	}
	for _, ts := range want {
		if _, ok := s.base[ts]; ok {
			continue
		}
		s.states = append(s.states, ts)
		s.base[ts] = ts.stats()
	}
}

// Tick runs one maintenance round. It must be called from the writer
// goroutine (the same one publishing deformation steps): dirty
// collection consumes each mesh's accumulator, which must not race with
// the mesh's own publish path.
func (s *Scheduler) Tick() {
	s.ticks.Add(1)
	work := make([]*TargetState, 0, len(s.states))
	for _, ts := range s.states {
		ts.collect()
		st := ts.staleness()
		ts.staleCache.Store(st)
		if st > s.maxStale.Load() {
			s.maxStale.Store(st)
		}
		if ts.needsWork() {
			work = append(work, ts)
		}
	}
	if len(work) == 0 {
		return
	}
	sort.SliceStable(work, func(i, j int) bool { return work[i].priority() > work[j].priority() })

	var deadline time.Time
	if s.opt.Budget > 0 {
		deadline = time.Now().Add(s.opt.Budget)
	}
	// Up to GOMAXPROCS targets run slices in parallel: a single-engine
	// pipeline has one target, the sharded router one per shard.
	conc := min(runtime.GOMAXPROCS(0), len(work))
	if conc <= 1 {
		for i, ts := range work {
			ts.runSlice(deadline, i == 0)
		}
		return
	}
	// Per-target tasks run concurrently; the shared counter hands out
	// targets in priority order, so when the budget runs dry it is the
	// lowest-priority targets that wait for the next tick. The
	// highest-priority target is always granted one slice (force), so
	// maintenance progresses even when the budget is smaller than a
	// slice.
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < conc; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= len(work) {
					return
				}
				work[i].runSlice(deadline, i == 0)
			}
		}()
	}
	wg.Wait()
}

// Exclusive runs fn with every target's write lock held and every target
// fully drained — in-flight tasks completed, pending dirt applied — the
// hook for rare whole-system mutation (restructuring a cell and feeding
// the SurfaceDelta to the engine) inside a live run. fn therefore
// observes every engine consistent at the head. This is how the pipeline's
// Maintain hook and the router's fine-grained serialization finally
// compose: the hook excludes exactly the queries it must, per target,
// instead of forcing the whole pipeline back onto one global lock — or
// silently disabling the fine-grained path, as the pre-scheduler
// pipeline did whenever a hook was set.
func (s *Scheduler) Exclusive(fn func()) {
	s.exclusives.Add(1)
	s.drain(fn)
}

// Drain drives every target to consistency with the head — in-flight
// tasks completed, pending dirt applied — without running a hook. The
// pipeline calls it at shutdown so no Run ever ends with an epoch-mixed
// index (a later Run would build fresh scheduler state and lose the
// mid-task fallback protection).
func (s *Scheduler) Drain() { s.drain(nil) }

func (s *Scheduler) drain(fn func()) {
	for _, ts := range s.states {
		ts.mu.Lock()
	}
	for _, ts := range s.states {
		ts.drainLocked()
	}
	if fn != nil {
		fn()
	}
	for i := len(s.states) - 1; i >= 0; i-- {
		s.states[i].mu.Unlock()
	}
}

// Stats is a scheduler-wide statistics snapshot.
type Stats struct {
	// Targets is the number of scheduled targets (1 unsharded, K sharded).
	Targets int
	// Ticks counts maintenance rounds (one per published step).
	Ticks int64
	// ExclusiveRuns counts Exclusive sections (Maintain hooks).
	ExclusiveRuns int64
	// SlicesRun / TasksStarted / TasksCompleted aggregate task activity
	// over all targets. SlicesRun > TasksCompleted means budgets really
	// sliced tasks across ticks.
	SlicesRun      int64
	TasksStarted   int64
	TasksCompleted int64
	// FallbackQueries counts queries answered from the position-scan
	// fallback because their target was mid-task.
	FallbackQueries int64
	// SliceTime is the total wall time spent in task slices; with a
	// budget of B over T ticks, SliceTime/(B*T) is budget utilization.
	SliceTime time.Duration
	// MaxStaleness is the largest epoch lag any target showed at a tick
	// boundary over the scheduler's lifetime.
	MaxStaleness uint64
	// PerTarget holds each target's own counters.
	PerTarget []TargetStats
}

// BudgetUtilization returns SliceTime over the total budget granted, or
// 0 when the scheduler is unbudgeted.
func (s Stats) BudgetUtilization(budget time.Duration) float64 {
	if budget <= 0 || s.Ticks == 0 {
		return 0
	}
	return float64(s.SliceTime) / float64(budget*time.Duration(s.Ticks))
}

// Stats snapshots the scheduler's counters. Aggregates include the
// activity of targets retired mid-run (shard migrations replace target
// identities), so totals are continuous across target-set swaps;
// PerTarget lists only the currently registered targets.
func (s *Scheduler) Stats() Stats {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := Stats{
		Targets:       len(s.states),
		Ticks:         s.ticks.Load(),
		ExclusiveRuns: s.exclusives.Load(),
		MaxStaleness:  s.maxStale.Load(),
	}
	out.SlicesRun += s.retired.SlicesRun
	out.TasksStarted += s.retired.TasksStarted
	out.TasksCompleted += s.retired.TasksCompleted
	out.FallbackQueries += s.retired.FallbackQueries
	out.SliceTime += s.retired.SliceTime
	for _, ts := range s.states {
		t := ts.stats()
		b := s.base[ts]
		t.SlicesRun -= b.SlicesRun
		t.TasksStarted -= b.TasksStarted
		t.TasksCompleted -= b.TasksCompleted
		t.FallbackQueries -= b.FallbackQueries
		t.SliceTime -= b.SliceTime
		out.PerTarget = append(out.PerTarget, t)
		out.SlicesRun += t.SlicesRun
		out.TasksStarted += t.TasksStarted
		out.TasksCompleted += t.TasksCompleted
		out.FallbackQueries += t.FallbackQueries
		out.SliceTime += t.SliceTime
	}
	return out
}
