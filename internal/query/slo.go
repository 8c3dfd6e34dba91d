package query

import (
	"math"
	"sort"
	"sync/atomic"
	"time"
)

// SLO controller (DESIGN.md §14): each writer tick compares the sliding
// p99 of recently served queries against Pipeline.TargetLatency and
// adapts the serving knobs the earlier PRs exposed:
//
//   - MaintenanceBudget (primary actuator): the per-tick maintenance
//     slice shrinks multiplicatively while the SLO is missed — trading
//     index freshness (staleness, fallback scans) for query latency —
//     and recovers multiplicatively once it is met.
//   - Admission window: under sustained overload the in-flight query
//     window halves (to a floor of one), shedding excess queries with an
//     honest trace instead of queuing them into the latency distribution.
//   - CrawlBudget (last resort): under sustained overload the per-query
//     crawl budget tightens so queries return approximate results with
//     honest CrawlCoverage instead of missing the SLO outright; it
//     relaxes back to exact execution once the SLO holds again.
//
// The decision logic is deterministic given the observed latencies, so
// tests and the trend-gated slo bench experiment script it directly.

// SLOController implements the control loop. Observe is safe to call
// from any number of query workers; TickDecide must be called from a
// single control goroutine (the pipeline's writer).
type SLOController struct {
	target    time.Duration
	maxBudget time.Duration
	minBudget time.Duration

	// Sliding latency window: a lock-free ring the workers overwrite.
	// Slightly torn reads at the tick boundary only jitter the p99 of a
	// distribution that is itself a moving target — fine for control.
	ring []atomic.Int64
	wpos atomic.Uint64

	// Control state. TickDecide (the single control goroutine) is the
	// only writer; everything Stats snapshots is atomic, because Stats
	// is documented safe from other goroutines — a Maintain hook runs on
	// its own goroutine while the writer keeps ticking, and a plain read
	// there is a real data race even when the torn value would be
	// harmless. overload and cooldown stay plain: they are read and
	// written by the writer only.
	budget     atomic.Int64 // current maintenance budget, ns
	overload   int          // consecutive overloaded ticks (writer only)
	shift      atomic.Int32 // admission window shift: limit = workers >> shift
	crawlMax   atomic.Int64 // current crawl MaxVisited; 0 = exact
	cooldown   int          // ticks until the next crawl adjustment (writer only)
	lastP99    atomic.Int64
	ticks      atomic.Int64
	overTicks  atomic.Int64
	tightening atomic.Int64
	relaxation atomic.Int64
}

// Controller tuning constants. Multiplicative increase/decrease on the
// budget keeps convergence within ~5 ticks over the whole dynamic range;
// the crawl dial moves on a cooldown so each budget holds long enough for
// its effect on the p99 to show before the next move.
const (
	sloRingSize      = 256
	sloOverloadAfter = 4 // consecutive misses before window/crawl act
	sloCrawlCooldown = 8 // ticks between crawl-budget changes
	sloMaxShift      = 6 // admission window floor: workers >> 6 (min 1)
	sloCrawlStart    = 4096
	sloCrawlFloor    = 256
)

// defaultSLOMaxBudget is the adaptive budget ceiling when the pipeline
// has no explicit MaintenanceBudget to inherit.
const defaultSLOMaxBudget = 2 * time.Millisecond

// NewSLOController builds a controller steering toward target (the p99
// SLO). maxBudget is the maintenance-budget ceiling — the value budget
// recovers to when the SLO holds; <= 0 uses defaultSLOMaxBudget.
func NewSLOController(target, maxBudget time.Duration) *SLOController {
	if maxBudget <= 0 {
		maxBudget = defaultSLOMaxBudget
	}
	minBudget := maxBudget / 32
	if minBudget < 20*time.Microsecond {
		minBudget = 20 * time.Microsecond
	}
	if minBudget > maxBudget {
		minBudget = maxBudget
	}
	c := &SLOController{
		target:    target,
		maxBudget: maxBudget,
		minBudget: minBudget,
		ring:      make([]atomic.Int64, sloRingSize),
	}
	c.budget.Store(int64(maxBudget))
	return c
}

// Observe records one served query's latency (shed queries are not
// observations — they were never served). Safe for concurrent use.
func (c *SLOController) Observe(d time.Duration) {
	n := int64(d)
	if n < 1 {
		n = 1 // 0 marks an empty ring slot
	}
	slot := c.wpos.Add(1) - 1
	c.ring[slot%sloRingSize].Store(n)
}

// SLODecision is the outcome of one control tick.
type SLODecision struct {
	// P99 is the sliding 99th-percentile latency the decision steered on
	// (0 when nothing has been observed yet).
	P99 time.Duration
	// Overloaded reports P99 > target this tick.
	Overloaded bool
	// Budget is the maintenance budget to install for the next tick.
	Budget time.Duration
	// WindowShift is the admission window shift: the effective in-flight
	// limit is AdmissionLimit(workers, WindowShift).
	WindowShift int
	// CrawlMaxVisited is the per-query crawl budget (0 = exact);
	// CrawlChanged reports that it differs from the previous tick (the
	// pipeline's workers read it from crawlMax before each query).
	CrawlMaxVisited int64
	CrawlChanged    bool
}

// TickDecide runs one control tick: compute the sliding p99, update the
// actuators, and return what to install. Writer goroutine only.
func (c *SLOController) TickDecide() SLODecision {
	c.ticks.Add(1)
	if c.cooldown > 0 {
		c.cooldown--
	}
	p99 := c.p99()
	c.lastP99.Store(int64(p99))
	dec := SLODecision{P99: p99}
	budget := time.Duration(c.budget.Load())
	crawlMax := c.crawlMax.Load()
	if p99 > c.target {
		dec.Overloaded = true
		c.overTicks.Add(1)
		c.overload++
		budget /= 2
		if budget < c.minBudget {
			budget = c.minBudget
		}
		if c.overload >= sloOverloadAfter {
			if s := c.shift.Load(); s < sloMaxShift {
				c.shift.Store(s + 1)
			}
			if c.cooldown == 0 {
				next := crawlMax / 2
				if crawlMax == 0 {
					next = sloCrawlStart
				}
				if next < sloCrawlFloor {
					next = sloCrawlFloor
				}
				if next != crawlMax {
					crawlMax = next
					c.tightening.Add(1)
					dec.CrawlChanged = true
					c.cooldown = sloCrawlCooldown
				}
			}
		}
	} else {
		c.overload = 0
		budget *= 2
		if budget > c.maxBudget {
			budget = c.maxBudget
		}
		if s := c.shift.Load(); s > 0 {
			c.shift.Store(s - 1)
		}
		if crawlMax > 0 && c.cooldown == 0 {
			next := crawlMax * 4
			if next >= sloCrawlStart {
				next = 0 // back to exact execution
				c.relaxation.Add(1)
			}
			crawlMax = next
			dec.CrawlChanged = true
			c.cooldown = sloCrawlCooldown
		}
	}
	c.budget.Store(int64(budget))
	c.crawlMax.Store(crawlMax)
	dec.Budget = budget
	dec.WindowShift = int(c.shift.Load())
	dec.CrawlMaxVisited = crawlMax
	return dec
}

// p99 computes the nearest-rank 99th percentile over the filled portion
// of the sliding window.
func (c *SLOController) p99() time.Duration {
	n := c.wpos.Load()
	if n > sloRingSize {
		n = sloRingSize
	}
	buf := make([]int64, 0, n)
	for i := uint64(0); i < n; i++ {
		if v := c.ring[i].Load(); v > 0 {
			buf = append(buf, v)
		}
	}
	if len(buf) == 0 {
		return 0
	}
	sort.Slice(buf, func(i, j int) bool { return buf[i] < buf[j] })
	return time.Duration(buf[quantileIndex(len(buf), 0.99)])
}

// WindowShift returns the current admission shift. Safe for concurrent
// use (the pipeline's workers read it per query).
func (c *SLOController) WindowShift() int { return int(c.shift.Load()) }

// AdmissionLimit returns the effective in-flight query limit for a pool
// of `workers` at admission shift `shift`: workers >> shift, floored at
// one so the pipeline always makes progress.
func AdmissionLimit(workers, shift int) int {
	if shift < 0 {
		shift = 0
	}
	if shift > sloMaxShift {
		shift = sloMaxShift
	}
	limit := workers >> shift
	if limit < 1 {
		limit = 1
	}
	return limit
}

// SLOStats is a snapshot of the controller's state and counters, exposed
// through Pipeline.SLOStats.
type SLOStats struct {
	// Target is the p99 SLO steered toward.
	Target time.Duration
	// LastP99 is the sliding p99 at the most recent control tick.
	LastP99 time.Duration
	// Budget is the current adaptive maintenance budget; MinBudget and
	// MaxBudget are its clamp range.
	Budget, MinBudget, MaxBudget time.Duration
	// WindowShift is the current admission shift (0 = full window).
	WindowShift int
	// CrawlMaxVisited is the installed crawl budget (0 = exact).
	CrawlMaxVisited int64
	// Ticks counts control tick decisions; OverloadedTicks those with
	// P99 above target. Tightenings/Relaxations count crawl-budget moves
	// toward approximate / back to exact.
	Ticks, OverloadedTicks   int64
	Tightenings, Relaxations int64
}

// Stats snapshots the controller. Safe for concurrent use: every field
// the writer goroutine mutates is read atomically, so calling it from a
// Maintain hook (or any other goroutine) while TickDecide runs is
// race-clean. Fields read in one snapshot may straddle a tick boundary —
// fine for reporting, where each counter is individually current.
func (c *SLOController) Stats() SLOStats {
	return SLOStats{
		Target:          c.target,
		LastP99:         time.Duration(c.lastP99.Load()),
		Budget:          time.Duration(c.budget.Load()),
		MinBudget:       c.minBudget,
		MaxBudget:       c.maxBudget,
		WindowShift:     int(c.shift.Load()),
		CrawlMaxVisited: c.crawlMax.Load(),
		Ticks:           c.ticks.Load(),
		OverloadedTicks: c.overTicks.Load(),
		Tightenings:     c.tightening.Load(),
		Relaxations:     c.relaxation.Load(),
	}
}

// quantileIndex returns the index of the nearest-rank q-quantile over n
// ascending-sorted samples: the smallest index i such that (i+1)/n >= q,
// i.e. ceil(q*n)-1 clamped to [0, n-1]. Unlike the ceil(q*(n-1)) form it
// replaces, small samples are not biased high: the median of two samples
// is the lower one, and p99 of 100 samples is the 99th, not the maximum.
func quantileIndex(n int, q float64) int {
	if n <= 0 {
		return 0
	}
	rank := int(math.Ceil(q * float64(n)))
	if rank < 1 {
		rank = 1
	}
	if rank > n {
		rank = n
	}
	return rank - 1
}
