package shard

import (
	"fmt"

	"octopus/internal/geom"
	"octopus/internal/maintain"
	"octopus/internal/mesh"
	"octopus/internal/query"
)

// Router executes queries across the shards of a Mesh, one inner engine
// per shard. It implements query.ParallelKNNEngine through Cursors, each
// a Fanout over in-process legs: what happens inside one shard — the owned
// filter, the widening loop, the owned-scan fallback — is Exec's, the
// fan-out plan, merge and kNN pruning are Fanout's, and the router
// supplies what is local to this tier: the executors, the coherence gate
// and per-shard maintenance.
//
// Each shard is one maintenance target (maintain.TargetState): queries
// take only the read locks of the shards they fan out to, so one shard's
// maintenance stalls just the queries that need it — on a single mesh it
// stalls all of them. Router implements maintain.StateProvider, so a
// Pipeline's scheduler drives the per-shard targets directly (budgeted,
// priority-ordered, concurrently); Step below is the paper's alternating
// loop on the same path — publish, then every target to the head.
type Router struct {
	sm      *Mesh
	factory func(*mesh.Mesh) query.ParallelKNNEngine

	// execs[s] is shard s's executor. Its target's lock serializes the
	// shard's index maintenance against the queries fanned out to it,
	// and its counters feed the scheduler's pressure priority. Entries
	// are replaced on re-partition (under the coherence gate's write
	// side); the slice header never changes.
	execs []*Exec

	// sinceRebalance counts PostTicks since the last pressure
	// rebalance; writer goroutine only.
	sinceRebalance int

	name     string
	resident *Cursor
	guard    query.ResidentGuard

	// n is what every cursor of the router counts into.
	n FanoutCounters
}

// NewRouter builds one inner engine per shard with factory and returns
// the cross-shard router. Construction cost is the sharded equivalent of
// single-engine preprocessing. The factory is retained: live
// re-partitioning rebuilds the touched shards' engines with it (the
// router installs itself as the mesh's partition-swap hook — one live
// router per sharded mesh; building another router for the same mesh
// re-targets the hook).
func NewRouter(sm *Mesh, factory func(*mesh.Mesh) query.ParallelKNNEngine) *Router {
	r := &Router{sm: sm, factory: factory}
	inner := "empty"
	for _, p := range sm.part.Parts {
		x := NewExec(p, factory)
		r.execs = append(r.execs, x)
		inner = x.eng.Name()
	}
	r.name = fmt.Sprintf("Sharded[K=%d]·%s", sm.part.K, inner)
	r.resident = r.newCursor()
	sm.onRepartition = r.onRepartition
	return r
}

// onRepartition is the sharded mesh's partition-swap hook: every rebuilt
// shard gets a successor executor over its new Part (see Exec.successor).
// Runs under the same exclusion as the swap itself (the coherence gate's
// write side), so queries never observe a half-swapped router.
func (r *Router) onRepartition(touched []int) {
	for _, s := range touched {
		r.execs[s] = r.execs[s].successor(r.sm.part.Parts[s], r.factory)
	}
}

// MaintainStates implements maintain.StateProvider: one maintenance
// target per shard. The pipeline's scheduler drives them instead of
// wrapping the router in a single global target. The returned slice is a
// copy — re-partitioning replaces entries, and the pipeline re-syncs the
// scheduler's target set against a fresh call every step.
func (r *Router) MaintainStates() []*maintain.TargetState {
	states := make([]*maintain.TargetState, len(r.execs))
	for s, x := range r.execs {
		states[s] = x.ts
	}
	return states
}

// PressurePolicy configures the pressure-driven shard balancer, set at
// construction through Options.Pressure: when one shard's query-pressure
// EMA dominates, the router shrinks its target owned-count share so the
// next re-partition sheds boundary vertices to its Hilbert neighbors —
// load balancing without any structural change.
type PressurePolicy struct {
	// Factor triggers a rebalance when the hottest shard's pressure EMA
	// exceeds Factor x the mean EMA (and the pressureFloor). <= 0
	// disables the balancer.
	Factor float64
}

// The balancer's fixed constants: the hottest EMA must reach
// pressureFloor (no rebalance on idle noise), a trip gives away
// pressureShed of the hot shard's target share, and trips are at least
// pressureCooldown ticks apart.
const (
	pressureFloor    = 4
	pressureShed     = 0.4
	pressureCooldown = 2
)

// PostTick implements query.PostTicker: called by the pipeline's writer
// after each maintenance tick, it checks the per-shard pressure EMAs the
// scheduler just collected and, when one shard dominates, rebalances the
// partition with a reduced share for the hot shard. The swap happens
// under the coherence gate; the rebuilt shards' engines are constructed
// by budgeted rebuild tasks like any migration.
func (r *Router) PostTick() {
	factor := r.sm.pressure.Factor
	if factor <= 0 || len(r.execs) < 2 {
		return
	}
	r.sinceRebalance++
	if r.sinceRebalance < pressureCooldown {
		return
	}
	hot, hotEMA, total := -1, int64(0), int64(0)
	for s, x := range r.execs {
		e := x.ts.PressureEMA()
		total += e
		if e > hotEMA {
			hot, hotEMA = s, e
		}
	}
	mean := float64(total) / float64(len(r.execs))
	if hot < 0 || hotEMA < pressureFloor || float64(hotEMA) < factor*mean {
		return
	}
	w := make([]float64, len(r.execs))
	for s := range w {
		w[s] = 1
	}
	w[hot] = 1 - pressureShed
	if r.sm.Rebalance(w) {
		r.sinceRebalance = 0
	}
}

// Mesh returns the sharded mesh the router executes over.
func (r *Router) Mesh() *Mesh { return r.sm }

// Engines returns the per-shard inner engines, in shard order (nil for a
// shard whose rebuild after a re-partition is still pending).
func (r *Router) Engines() []query.ParallelKNNEngine {
	engines := make([]query.ParallelKNNEngine, len(r.execs))
	for s, x := range r.execs {
		engines[s] = x.eng
	}
	return engines
}

// Name implements query.Engine.
func (r *Router) Name() string { return r.name }

// Step implements query.Engine, the stop-the-world entry of the paper's
// update/monitor alternation: the simulation wrote the global mesh in
// place and no query is running. It publishes the global positions into
// every sub-mesh (Mesh.Resync: one epoch per Step) and brings every shard
// target to the head. A caller that published through Mesh.Deform itself
// drains the targets with a scheduler over MaintainStates instead, as
// Pipeline.Run does.
func (r *Router) Step() {
	r.sm.Resync()
	for _, x := range r.execs {
		x.ts.ToHead()
	}
}

// Query implements query.Engine through the resident cursor, which one
// goroutine at a time may use: a concurrent entry panics.
func (r *Router) Query(q geom.AABB, out []int32) []int32 {
	r.guard.Enter("shard")
	defer r.guard.Leave()
	return r.resident.Query(q, out)
}

// KNN implements query.KNNEngine through the resident cursor, under the
// same contract as Query.
func (r *Router) KNN(p geom.Vec3, k int, out []int32) []int32 {
	r.guard.Enter("shard")
	defer r.guard.Leave()
	return r.resident.KNN(p, k, out)
}

// NewCursor implements query.ParallelEngine.
func (r *Router) NewCursor() query.Cursor { return r.newCursor() }

func (r *Router) newCursor() *Cursor {
	legs := &localLegs{r: r, curs: make([]ExecCursor, len(r.execs))}
	return &Cursor{Fanout: NewFanout(legs, &r.n, nil), legs: legs}
}

// MemoryFootprint implements query.Engine: the shard engines' auxiliary
// structures plus the sharding overhead itself — remap tables, cut-edge
// lists, and the ghost-ring duplication of sub-mesh storage beyond the
// global mesh.
func (r *Router) MemoryFootprint() int64 {
	var b int64
	var subMesh int64
	for _, x := range r.execs {
		if x.eng != nil {
			b += x.eng.MemoryFootprint()
		}
		p := x.part
		b += int64(len(p.ToGlobal))*4 + int64(len(p.Owned)) + int64(len(p.CutEdges))*8
		subMesh += p.Mesh.MemoryBytes()
	}
	b += int64(len(r.sm.part.Owner)) * 8 // owner + local-id tables
	if over := subMesh - r.sm.global.MemoryBytes(); over > 0 {
		b += over
	}
	return b
}

// FanoutStats reports accumulated routing statistics: range queries and
// the total shards they fanned out to, kNN queries with the shards
// actually scanned (not pruned by the KBest bound), and the kNN widening
// rounds (re-queries a leg needed to prove its owned contribution
// complete; see Exec.KNN).
func (r *Router) FanoutStats() (rangeQ, rangeFan, knnQ, knnScanned, knnWiden int64) {
	return r.n.RangeQueries.Load(), r.n.RangeFanout.Load(),
		r.n.KNNQueries.Load(), r.n.KNNScanned.Load(), r.n.KNNWidenings.Load()
}

// Cursor is the router's per-goroutine cursor: the one Fanout, over
// in-process legs, which also take a crawl budget.
type Cursor struct {
	*Fanout
	legs *localLegs
}

// SetBudget implements query.BudgetedCursor: every shard leg runs under
// b, including one that binds an engine a re-partition rebuilt. The
// budget applies per leg, so a range query fanned out to f shards may
// expand up to f×MaxVisited vertices; LastCoverage merges the legs'
// reports under CrawlCoverage.Add's contract. (The bare Fanout, the dist
// cursor, carries no budget over the wire and does not implement it.)
func (c *Cursor) SetBudget(b query.CrawlBudget) {
	for s := range c.legs.curs {
		c.legs.curs[s].SetBudget(b)
	}
}

// localLegs is one cursor's in-process Legs: the view is the coherence
// gate, held from Begin to End so the head epoch and the shard summaries
// stay fixed for the whole query, and a leg is the shard's Exec on this
// cursor's ExecCursor. The gate makes skew impossible and an Exec cannot
// fail, so the fan-out's loop runs exactly once.
//
// Every shard answers consistently with that head epoch: pin-per-query
// engines read the head buffer, maintained engines whose last maintenance
// is the head answer from an identical snapshot, and a shard whose engine
// lags the head or is mid-maintenance-slice answers by Exec's owned-scan
// fallback — no shard is ever skipped or answered against the wrong
// geometry.
type localLegs struct {
	r    *Router
	curs []ExecCursor
	sums []Summary
}

func (l *localLegs) Begin() ([]Summary, uint64, error) {
	sm := l.r.sm
	sm.deformMu.RLock()
	l.sums = sm.part.Summaries(l.sums[:0])
	return l.sums, sm.Epoch(), nil
}

func (l *localLegs) End() { l.r.sm.deformMu.RUnlock() }

func (l *localLegs) Range(s int, _ uint64, q geom.AABB, out []int32, cov *query.CrawlCoverage) ([]int32, bool, error) {
	cur := &l.curs[s]
	out = l.r.execs[s].Range(cur, q, out)
	cov.Add(cur.cov)
	return out, true, nil
}

func (l *localLegs) KNN(s int, _ uint64, p geom.Vec3, k int, kb *query.KBest, cov *query.CrawlCoverage) (int, bool, error) {
	cur := &l.curs[s]
	rounds := l.r.execs[s].KNN(cur, p, k, kb.Full(), kb.Bound(), kb)
	cov.Add(cur.cov)
	return rounds, true, nil
}

func (l *localLegs) Skewed() {}

// Close closes every shard cursor, folding their statistics into the
// shard engines.
func (l *localLegs) Close() {
	for s := range l.curs {
		l.curs[s].Close()
	}
}
