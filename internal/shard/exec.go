package shard

import (
	"fmt"
	"math"

	"octopus/internal/geom"
	"octopus/internal/maintain"
	"octopus/internal/mesh"
	"octopus/internal/query"
)

// Exec is the per-shard executor: one shard's Part, the engine over its
// sub-mesh and the maintenance target serializing that engine's upkeep
// against queries. It holds the whole per-shard decision procedure — the
// owned filter and global remap, the kNN widening loop with its
// completeness rule, and the exact owned-scan fallback — so the
// in-process Cursor and the dist.Server run the same code and differ
// only in what surrounds it (a coherence gate and a shared heap there,
// an epoch proof and an encoder here).
//
// Range and KNN are safe for concurrent use with distinct ExecCursors.
type Exec struct {
	part *Part
	ts   *maintain.TargetState
	// eng is installed once: by NewExec, or — for the successor of a
	// re-partitioned shard — by the target's rebuild task, under
	// the target's write lock. Queries read it under the read lock and
	// only when the target is not mid-task, which a pending rebuild is.
	eng query.ParallelKNNEngine
}

// NewExec builds the engine for p with factory and wraps the pair in a
// maintenance target named after the shard.
func NewExec(p *Part, factory func(*mesh.Mesh) query.ParallelKNNEngine) *Exec {
	x := &Exec{part: p, eng: factory(p.Mesh)}
	x.ts = maintain.NewTargetState(maintain.Target{Name: targetName(p), Engine: x.eng, Mesh: p.Mesh})
	return x
}

// successor returns the executor replacing x after a re-partition rebuilt
// the shard as p. Its engine does not exist yet: a rebuild task
// constructs it, under the scheduler's wall budget (live pipeline) or
// inside Router.Step. Until the task runs the
// target reports mid-task, so every query takes the exact owned scan. The
// new target inherits x's pressure EMA, so a hot shard's rebuild keeps its
// priority.
func (x *Exec) successor(p *Part, factory func(*mesh.Mesh) query.ParallelKNNEngine) *Exec {
	nx := &Exec{part: p}
	nx.ts = maintain.NewRebuildState(targetName(p), p.Mesh, func() maintain.Stepper {
		nx.eng = factory(p.Mesh)
		return nx.eng
	})
	nx.ts.SeedPressure(x.ts.PressureEMA())
	return nx
}

func targetName(p *Part) string { return fmt.Sprintf("shard-%d", p.Index) }

// Part returns the shard the executor answers for.
func (x *Exec) Part() *Part { return x.part }

// Engine returns the shard engine, nil while a rebuild is pending. Not
// safe concurrently with maintenance.
func (x *Exec) Engine() query.ParallelKNNEngine { return x.eng }

// Target returns the shard's maintenance target.
func (x *Exec) Target() *maintain.TargetState { return x.ts }

// ExecCursor is one goroutine's scratch against one shard: the inner
// engine cursor, created lazily, and the local-id buffer. The zero value
// is ready to use. A cursor that last served another Exec (the shard was
// re-partitioned since) rebinds itself, so a cursor built for a retired
// sub-mesh never answers for its replacement.
type ExecCursor struct {
	x   *Exec
	cur query.Cursor
	// restrict is cur as a query.KNNRestrictor, nil when its engine
	// ranks every vertex.
	restrict query.KNNRestrictor
	// budget is handed to every inner cursor the cursor binds.
	budget  query.CrawlBudget
	scratch []int32
	// cov is the crawl coverage of the most recent Range or KNN; the
	// owned-scan fallback is exact and leaves the zero value.
	cov query.CrawlCoverage
}

// bind points c at x's engine. The caller holds x's target read lock
// with no task mid-flight, which orders the engine read against the
// rebuild task's write.
func (c *ExecCursor) bind(x *Exec) {
	if c.x == x {
		return
	}
	c.Close()
	c.x, c.cur = x, x.eng.NewCursor()
	c.restrict, _ = c.cur.(query.KNNRestrictor)
	c.SetBudget(c.budget)
}

// SetBudget sets the crawl budget of the cursor's later queries: on the
// bound inner cursor now, and on whichever one it binds next.
func (c *ExecCursor) SetBudget(b query.CrawlBudget) {
	c.budget = b
	if bc, ok := c.cur.(query.BudgetedCursor); ok {
		bc.SetBudget(b)
	}
}

// Close closes the inner engine cursor, folding its statistics into the
// engine.
func (c *ExecCursor) Close() {
	if c.cur != nil {
		c.cur.Close()
	}
}

// stale reports whether the engine answers from a snapshot older than
// the sub-mesh's published head — true only between a publish and the
// shard's maintenance completing. Such an engine ranks candidates in a
// different metric than the head positions the results are merged at.
// The caller holds the target's read lock (AnswerEpoch may only be read
// when maintenance cannot run). Engines without an internal snapshot pin
// the head per query and are never stale.
func (x *Exec) stale() bool {
	er, ok := x.eng.(query.EpochReporter)
	return ok && er.AnswerEpoch() != x.part.Mesh.Epoch()
}

// Range appends the global ids of the shard's owned vertices inside q to
// out: the engine's answer on the sub-mesh with ghost hits dropped (the
// neighbor shard reports them). When the target is mid-task or the engine
// is stale, it scans the owned positions at the pinned head instead,
// which is always exact.
func (x *Exec) Range(cur *ExecCursor, q geom.AABB, out []int32) []int32 {
	p := x.part
	midTask := x.ts.BeginQuery()
	defer x.ts.EndQuery()
	cur.cov = query.CrawlCoverage{}
	if midTask || x.stale() {
		epoch, pos := p.Mesh.PinPositions()
		for l, own := range p.Owned {
			if own && q.Contains(pos[l]) {
				out = append(out, p.ToGlobal[l])
			}
		}
		p.Mesh.UnpinPositions(epoch)
		return out
	}
	cur.bind(x)
	cur.scratch = cur.cur.Query(q, cur.scratch[:0])
	for _, l := range cur.scratch {
		if p.Owned[l] {
			out = append(out, p.ToGlobal[l])
		}
	}
	if cr, ok := cur.cur.(query.CoverageReporter); ok {
		cur.cov = cr.LastCoverage()
	}
	return out
}

// KNN offers the shard's owned candidates for the k nearest neighbors of
// p into the heap, as (squared distance at the pinned head, global id),
// and returns the number of widening rounds it took. (full, bound2) is
// the state of the global k-best before this shard: the caller's own
// heap in process, the pair the router shipped over the wire. into may be
// that same heap, since nothing is offered before the loop has finished.
//
// An engine whose cursor is a query.KNNRestrictor (OCTOPUS and CON) is
// told to rank only the owned vertices and, when the global heap is full,
// none beyond bound2: it searches only what this shard can contribute and
// stops at the global bound, so one engine call normally answers the leg.
// Any other engine ranks the whole sub-mesh, ghosts included, and its
// top-k may be crowded by ghost hits that belong to a neighbor shard.
// Either way the loop re-queries with a larger k' until the owned
// contribution is provably complete:
//
//   - the sub-mesh (or its owned population) is exhausted, or
//   - a restricted engine returned fewer candidates than asked: no other
//     owned vertex lies within the ceiling, so none can enter the global
//     top-k, or
//   - every unreturned candidate ranks strictly beyond the global bound
//     (it is at least as far as the worst vertex returned), or
//   - want = min(k, owned) owned candidates were seen and the want-th of
//     them is strictly closer than the scan horizon (the worst vertex
//     returned): any unreturned owned vertex then has at least horizon
//     distance, so it is dominated within this shard by want strictly
//     better candidates and can never enter the global top-k. Strictness
//     matters: at exactly the horizon distance, an unreturned owned
//     vertex with a smaller global id could still displace a returned
//     one under the (dist, id) order.
//
// The initial request asks for one extra candidate (k+1) so that on a
// tie-free shard the horizon separates immediately. A restricted leg
// therefore widens only when the k-th and (k+1)-th owned candidates tie
// at the horizon; an unrestricted one also widens when ghosts crowd its
// answer, which the traced benchmark counted 0.47 (live-inproc) and 0.44
// (serve-uniform) times per kNN before the restriction.
//
// A mid-task engine must not be read at all, and a stale one invalidates
// the argument above; both offer every owned vertex directly instead.
func (x *Exec) KNN(cur *ExecCursor, p geom.Vec3, k int, full bool, bound2 float64, into *query.KBest) (rounds int) {
	part := x.part
	midTask := x.ts.BeginQuery()
	defer x.ts.EndQuery()
	epoch, pos := part.Mesh.PinPositions()
	defer part.Mesh.UnpinPositions(epoch)
	cur.cov = query.CrawlCoverage{}

	if midTask || x.stale() {
		for l, own := range part.Owned {
			if own {
				into.Offer(pos[l].Dist2(p), part.ToGlobal[l])
			}
		}
		return 0
	}

	cur.bind(x)
	if cur.restrict != nil {
		ceiling2 := math.Inf(1)
		if full {
			ceiling2 = bound2
		}
		cur.restrict.RestrictKNN(part.Owned, ceiling2)
	}
	subV := part.Mesh.NumVertices()
	want := min(k, part.NumOwned)
	kq := min(k+1, subV)
	for {
		cur.scratch = cur.cur.KNN(p, kq, cur.scratch[:0])
		owned := 0
		dWant := 0.0
		for _, l := range cur.scratch {
			if part.Owned[l] {
				owned++
				if owned == want {
					dWant = pos[l].Dist2(p)
				}
			}
		}
		exhausted := len(cur.scratch) >= subV || owned >= part.NumOwned
		// A restricted engine that returns short has ranked every owned
		// vertex within the ceiling. It never returns a ghost, so this is
		// also the exit once k' reaches the sub-mesh size.
		short := cur.restrict != nil && len(cur.scratch) < kq
		horizon := 0.0
		if n := len(cur.scratch); n > 0 {
			horizon = pos[cur.scratch[n-1]].Dist2(p)
		}
		if exhausted || short || (full && horizon > bound2) || (owned >= want && dWant < horizon) {
			break
		}
		kq = min(kq*2+8, subV)
		rounds++
	}
	for _, l := range cur.scratch {
		if part.Owned[l] {
			into.Offer(pos[l].Dist2(p), part.ToGlobal[l])
		}
	}
	// The round that produced the offered candidates is the one whose
	// coverage describes this shard's contribution.
	if cr, ok := cur.cur.(query.CoverageReporter); ok {
		cur.cov = cr.LastCoverage()
	}
	return rounds
}
