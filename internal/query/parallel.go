package query

import (
	"math"
	"runtime"
	"sync"
	"sync/atomic"

	"octopus/internal/geom"
)

// Cursor is per-worker query state bound to the engine that created it.
// The engine holds only immutable index state at query time, so any
// number of cursors over the same engine may execute queries concurrently
// — one cursor per goroutine; a single cursor is not safe for concurrent
// use. Queries may overlap mesh.Mesh.Deform (cursors pin the position
// epoch they read); they must still not overlap index maintenance — Step,
// restructuring, ApplySurfaceDelta — which Pipeline serializes internally.
//
// Every cursor also answers kNN (KNNCursor) and reports the epoch its most
// recent answer is exact at (PinnedCursor).
type Cursor interface {
	KNNCursor
	PinnedCursor

	// Query appends the ids of all vertices whose current position lies
	// in q to out and returns the extended slice, using only this
	// cursor's scratch for mutable state. The result is deterministic for
	// a given engine, mesh state and CrawlBudget, whatever the cursor ran
	// before.
	Query(q geom.AABB, out []int32) []int32

	// Close folds whatever statistics the cursor accumulated back into
	// the engine's resident totals. The cursor remains usable. Close must
	// not race with the same cursor's Query; engines guard the merge
	// itself, so distinct cursors may close concurrently.
	Close()
}

// ParallelEngine is an Engine whose immutable index state is separated
// from per-query scratch, so queries can execute concurrently through
// per-goroutine cursors. All engines in this repository implement it.
type ParallelEngine interface {
	Engine

	// NewCursor returns fresh query scratch over this engine.
	NewCursor() Cursor
}

// ResidentGuard enforces the single-goroutine contract of an engine's
// resident cursor — the one behind Engine.Query and KNNEngine.KNN: a
// second goroutine entering while a query runs panics instead of
// corrupting the cursor's scratch. The zero value is ready to use.
type ResidentGuard struct{ busy atomic.Bool }

// Enter marks the resident cursor of package pkg busy; pair it with a
// deferred Leave.
func (g *ResidentGuard) Enter(pkg string) {
	if !g.busy.CompareAndSwap(false, true) {
		panic(pkg + ": resident cursor entered concurrently — use NewCursor per goroutine")
	}
}

// Leave marks the resident cursor free again.
func (g *ResidentGuard) Leave() { g.busy.Store(false) }

// StatelessCursor adapts an engine that answers from a maintained internal
// snapshot of the positions and touches no mutable engine state at query
// time (the rebuilt-per-step trees, the lazily updated grid and R-tree
// baselines) to the Cursor interface: the "scratch" is the engine itself,
// plus the answer epoch, which each query records from the engine's
// AnswerEpoch so LastEpoch names the state the result is consistent with.
type StatelessCursor struct {
	Engine interface {
		Engine
		KNNEngine
		EpochReporter
	}

	lastEpoch uint64
}

// Query implements Cursor by delegation.
func (c *StatelessCursor) Query(q geom.AABB, out []int32) []int32 {
	c.lastEpoch = c.Engine.AnswerEpoch()
	return c.Engine.Query(q, out)
}

// KNN implements KNNCursor by delegation.
func (c *StatelessCursor) KNN(p geom.Vec3, k int, out []int32) []int32 {
	c.lastEpoch = c.Engine.AnswerEpoch()
	return c.Engine.KNN(p, k, out)
}

// LastEpoch implements PinnedCursor.
func (c *StatelessCursor) LastEpoch() uint64 { return c.lastEpoch }

// Close implements Cursor; a stateless engine has nothing to merge.
func (c *StatelessCursor) Close() {}

// ScanCursor is the pinned linear scan (Equation 4) as a cursor, and the
// only one: the linear-scan engine's cursor, the hybrid's scan route and
// the pipeline's mid-maintenance fallback. Each query pins the mesh's head
// epoch, scans the pinned buffer (ScanPositions, ScanKNNPositions) and
// releases the pin, so every answer is exact at LastEpoch however far the
// mesh deforms meanwhile. A kNN answer also records its ball, so every
// scan answer is cacheable.
type ScanCursor struct {
	m     pinnedMesh
	epoch uint64
	ball2 float64
}

// NewScanCursor returns a scan cursor over m (a *mesh.Mesh).
func NewScanCursor(m pinnedMesh) *ScanCursor { return &ScanCursor{m: m} }

// Query implements Cursor.
func (c *ScanCursor) Query(q geom.AABB, out []int32) []int32 {
	epoch, pos := c.m.PinPositions()
	out = ScanPositions(pos, q, out)
	c.m.UnpinPositions(epoch)
	c.epoch = epoch
	return out
}

// KNN implements KNNCursor.
func (c *ScanCursor) KNN(p geom.Vec3, k int, out []int32) []int32 {
	epoch, pos := c.m.PinPositions()
	base := len(out)
	out = ScanKNNPositions(pos, p, k, out)
	// Fewer than k vertices put the whole mesh in the result: any
	// movement can reorder it, so the ball is infinite.
	c.ball2 = math.Inf(1)
	if res := out[base:]; k > 0 && len(res) >= k {
		c.ball2 = pos[res[k-1]].Dist2(p)
	}
	c.m.UnpinPositions(epoch)
	c.epoch = epoch
	return out
}

// LastEpoch implements PinnedCursor: the epoch the most recent query
// pinned.
func (c *ScanCursor) LastEpoch() uint64 { return c.epoch }

// LastKNNBound2 implements KNNBoundReporter: the squared distance of the
// most recent KNN's k-th result (+Inf when the mesh held fewer than k
// vertices). A scan always knows it.
func (c *ScanCursor) LastKNNBound2() (float64, bool) { return c.ball2, true }

// Close implements Cursor; a scan has nothing to merge.
func (c *ScanCursor) Close() {}

// ExecuteBatch executes queries against eng using a pool of workers, each
// with its own cursor, and returns one result slice per query
// (Results[i] answers queries[i]). workers <= 0 uses GOMAXPROCS. After
// the pool drains, every cursor is closed so per-cursor statistics are
// merged into the engine's resident totals exactly once.
//
// Queries are handed to workers through a shared counter, so the
// assignment of queries to workers is nondeterministic — but each query's
// result slice is produced by exactly one cursor and, in exact mode,
// holds the same result set serial execution would produce (result order
// is unspecified by Engine.Query's contract; the core engines return the
// serial order, being deterministic per cursor). The batch's cursors are
// fresh, so they run exact: a budgeted batch (CrawlBudget on each cursor)
// needs a hand-rolled pool.
//
// ExecuteBatch must not run concurrently with Step or restructuring, nor
// with other queries on the engine's resident cursor. It may overlap
// Mesh.Deform (each query executes against its pinned epoch); in-place
// deformation of Positions() must not overlap the batch. For a managed writer alongside the batch,
// use Pipeline.
func ExecuteBatch(eng ParallelEngine, queries []geom.AABB, workers int) [][]int32 {
	return runBatch(eng, len(queries), workers, func(cur Cursor) func(int) []int32 {
		return func(i int) []int32 { return cur.Query(queries[i], nil) }
	})
}

// runBatch is the worker pool behind ExecuteBatch and ExecuteKNNBatch: n
// items handed to the workers through a shared counter, one cursor per
// worker (bind turns a fresh cursor into the function answering item i),
// every cursor closed once the pool has drained so its statistics merge
// into the engine exactly once.
func runBatch(eng ParallelEngine, n, workers int, bind func(Cursor) func(i int) []int32) [][]int32 {
	results := make([][]int32, n)
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	cursors := make([]Cursor, min(workers, n))
	for w := range cursors {
		cursors[w] = eng.NewCursor()
		answer := bind(cursors[w])
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				results[i] = answer(i)
			}
		}()
	}
	wg.Wait()
	for _, cur := range cursors {
		cur.Close()
	}
	return results
}
