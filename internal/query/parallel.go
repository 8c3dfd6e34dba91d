package query

import (
	"runtime"
	"sync"
	"sync/atomic"

	"octopus/internal/geom"
	"octopus/internal/mesh"
)

// Cursor is per-worker query state bound to the engine that created it.
// The engine holds only immutable index state at query time, so any
// number of cursors over the same engine may execute queries concurrently
// — one cursor per goroutine; a single cursor is not safe for concurrent
// use. Queries may overlap mesh.Mesh.Deform (cursors pin the position
// epoch they read); they must still not overlap index maintenance — Step,
// restructuring, ApplySurfaceDelta — which Pipeline serializes internally.
type Cursor interface {
	// Query appends the ids of all vertices whose current position lies
	// in q to out and returns the extended slice, using only this
	// cursor's scratch for mutable state. In exact mode the result is
	// deterministic for a given engine and mesh state; OCTOPUS's
	// approximate mode (SetApproximation < 1) rotates its sampling
	// phase with the cursor's own query history, so approximate results
	// depend on which cursor ran which query.
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

// StatelessCursor adapts an engine whose Query method touches no mutable
// engine state (the linear scan, the rebuilt-per-step trees, the R-tree
// baselines) to the Cursor interface: the "scratch" is the engine itself,
// plus the epoch bookkeeping. Each query of a SnapshotEngine pins the head
// epoch of Mesh and executes through QueryAt against the pinned buffer;
// engines that answer from an internal snapshot (EpochReporter) have
// their answer epoch recorded. Either way LastEpoch names the state the
// result is consistent with.
type StatelessCursor struct {
	Engine Engine
	// Mesh is the mesh Engine indexes: the position store queries pin.
	Mesh *mesh.Mesh

	lastEpoch   uint64
	lastBound2  float64
	lastBoundOK bool
}

// Query implements Cursor: a SnapshotEngine answers against the pinned
// head, any other engine by delegation.
func (c *StatelessCursor) Query(q geom.AABB, out []int32) []int32 {
	if se, ok := c.Engine.(SnapshotEngine); ok {
		epoch, pos := c.Mesh.PinPositions()
		c.lastEpoch = epoch
		out = se.QueryAt(pos, q, out)
		c.Mesh.UnpinPositions(epoch)
		return out
	}
	if er, ok := c.Engine.(EpochReporter); ok {
		c.lastEpoch = er.AnswerEpoch()
	}
	return c.Engine.Query(q, out)
}

// LastEpoch implements PinnedCursor.
func (c *StatelessCursor) LastEpoch() uint64 { return c.lastEpoch }

// Close implements Cursor; a stateless engine has nothing to merge.
func (c *StatelessCursor) Close() {}

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
// serial order, being deterministic per cursor). In OCTOPUS's
// approximate mode (SetApproximation < 1) the probe's sampling phase
// follows each cursor's query history, so approximate result sets are
// scheduling-dependent — approximation already trades exactness away.
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
