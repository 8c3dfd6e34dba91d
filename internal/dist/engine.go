package dist

import (
	"fmt"
	"unsafe"

	"octopus/internal/geom"
	"octopus/internal/query"
	"octopus/internal/shard"
)

// Engine adapts a Router (and optionally the Cluster control plane) to
// query.ParallelKNNEngine, so the distributed tier drops into everything
// built for local engines — ExecuteBatch, the Pipeline, the bench
// harness. Queries that fail (unreachable shard after retries,
// persistent epoch skew) return empty results and surface the error
// through each cursor's LastError (query.ErrorReporter), which the
// pipeline records as a degraded trace — the distributed contract:
// honest errors, never silently wrong or partial answers.
type Engine struct {
	r    *Router
	cl   *Cluster
	name string

	resident *shard.Fanout
	guard    query.ResidentGuard
}

// NewEngine wraps r. cl may be nil (a pure query tier); when set, Step
// drives the cluster's maintenance fan-out, making the engine usable
// where a local engine's Step would maintain its index (the pipeline's
// single-target schedule, the stop-the-world loop).
func NewEngine(r *Router, cl *Cluster) *Engine {
	name := fmt.Sprintf("Dist[K=%d]", r.Shards())
	if cl != nil && len(cl.Servers()) > 0 {
		name += "·" + cl.Servers()[0].Engine().Name()
	}
	return &Engine{r: r, cl: cl, name: name, resident: r.newFanout()}
}

// Name implements query.Engine.
func (e *Engine) Name() string { return e.name }

// Step implements query.Engine: with an attached cluster it drives every
// shard server's maintenance to the published head; a fan-out failure
// latches into the cluster's Err (Step cannot return one) and subsequent
// queries degrade honestly through the epoch gate. Step also advances
// the router's result cache (when one is enabled) over the dirty
// interval the publishes logged; a failed sync is harmless — the cache
// just keeps answering at its older, still-proven epoch.
func (e *Engine) Step() {
	if e.cl != nil {
		if err := e.cl.MaintainToHead(); err != nil {
			e.cl.err.CompareAndSwap(nil, err)
		}
	}
	e.r.SyncCache()
}

// Query implements query.Engine through the resident cursor, which one
// goroutine at a time may use: a concurrent entry panics. Failures yield
// out unchanged; the honest outcome is the cursor's LastError, so callers
// that need it query through NewCursor.
func (e *Engine) Query(q geom.AABB, out []int32) []int32 {
	e.guard.Enter("dist")
	defer e.guard.Leave()
	return e.resident.Query(q, out)
}

// KNN implements query.KNNEngine through the resident cursor, under the
// same contract as Query.
func (e *Engine) KNN(p geom.Vec3, k int, out []int32) []int32 {
	e.guard.Enter("dist")
	defer e.guard.Leave()
	return e.resident.KNN(p, k, out)
}

// NewCursor implements query.ParallelEngine: a shard.Fanout over the
// router's remote legs. A failed query returns out unchanged and latches
// the error for LastError — the caller must treat the pair as a degraded
// answer, not an exact empty one.
func (e *Engine) NewCursor() query.Cursor { return e.r.newFanout() }

// MemoryFootprint implements query.Engine: the router tier is stateless
// — its footprint is the cached metadata, one shard.Summary per shard
// and the epoch they share.
func (e *Engine) MemoryFootprint() int64 {
	return int64(e.r.Shards())*int64(unsafe.Sizeof(shard.Summary{})) + 8
}
