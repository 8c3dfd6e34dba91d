package dist

import (
	"errors"
	"fmt"
	"math"
	"sync"
	"sync/atomic"
	"time"

	"octopus/internal/geom"
	"octopus/internal/mesh"
	"octopus/internal/query"
	"octopus/internal/shard"
)

// ErrEpochSkew is returned when shards keep disagreeing on the epoch
// after the bounded re-query rounds: the router refuses to merge
// responses from different steps — a wrong answer is worse than an
// error.
var ErrEpochSkew = errors.New("dist: shards disagree on the published epoch (persistent skew)")

// maxQueryRounds bounds the refresh-and-re-query loop a skewed response
// triggers; a query that cannot pin one epoch across every shard it
// needs within this many rounds fails with ErrEpochSkew.
const maxQueryRounds = 4

// Router is the stateless routing tier: it owns no mesh data, only the
// shard addresses and cached routing metadata (per-shard owned boxes and
// the common epoch) it refreshes from the servers. Fan-out and kNN visit
// order come from shard.PlanRangeFanout / shard.PlanKNNOrder — the same
// planner the in-process shard.Router uses — and every merge is gated on
// all responses proving the metadata's epoch, so results are bit-equal
// to the in-process router over the same geometry.
//
// All methods are safe for concurrent use; any number of router
// instances may serve the same cluster (statelessness is the point).
//
// With EnableCache, the router memoizes exact results in a
// query.ResultCache keyed by the common epoch its metadata proved: a
// cache hit answers without any network traffic at all. The cache stays
// coherent through SyncCache, which pulls the servers' dirty logs — the
// per-epoch dirty AABBs that ride along with delta publishes — and
// invalidates precisely (see DESIGN.md §16 for the coherence argument).
type Router struct {
	rpc *client

	mu     sync.Mutex
	boxes  []geom.AABB // valid when metaOK; replaced wholesale, never mutated
	epoch  uint64
	metaOK bool

	cache  *query.ResultCache // nil until EnableCache
	syncMu sync.Mutex         // serializes SyncCache's read-advance cycle

	rangeQueries atomic.Int64
	rangeFanout  atomic.Int64
	knnQueries   atomic.Int64
	knnScanned   atomic.Int64
	widenings    atomic.Int64
	skewRequery  atomic.Int64
	cacheHits    atomic.Int64
}

// NewRouter returns a router over the shard servers at addrs (index =
// shard id), reached through tr under policy.
func NewRouter(tr Transport, addrs []string, policy RetryPolicy) *Router {
	return &Router{rpc: newClient(tr, addrs, policy.withDefaults(), queryPool)}
}

// EnableCache attaches a result cache holding up to capacity entries
// (<= 0 uses query.DefaultCacheSize). Call it before the router serves
// queries; it is not safe to enable mid-flight. Cached hits answer with
// zero RPCs; call SyncCache after publishes to keep the cache coherent.
func (r *Router) EnableCache(capacity int) {
	r.cache = query.NewResultCache(capacity)
}

// CacheStats snapshots the attached result cache's counters (the zero
// value when no cache is enabled).
func (r *Router) CacheStats() query.CacheStats {
	if r.cache == nil {
		return query.CacheStats{}
	}
	return r.cache.Stats()
}

// SyncCache advances the result cache over the dirty interval published
// since the last sync: it fetches one server's dirty log from the
// cache's valid epoch and applies the per-epoch dirty boxes (a flush for
// untracked epochs — full publishes — or a wrapped log). One shard's log
// covers the cluster: publishes are lockstep and every shard receives
// the same global dirty box, so the records are cluster-wide facts.
// Unreachable shards are skipped (the next one is tried); with every
// shard unreachable the cache simply stays at its old valid epoch —
// hits remain provably correct there, they just go stale-but-honest.
// No-op without a cache. Safe for concurrent use.
func (r *Router) SyncCache() error {
	c := r.cache
	if c == nil {
		return nil
	}
	r.syncMu.Lock()
	defer r.syncMu.Unlock()
	from := c.Stats().ValidEpoch
	var lastErr error
	for s := range r.rpc.addrs {
		b, err := r.rpc.call(s, opDirtyLog, encodeDirtyLogReq(dirtyLogReq{From: from}))
		if err != nil {
			lastErr = err
			continue
		}
		resp, err := decodeDirtyLogResp(b)
		if err != nil {
			lastErr = err
			continue
		}
		if resp.Head <= from {
			return nil // nothing published since the last sync
		}
		regions := make([]mesh.DirtyRegion, 0, len(resp.Recs)+1)
		if !resp.Complete {
			// The log wrapped past our epoch: the missing interval is
			// untracked, which Advance treats as invalidate-everything.
			regions = append(regions, mesh.DirtyRegion{Overflow: true, Box: geom.EmptyBox()})
		}
		for _, rec := range resp.Recs {
			if !rec.Tracked {
				regions = append(regions, mesh.DirtyRegion{Overflow: true, Box: geom.EmptyBox()})
			} else if !rec.Box.IsEmpty() {
				regions = append(regions, mesh.DirtyRegion{Box: rec.Box})
			}
		}
		c.Advance(regions, resp.Head)
		return nil
	}
	return lastErr
}

// RouterStats is a snapshot of the router's counters.
type RouterStats struct {
	// RangeQueries/RangeFanout mirror the in-process FanoutStats: queries
	// served and total shard RPCs they fanned out to.
	RangeQueries, RangeFanout int64
	// KNNQueries/KNNScanned: probes served and shards actually scanned
	// (not pruned by the KBest bound); Widenings totals the server-side
	// widening rounds.
	KNNQueries, KNNScanned, Widenings int64
	// Retries counts transport-level retry attempts; SkewRequeries counts
	// whole-query re-runs forced by an epoch-skewed response.
	Retries, SkewRequeries int64
	// CacheHits counts queries answered from the result cache — each one
	// cost zero RPCs (they also count into RangeQueries/KNNQueries).
	CacheHits int64
}

// Stats snapshots the counters. Safe for concurrent use.
func (r *Router) Stats() RouterStats {
	return RouterStats{
		RangeQueries:  r.rangeQueries.Load(),
		RangeFanout:   r.rangeFanout.Load(),
		KNNQueries:    r.knnQueries.Load(),
		KNNScanned:    r.knnScanned.Load(),
		Widenings:     r.widenings.Load(),
		Retries:       r.rpc.retries.Load(),
		SkewRequeries: r.skewRequery.Load(),
		CacheHits:     r.cacheHits.Load(),
	}
}

// WireStats snapshots the router's per-op wire accounting. Safe for
// concurrent use.
func (r *Router) WireStats() WireStats { return r.rpc.wire.snapshot() }

// Shards returns the number of shard servers routed over.
func (r *Router) Shards() int { return len(r.rpc.addrs) }

// Refresh fetches fresh metadata from every shard: the owned boxes and
// the epoch vector. It succeeds only when every shard reports the same
// epoch (publishes are lockstep; a mixed vector means a publish sweep is
// in flight) — bounded re-sweeps, then ErrEpochSkew.
func (r *Router) Refresh() error {
	_, _, err := r.refreshMeta()
	return err
}

// meta returns the cached (boxes, epoch), refreshing on first use or
// after an invalidation.
func (r *Router) meta() ([]geom.AABB, uint64, error) {
	r.mu.Lock()
	if r.metaOK {
		boxes, epoch := r.boxes, r.epoch
		r.mu.Unlock()
		return boxes, epoch, nil
	}
	r.mu.Unlock()
	return r.refreshMeta()
}

func (r *Router) invalidateMeta() {
	r.mu.Lock()
	r.metaOK = false
	r.mu.Unlock()
}

func (r *Router) refreshMeta() ([]geom.AABB, uint64, error) {
	addrs := r.rpc.addrs
	backoff := r.rpc.policy.Backoff
	for sweep := 0; sweep < maxQueryRounds; sweep++ {
		if sweep > 0 {
			time.Sleep(backoff)
			backoff *= 2
		}
		boxes := make([]geom.AABB, len(addrs))
		var epoch uint64
		mixed := false
		for s := range addrs {
			resp, err := r.rpc.call(s, opMeta, encodeMetaReq())
			if err != nil {
				return nil, 0, err
			}
			m, err := decodeMetaResp(resp)
			if err != nil {
				return nil, 0, err
			}
			if m.Shard != s {
				return nil, 0, fmt.Errorf("dist: server at %s claims shard %d, want %d", addrs[s], m.Shard, s)
			}
			boxes[s] = m.Box
			if s == 0 {
				epoch = m.Epoch
			} else if m.Epoch != epoch {
				mixed = true
				break
			}
		}
		if mixed {
			continue // a publish sweep is in flight; re-sweep
		}
		r.mu.Lock()
		r.boxes, r.epoch, r.metaOK = boxes, epoch, true
		r.mu.Unlock()
		return boxes, epoch, nil
	}
	return nil, 0, ErrEpochSkew
}

// Range answers a range query: fan out to the box-intersecting shards at
// the metadata's epoch, merge owned global ids. Returns the ids, the
// epoch the result is exact at, and an error when a shard stayed
// unreachable (after retries) or the cluster never settled on one epoch
// — never a silently narrowed result.
func (r *Router) Range(q geom.AABB, out []int32) ([]int32, uint64, error) {
	r.rangeQueries.Add(1)
	base := len(out)
	if c := r.cache; c != nil {
		if res, epoch, ok := c.GetRange(q); ok {
			r.cacheHits.Add(1)
			return append(out, res...), epoch, nil
		}
	}
	var plan []int
	for round := 0; round < maxQueryRounds; round++ {
		boxes, epoch, err := r.meta()
		if err != nil {
			return nil, 0, err
		}
		plan = shard.PlanRangeFanout(boxes, q, plan[:0])
		out = out[:base]
		skew := false
		for _, s := range plan {
			resp, err := r.rangeRPC(s, rangeReq{Epoch: epoch, Box: q})
			if err != nil {
				return nil, 0, err
			}
			if resp.Skew {
				skew = true
				break
			}
			out = append(out, resp.IDs...)
		}
		if !skew {
			r.rangeFanout.Add(int64(len(plan)))
			if c := r.cache; c != nil {
				c.PutRange(q, append([]int32(nil), out[base:]...), epoch)
			}
			return out, epoch, nil
		}
		r.skewRequery.Add(1)
		r.invalidateMeta()
	}
	return nil, 0, ErrEpochSkew
}

// KNN answers a k-nearest-neighbor probe: best-first over shards by box
// distance under a global query.KBest, each shard scanned server-side
// under the shipped (Full, Bound2) state — the distributed form of the
// in-process widening contract. Returns the ids nearest first (ties by
// ascending global id), the epoch, and an honest error on unreachable
// shards or persistent skew.
func (r *Router) KNN(p geom.Vec3, k int, out []int32) ([]int32, uint64, error) {
	r.knnQueries.Add(1)
	base := len(out)
	if c := r.cache; c != nil {
		if res, epoch, ok := c.GetKNN(p, k); ok {
			r.cacheHits.Add(1)
			return append(out, res...), epoch, nil
		}
	}
	var kb query.KBest
	var order []shard.ShardDist
	for round := 0; round < maxQueryRounds; round++ {
		boxes, epoch, err := r.meta()
		if err != nil {
			return nil, 0, err
		}
		if k <= 0 || r.Shards() == 0 {
			return out, epoch, nil
		}
		order = shard.PlanKNNOrder(boxes, p, order[:0])
		kb.Reset(k)
		skew := false
		scanned := 0
		for _, sd := range order {
			// Prune strictly, ties not pruned — same rule as in-process.
			if kb.Full() && sd.D2 > kb.Bound() {
				break
			}
			scanned++
			resp, err := r.knnRPC(sd.Shard, knnReq{
				Epoch:  epoch,
				P:      p,
				K:      k,
				Full:   kb.Full(),
				Bound2: kb.Bound(),
			})
			if err != nil {
				return nil, 0, err
			}
			if resp.Skew {
				skew = true
				break
			}
			r.widenings.Add(int64(resp.Rounds))
			for _, c := range resp.Cands {
				kb.Offer(c.D2, c.GID)
			}
		}
		if !skew {
			r.knnScanned.Add(int64(scanned))
			// The invalidation ball must be read before AppendSorted
			// drains the heap: +Inf when fewer than k results exist (the
			// whole mesh is in the answer, any movement may reorder it).
			ball2 := math.Inf(1)
			if kb.Full() {
				ball2 = kb.Bound()
			}
			out = kb.AppendSorted(out)
			if c := r.cache; c != nil {
				c.PutKNN(p, k, append([]int32(nil), out[base:]...), epoch, ball2)
			}
			return out, epoch, nil
		}
		r.skewRequery.Add(1)
		r.invalidateMeta()
	}
	return nil, 0, ErrEpochSkew
}

func (r *Router) rangeRPC(s int, q rangeReq) (rangeResp, error) {
	b, err := r.rpc.call(s, opRange, encodeRangeReq(q))
	if err != nil {
		return rangeResp{}, err
	}
	return decodeRangeResp(b)
}

func (r *Router) knnRPC(s int, q knnReq) (knnResp, error) {
	b, err := r.rpc.call(s, opKNN, encodeKNNReq(q))
	if err != nil {
		return knnResp{}, err
	}
	return decodeKNNResp(b)
}

// Close drops every connection. The router may keep serving afterwards
// (connections redial lazily); Close is for orderly shutdown.
func (r *Router) Close() { r.rpc.close() }
