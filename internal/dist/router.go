package dist

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"octopus/internal/geom"
	"octopus/internal/query"
	"octopus/internal/shard"
)

// ErrEpochSkew is returned when shards keep disagreeing on the epoch
// after the bounded re-query rounds: the router refuses to merge
// responses from different steps — a wrong answer is worse than an
// error.
var ErrEpochSkew = shard.ErrEpochSkew

// maxMetaSweeps bounds Refresh's re-sweeps while a publish is in flight.
const maxMetaSweeps = 4

// Router is the stateless routing tier: it owns no mesh data, only the
// shard addresses and cached routing metadata (per-shard summaries —
// owned box and occupancy bitmap — and the common epoch) it refreshes
// from the servers. Queries run on a shard.Fanout whose legs are that
// metadata and the RPC stubs below: a
// merge completes only when every response proved the metadata's epoch,
// so results are bit-equal to the in-process router over the same
// geometry.
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
	sums   []shard.Summary // valid when metaOK; replaced wholesale, never mutated
	epoch  uint64
	metaOK bool
	// refreshing, while a query refreshes the metadata, is closed when
	// that refresh ends; the queries that need metadata meanwhile wait
	// for it instead of sending K Meta RPCs of their own.
	refreshing chan struct{}

	cache  *query.ResultCache // nil until EnableCache
	syncMu sync.Mutex         // serializes SyncCache's read-advance cycle

	n        shard.FanoutCounters
	resweeps atomic.Int64 // RouterStats.MetaResweeps
	fanouts  sync.Pool    // *shard.Fanout, behind Range and KNN
}

// NewRouter returns a router over the shard servers at addrs (index =
// shard id), reached through tr under policy.
func NewRouter(tr Transport, addrs []string, policy RetryPolicy) *Router {
	r := &Router{rpc: newClient(tr, addrs, policy.withDefaults(), queryPool)}
	r.fanouts.New = func() any { return r.newFanout() }
	return r
}

// newFanout returns a query cursor over the router's remote legs.
func (r *Router) newFanout() *shard.Fanout {
	return shard.NewFanout(&remoteLegs{r: r}, &r.n, r.cache)
}

// EnableCache attaches a result cache holding up to capacity entries
// (<= 0 uses query.DefaultCacheSize). Call it before the router serves
// queries or is wrapped by NewEngine: cursors bind the cache when they
// are created. Cached hits answer with zero RPCs; call SyncCache after
// publishes to keep the cache coherent.
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
// cache's valid epoch and applies it as it arrives (a flush for
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
		c.Apply(resp)
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
	// MetaResweeps counts the metadata sweeps repeated because the one
	// before saw the shards at mixed epochs (a publish in flight); each
	// slept its backoff first.
	MetaResweeps int64
}

// Stats snapshots the counters. Safe for concurrent use.
func (r *Router) Stats() RouterStats {
	return RouterStats{
		RangeQueries:  r.n.RangeQueries.Load(),
		RangeFanout:   r.n.RangeFanout.Load(),
		KNNQueries:    r.n.KNNQueries.Load(),
		KNNScanned:    r.n.KNNScanned.Load(),
		Widenings:     r.n.KNNWidenings.Load(),
		Retries:       r.rpc.retries.Load(),
		SkewRequeries: r.n.SkewRequeries.Load(),
		CacheHits:     r.n.CacheHits.Load(),
		MetaResweeps:  r.resweeps.Load(),
	}
}

// WireStats snapshots the router's per-op wire accounting. Safe for
// concurrent use.
func (r *Router) WireStats() WireStats { return r.rpc.wire.snapshot() }

// Shards returns the number of shard servers routed over.
func (r *Router) Shards() int { return len(r.rpc.addrs) }

// Refresh fetches fresh metadata from every shard: the summaries and the
// epoch vector. It succeeds only when every shard reports the same
// epoch (publishes are lockstep; a mixed vector means a publish sweep is
// in flight) — bounded re-sweeps, then ErrEpochSkew.
func (r *Router) Refresh() error {
	_, _, err := r.refreshMeta()
	return err
}

// meta returns the cached (summaries, epoch), refreshing on first use or
// after an invalidation. Concurrent callers share one refresh: the first
// sends the Meta RPCs and the others wait for its result (or, if it
// failed, refresh themselves).
func (r *Router) meta() ([]shard.Summary, uint64, error) {
	r.mu.Lock()
	for !r.metaOK && r.refreshing != nil {
		wait := r.refreshing
		r.mu.Unlock()
		<-wait
		r.mu.Lock()
	}
	if r.metaOK {
		sums, epoch := r.sums, r.epoch
		r.mu.Unlock()
		return sums, epoch, nil
	}
	done := make(chan struct{})
	r.refreshing = done
	r.mu.Unlock()
	defer func() {
		r.mu.Lock()
		r.refreshing = nil
		r.mu.Unlock()
		close(done)
	}()
	return r.refreshMeta()
}

func (r *Router) invalidateMeta() {
	r.mu.Lock()
	r.metaOK = false
	r.mu.Unlock()
}

func (r *Router) refreshMeta() ([]shard.Summary, uint64, error) {
	addrs := r.rpc.addrs
	backoff := r.rpc.policy.Backoff
	for sweep := 0; sweep < maxMetaSweeps; sweep++ {
		if sweep > 0 {
			r.resweeps.Add(1)
			time.Sleep(backoff)
			backoff *= 2
		}
		sums := make([]shard.Summary, len(addrs))
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
			sums[s] = m.Sum
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
		r.sums, r.epoch, r.metaOK = sums, epoch, true
		r.mu.Unlock()
		return sums, epoch, nil
	}
	return nil, 0, ErrEpochSkew
}

// Range answers a range query: fan out to the shards whose summary meets
// q at the metadata's epoch, merge owned global ids. A query every shard
// is pruned from answers empty at that epoch without an RPC. Returns the
// ids, the epoch the result is exact at, and an error when a shard stayed
// unreachable (after retries) or the cluster never settled on one epoch
// — out then comes back unchanged, never a silently narrowed result.
func (r *Router) Range(q geom.AABB, out []int32) ([]int32, uint64, error) {
	f := r.fanouts.Get().(*shard.Fanout)
	defer r.fanouts.Put(f)
	out = f.Query(q, out)
	return out, f.LastEpoch(), f.LastError()
}

// KNN answers a k-nearest-neighbor probe: best-first over shards by box
// distance under a global query.KBest, skipping shards whose occupancy
// misses the bound's cube, each shard scanned server-side under the
// shipped (Full, Bound2) state — the distributed form of the
// in-process widening contract. Returns the ids nearest first (ties by
// ascending global id), the epoch, and an honest error on unreachable
// shards or persistent skew.
func (r *Router) KNN(p geom.Vec3, k int, out []int32) ([]int32, uint64, error) {
	f := r.fanouts.Get().(*shard.Fanout)
	defer r.fanouts.Put(f)
	out = f.KNN(p, k, out)
	return out, f.LastEpoch(), f.LastError()
}

// remoteLegs is the router's shard.Legs: the view is the cached metadata
// (nothing is held, so End is empty), a leg is one RPC whose reply either
// proves the view's epoch or reports skew, and a skewed view is dropped so
// the next Begin refreshes it from the servers. Remote shards report no
// crawl coverage. Each Fanout owns its legs, so the request encode buffer
// is reused query after query (Conn does not retain req), and replies
// decode straight into the query's out or KBest.
type remoteLegs struct {
	r   *Router
	enc []byte
}

func (l *remoteLegs) Begin() ([]shard.Summary, uint64, error) { return l.r.meta() }
func (l *remoteLegs) End()                                    {}
func (l *remoteLegs) Skewed()                                 { l.r.invalidateMeta() }
func (l *remoteLegs) Close()                                  {}

func (l *remoteLegs) Range(s int, epoch uint64, q geom.AABB, out []int32, _ *query.CrawlCoverage) ([]int32, bool, error) {
	l.enc = appendRangeReq(l.enc[:0], rangeReq{Epoch: epoch, Box: q})
	b, err := l.r.rpc.call(s, opRange, l.enc)
	if err != nil {
		return out, false, err
	}
	resp, err := decodeRangeResp(b, out)
	if err != nil {
		return out, false, err
	}
	return resp.IDs, !resp.Skew, nil
}

func (l *remoteLegs) KNN(s int, epoch uint64, p geom.Vec3, k int, kb *query.KBest, _ *query.CrawlCoverage) (int, bool, error) {
	l.enc = appendKNNReq(l.enc[:0], knnReq{Epoch: epoch, P: p, K: k, Full: kb.Full(), Bound2: kb.Bound()})
	b, err := l.r.rpc.call(s, opKNN, l.enc)
	if err != nil {
		return 0, false, err
	}
	resp, err := decodeKNNResp(b, kb.Offer)
	if err != nil {
		return 0, false, err
	}
	return resp.Rounds, !resp.Skew, nil
}

// Close drops every connection. The router may keep serving afterwards
// (connections redial lazily); Close is for orderly shutdown.
func (r *Router) Close() { r.rpc.close() }
