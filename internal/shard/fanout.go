package shard

import (
	"errors"
	"sync/atomic"

	"octopus/internal/geom"
	"octopus/internal/query"
)

// ErrEpochSkew is returned when shards keep disagreeing on the epoch
// after the bounded re-plan rounds: the fan-out refuses to merge replies
// from different steps — a wrong answer is worse than an error.
var ErrEpochSkew = errors.New("shard: shards disagree on the published epoch (persistent skew)")

// maxQueryRounds bounds the re-plan loop a skewed reply triggers; a query
// that cannot pin one epoch across every shard it needs within this many
// rounds fails with ErrEpochSkew.
const maxQueryRounds = 4

// Legs is what the fan-out needs of the shards, wherever they live: one
// consistent view to plan from and one call per shard. In process the
// view is the coherence gate held for the query and a leg is an Exec
// call; across the wire it is the router's cached metadata and an RPC
// whose reply proves the epoch it answered at.
type Legs interface {
	// Begin opens a view: the shards' summaries, in shard order, and the
	// epoch they — and every reply merged under the view — are valid at.
	// The summaries are only read, and only until End.
	Begin() (sums []Summary, epoch uint64, err error)
	// End closes the view a successful Begin opened.
	End()
	// Range appends shard s's owned vertices inside q at epoch to out and
	// adds the shard's crawl coverage to cov. ok is false when the shard
	// proved another epoch.
	Range(s int, epoch uint64, q geom.AABB, out []int32, cov *query.CrawlCoverage) (res []int32, ok bool, err error)
	// KNN offers shard s's owned candidates for the k nearest of p at
	// epoch into kb, whose (Full, Bound) before the call is the global
	// bound the shard widens under, and returns its widening rounds.
	KNN(s int, epoch uint64, p geom.Vec3, k int, kb *query.KBest, cov *query.CrawlCoverage) (rounds int, ok bool, err error)
	// Skewed reports that a reply proved another epoch than the view's:
	// the next Begin must not serve the same view again.
	Skewed()
	// Close releases per-leg query state.
	Close()
}

// FanoutCounters are the routing statistics every Fanout of one router
// accumulates into — the one struct behind shard.Router.FanoutStats and
// dist.Router.Stats. The query counters advance once per call, cache
// hits included; fan-out, scanned and widening totals count only the
// round that produced the answer.
type FanoutCounters struct {
	RangeQueries, RangeFanout            atomic.Int64
	KNNQueries, KNNScanned, KNNWidenings atomic.Int64
	// SkewRequeries counts re-plans forced by a skewed reply; CacheHits
	// counts queries answered from the result cache, with no leg called.
	SkewRequeries, CacheHits atomic.Int64
}

// Fanout is the cross-shard query cursor, and the only one: plan the
// shards from one view, call each, merge what they report, and — when a
// reply proves the view stale — discard the partial merge and re-plan
// from a fresh view, a bounded number of times. It implements
// query.Cursor, KNNCursor, PinnedCursor, ErrorReporter, CoverageReporter
// and KNNBoundReporter. Like every cursor it is not safe for concurrent
// use; distinct cursors are.
type Fanout struct {
	legs Legs
	n    *FanoutCounters
	// cache, when non-nil, answers repeat queries before any leg is
	// called and is filled by its own rule (ResultCache.KeepRange/KeepKNN)
	// with every exact merge. The in-process router has none (the
	// Pipeline's cache sits in front of it).
	cache *query.ResultCache

	// The query being run.
	knn bool
	q   geom.AABB
	p   geom.Vec3
	k   int

	kb    query.KBest
	plan  []int
	order []ShardDist

	epoch  uint64
	err    error
	cov    query.CrawlCoverage
	ball2  float64
	ballOK bool
}

// NewFanout returns a cursor over legs that counts into n and consults
// cache (nil for none).
func NewFanout(legs Legs, n *FanoutCounters, cache *query.ResultCache) *Fanout {
	return &Fanout{legs: legs, n: n, cache: cache}
}

// Query implements query.Cursor: fan out to the shards whose summary
// meets q (PlanRangeFanout) and concatenate their owned hits. Result
// order is unspecified, like every engine's. The result is exact at LastEpoch;
// when a leg fails or the shards never settle on one epoch, out comes
// back unchanged — never a partial merge — and LastError says why.
func (f *Fanout) Query(q geom.AABB, out []int32) []int32 {
	f.n.RangeQueries.Add(1)
	if f.cache != nil {
		if res, epoch, ok := f.cache.GetRange(q); ok {
			return f.hit(res, epoch, out)
		}
	}
	f.knn, f.q = false, q
	base := len(out)
	out = f.run(out)
	if f.cache != nil {
		f.cache.KeepRange(q, f, append([]int32(nil), out[base:]...))
	}
	return out
}

// KNN implements query.KNNCursor: best-first over shards by owned-box
// distance under one global query.KBest, skipping a shard whose
// occupancy misses the current bound's cube. The result is nearest first
// with ties broken by ascending global id — bit-identical to
// query.BruteForceKNN whenever every shard is exact on its sub-mesh.
// Failures follow Query's contract.
func (f *Fanout) KNN(p geom.Vec3, k int, out []int32) []int32 {
	f.n.KNNQueries.Add(1)
	f.ballOK = false
	if f.cache != nil {
		if res, epoch, ok := f.cache.GetKNN(p, k); ok {
			return f.hit(res, epoch, out)
		}
	}
	f.knn, f.p, f.k = true, p, k
	base := len(out)
	out = f.run(out)
	if f.cache != nil {
		f.cache.KeepKNN(p, k, f, append([]int32(nil), out[base:]...))
	}
	return out
}

func (f *Fanout) hit(res []int32, epoch uint64, out []int32) []int32 {
	f.n.CacheHits.Add(1)
	f.epoch, f.err, f.cov = epoch, nil, query.CrawlCoverage{}
	return append(out, res...)
}

// run executes the current query: one round per view, until a round
// merges every leg at the view's epoch.
func (f *Fanout) run(out []int32) []int32 {
	f.epoch, f.err = 0, nil
	for round := 0; round < maxQueryRounds; round++ {
		res, done := f.round(out)
		if done || f.err != nil {
			return res
		}
		f.n.SkewRequeries.Add(1)
		f.legs.Skewed()
	}
	f.err = ErrEpochSkew
	return out
}

// round plans and merges under one view. done is false when a leg failed
// (f.err is set) or proved another epoch; res is then out, unchanged.
func (f *Fanout) round(out []int32) (res []int32, done bool) {
	sums, epoch, err := f.legs.Begin()
	if err != nil {
		f.err = err
		return out, false
	}
	defer f.legs.End()
	f.cov = query.CrawlCoverage{}
	if f.knn {
		res, done = f.mergeKNN(sums, epoch, out)
	} else {
		res, done = f.mergeRange(sums, epoch, out)
	}
	if !done {
		return out, false
	}
	f.epoch = epoch
	return res, true
}

func (f *Fanout) mergeRange(sums []Summary, epoch uint64, out []int32) ([]int32, bool) {
	f.plan = PlanRangeFanout(sums, f.q, f.plan[:0])
	for _, s := range f.plan {
		var ok bool
		out, ok, f.err = f.legs.Range(s, epoch, f.q, out, &f.cov)
		if !ok || f.err != nil {
			return nil, false
		}
	}
	f.n.RangeFanout.Add(int64(len(f.plan)))
	return out, true
}

func (f *Fanout) mergeKNN(sums []Summary, epoch uint64, out []int32) ([]int32, bool) {
	if f.k <= 0 || len(sums) == 0 {
		return out, true
	}
	// The shard containing (or nearest to) p is scanned first, so the
	// bound tightens as early as possible.
	f.order = PlanKNNOrder(sums, f.p, f.order[:0])
	f.kb.Reset(f.k)
	scanned, widened := 0, 0
	for _, sd := range f.order {
		if f.kb.Full() {
			// Prune strictly: a shard at exactly the bound distance can
			// still hold an equal-distance vertex with a smaller global
			// id, which the (dist, id) ordering ranks ahead of the
			// current k-th.
			if sd.D2 > f.kb.Bound() {
				break
			}
			// A shard whose box is within the bound but whose occupied
			// cells all miss the bound's cube holds nothing that could
			// enter the heap; the shards after it still might.
			if !sums[sd.Shard].Occ.MeetsCube(f.p, f.kb.Bound()) {
				continue
			}
		}
		scanned++
		rounds, ok, err := f.legs.KNN(sd.Shard, epoch, f.p, f.k, &f.kb, &f.cov)
		if !ok || err != nil {
			f.err = err
			return nil, false
		}
		widened += rounds
	}
	f.n.KNNScanned.Add(int64(scanned))
	f.n.KNNWidenings.Add(int64(widened))
	// Capture the kNN ball before AppendSorted drains the heap.
	f.ball2, f.ballOK = f.kb.Bound(), true
	return f.kb.AppendSorted(out), true
}

// LastEpoch implements query.PinnedCursor: the epoch the most recent
// query is exact at (0 after a failure).
func (f *Fanout) LastEpoch() uint64 { return f.epoch }

// LastError implements query.ErrorReporter: why the most recent query
// returned nothing — an unreachable shard, or ErrEpochSkew — and nil when
// it succeeded. In-process legs never fail.
func (f *Fanout) LastError() error { return f.err }

// LastCoverage implements query.CoverageReporter: the crawl coverage of
// the shards the most recent successful query fanned out to, merged by
// CrawlCoverage.Add. Owned-scan fallbacks and remote legs are exact and
// contribute nothing.
func (f *Fanout) LastCoverage() query.CrawlCoverage { return f.cov }

// LastKNNBound2 implements query.KNNBoundReporter: the global k-th-best
// squared distance of the most recent KNN (+Inf when the whole mesh held
// fewer than k vertices); ok is false when that KNN merged nothing — it
// failed, had k <= 0, or was a cache hit.
func (f *Fanout) LastKNNBound2() (float64, bool) { return f.ball2, f.ballOK }

// Close implements query.Cursor, folding per-shard cursor statistics into
// the shard engines.
func (f *Fanout) Close() { f.legs.Close() }
