package query

import (
	"math"

	"octopus/internal/geom"
	"octopus/internal/mesh"
)

// KNNQuery is one k-nearest-neighbor probe: the k mesh vertices closest
// (by Euclidean distance, ties broken by smaller vertex id) to the probe
// point P.
type KNNQuery struct {
	P geom.Vec3
	K int
}

// KNNEngine is implemented by engines that answer k-nearest-neighbor
// queries over the current mesh state. Like range queries, kNN executes
// against the positions as they are now; the same update/monitor
// alternation applies (no KNN concurrently with Step or deformation).
type KNNEngine interface {
	// KNN appends the ids of the k vertices closest to p to out, nearest
	// first (ties broken by ascending id), and returns the extended slice.
	// Fewer than k ids are returned only when the mesh has fewer than k
	// vertices. k <= 0 appends nothing.
	KNN(p geom.Vec3, k int, out []int32) []int32
}

// KNNCursor is per-goroutine kNN scratch: the kNN analog of Cursor.Query.
// Cursor embeds it, so every cursor answers kNN.
type KNNCursor interface {
	KNN(p geom.Vec3, k int, out []int32) []int32
}

// ParallelKNNEngine is an engine that supports both batched parallel range
// queries and kNN queries. Every engine constructor in this repository
// returns one.
type ParallelKNNEngine interface {
	ParallelEngine
	KNNEngine
}

// KNNBoundReporter is implemented by cursors that can report the squared
// k-th-best distance — the kNN ball — of their most recent KNN call. The
// result cache uses it to build the invalidation ball: the cached result
// can only change if a vertex moves into or out of the closed ball of
// that radius around the probe. ok is false when the cursor's most
// recent KNN could not determine the ball; such results, like those of
// cursors that do not implement the interface (StatelessCursor, whose
// engine answers from an internal snapshot it cannot read positions of),
// are simply not cached. The value is only meaningful immediately after
// a KNN call — a later range query does not reset it.
type KNNBoundReporter interface {
	// LastKNNBound2 returns the squared distance of the k-th result of
	// the most recent KNN (+Inf when fewer than k vertices exist — the
	// whole mesh is in the result and any movement can reorder it).
	LastKNNBound2() (ball2 float64, ok bool)
}

// KNNRestrictor is implemented by kNN cursors that can rank a subset of
// the mesh: after RestrictKNN(keep, ceiling2) a KNN call returns the k
// best by (squared distance, id) of the vertices v with keep[v] and
// squared distance at most ceiling2 — fewer than k when fewer qualify —
// and may prune its search with that ceiling. keep nil and ceiling2 = +Inf
// mean unrestricted. The restriction is cursor state: it holds for every
// later KNN until replaced, and range queries ignore it. A shard leg uses
// it to rank only the vertices it owns, within the global k-th best.
type KNNRestrictor interface {
	RestrictKNN(keep []bool, ceiling2 float64)
}

// ExecuteKNNBatch executes kNN probes against eng using a pool of workers,
// each with its own cursor, and returns one result slice per probe
// (results[i] answers probes[i], nearest first). workers <= 0 uses
// GOMAXPROCS. Results are deterministic and identical to serial execution
// for every engine (ties broken by vertex id): the batch's cursors are
// fresh, so they run exact.
//
// The same exclusion rule as ExecuteBatch applies: no Step, deformation or
// restructuring may overlap the batch.
func ExecuteKNNBatch(eng ParallelKNNEngine, probes []KNNQuery, workers int) [][]int32 {
	return runBatch(eng, len(probes), workers, func(cur Cursor) func(int) []int32 {
		return func(i int) []int32 { return cur.KNN(probes[i].P, probes[i].K, nil) }
	})
}

// BruteForceKNN returns the ground-truth k nearest vertices to p by
// scanning all positions, nearest first with ties broken by ascending id —
// the ordering contract every KNNEngine must reproduce exactly.
func BruteForceKNN(m *mesh.Mesh, p geom.Vec3, k int) []int32 {
	return ScanKNNPositions(m.Positions(), p, k, nil)
}

// ScanKNNPositions appends the k nearest ids to p by scanning pos — the
// kNN scan over an explicit position array, shared by BruteForceKNN and
// ScanCursor.
func ScanKNNPositions(pos []geom.Vec3, p geom.Vec3, k int, out []int32) []int32 {
	var b KBest
	b.Reset(k)
	for i, q := range pos {
		b.Offer(q.Dist2(p), int32(i))
	}
	return b.AppendSorted(out)
}

// kitem is one KBest candidate.
type kitem struct {
	d  float64 // squared distance to the probe point
	id int32
}

// worse reports whether a is a strictly worse candidate than b: farther,
// or equally far with a larger id. The id tie-break makes every kNN result
// set unique, so engines built on entirely different traversals agree
// bit-for-bit with the brute-force ground truth.
func worse(a, b kitem) bool {
	return a.d > b.d || (a.d == b.d && a.id > b.id)
}

// KBest is a bounded max-heap of the k best (closest) candidates seen so
// far — the selection heap shared by every kNN implementation: the linear
// scan, the tree descents, the grid ring search and the OCTOPUS crawl. The
// root is the current worst of the k best; Bound exposes its distance as
// the pruning radius.
//
// The zero value is empty; Reset prepares it for a query of a given k. It
// is not safe for concurrent use (each cursor owns one).
type KBest struct {
	k     int
	items []kitem
}

// Reset prepares the heap for a fresh query keeping the k best candidates.
// The backing array is reused across queries.
func (b *KBest) Reset(k int) {
	if k < 0 {
		k = 0
	}
	b.k = k
	b.items = b.items[:0]
}

// Len returns the number of candidates currently held.
func (b *KBest) Len() int { return len(b.items) }

// K returns the k the heap was last Reset for.
func (b *KBest) K() int { return b.k }

// Full reports whether k candidates are held, i.e. whether Bound prunes.
func (b *KBest) Full() bool { return b.k > 0 && len(b.items) >= b.k }

// Bound returns the squared distance of the current k-th best candidate,
// or +Inf while fewer than k candidates are held. A vertex or subtree
// whose squared distance exceeds Bound cannot enter the result.
func (b *KBest) Bound() float64 {
	if !b.Full() {
		return math.Inf(1)
	}
	return b.items[0].d
}

// Offer considers candidate id at squared distance d, keeping it only if
// it beats the current k-th best (or the heap is not yet full).
func (b *KBest) Offer(d float64, id int32) {
	if b.k == 0 {
		return
	}
	it := kitem{d: d, id: id}
	if len(b.items) < b.k {
		b.items = append(b.items, it)
		b.siftUp(len(b.items) - 1)
		return
	}
	if !worse(b.items[0], it) {
		return
	}
	b.items[0] = it
	b.siftDown(0)
}

func (b *KBest) siftUp(i int) {
	for i > 0 {
		p := (i - 1) / 2
		if !worse(b.items[i], b.items[p]) {
			return
		}
		b.items[p], b.items[i] = b.items[i], b.items[p]
		i = p
	}
}

func (b *KBest) siftDown(i int) {
	for {
		l, r := 2*i+1, 2*i+2
		worst := i
		if l < len(b.items) && worse(b.items[l], b.items[worst]) {
			worst = l
		}
		if r < len(b.items) && worse(b.items[r], b.items[worst]) {
			worst = r
		}
		if worst == i {
			return
		}
		b.items[i], b.items[worst] = b.items[worst], b.items[i]
		i = worst
	}
}

// AppendSorted drains the heap, appending the held ids to out nearest
// first (ties by ascending id), and returns the extended slice. The heap
// is empty afterwards and ready for the next Reset.
func (b *KBest) AppendSorted(out []int32) []int32 {
	n := len(b.items)
	base := len(out)
	out = append(out, make([]int32, n)...)
	for i := n - 1; i >= 0; i-- {
		// Pop the current worst into its final slot, back to front.
		out[base+i] = b.items[0].id
		last := len(b.items) - 1
		b.items[0] = b.items[last]
		b.items = b.items[:last]
		b.siftDown(0)
	}
	return out
}

// AppendSortedDists drains the heap like AppendSorted, appending the
// held ids to ids and the matching squared distances to d2s (nearest
// first, ties by ascending id). A remote shard server uses it to ship
// its owned candidates as (d2, id) pairs, so the router can merge them
// into its global heap without access to the shard's positions.
func (b *KBest) AppendSortedDists(ids []int32, d2s []float64) ([]int32, []float64) {
	n := len(b.items)
	idBase, dBase := len(ids), len(d2s)
	ids = append(ids, make([]int32, n)...)
	d2s = append(d2s, make([]float64, n)...)
	for i := n - 1; i >= 0; i-- {
		ids[idBase+i] = b.items[0].id
		d2s[dBase+i] = b.items[0].d
		last := len(b.items) - 1
		b.items[0] = b.items[last]
		b.items = b.items[:last]
		b.siftDown(0)
	}
	return ids, d2s
}

// MemoryBytes returns the heap's backing footprint.
func (b *KBest) MemoryBytes() int64 { return int64(cap(b.items)) * 16 }
