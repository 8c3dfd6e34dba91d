package main

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math"
	"math/rand"
	"slices"
	"sort"
	"sync"
	"time"

	"octopus/internal/core"
	"octopus/internal/geom"
	"octopus/internal/mesh"
	"octopus/internal/query"
	"octopus/internal/workload"
)

// The query mix every workload shares: 80 % range with selectivity drawn
// from selectivities, 20 % kNN with k in [knnKMin, knnKMax]. The draws
// are stratified — selectivities in rotation, every knnEvery-th op a
// probe — so that every seed and every prefix of a stream holds the same
// mix and seeds differ in where the queries fall, not in how heavy the
// workload is.
var selectivities = []float64{0.0001, 0.001, 0.01}

const (
	knnEvery = 5
	knnKMin  = 8
	knnKMax  = 32
)

// op is one query of the generated stream.
type op struct {
	KNN bool
	Box geom.AABB // range query
	P   geom.Vec3 // kNN probe
	K   int
}

// genPools draws nRange range queries and nKNN probes over the pristine
// mesh m from seed. A query whose single-mesh OCTOPUS answer differs
// from brute force on the undeformed mesh is dropped, as the root tests
// do: OCTOPUS is exact only while a result set is edge-connected inside
// its box, and a box below the mesh spacing can break that (DESIGN.md
// §8). The drop decision depends on m and the seed alone, so the pools
// are a pure function of both.
func genPools(m *mesh.Mesh, nRange, nKNN int, seed int64) ([]geom.AABB, []query.KNNQuery) {
	g := workload.NewGenerator(m, 4096, seed)
	oracle := core.New(m)

	// Slot i of the range pool always has selectivity i mod 3; a dropped
	// candidate leaves its slot to the next round's.
	ranges := make([]geom.AABB, nRange)
	pending := make([]int, nRange)
	for i := range pending {
		pending[i] = i
	}
	for len(pending) > 0 {
		for _, slot := range pending {
			ranges[slot] = g.QueryWithSelectivity(selectivities[slot%len(selectivities)])
		}
		keep := filterParallel(len(pending), oracle, func(cur *core.Cursor, i int) bool {
			q := ranges[pending[i]]
			return query.Diff(cur.Query(q, nil), query.BruteForce(m, q)) == ""
		})
		pending = dropKept(pending, keep)
	}
	knns := make([]query.KNNQuery, nKNN)
	pending = pending[:0]
	for i := range knns {
		pending = append(pending, i)
	}
	for len(pending) > 0 {
		for i, q := range g.KNNQueries(len(pending), knnKMin, knnKMax, 0) {
			knns[pending[i]] = q
		}
		keep := filterParallel(len(pending), oracle, func(cur *core.Cursor, i int) bool {
			q := knns[pending[i]]
			return slices.Equal(cur.KNN(q.P, q.K, nil), query.BruteForceKNN(m, q.P, q.K))
		})
		pending = dropKept(pending, keep)
	}
	return ranges, knns
}

// dropKept returns the slots whose candidate was not kept.
func dropKept(slots []int, keep []bool) []int {
	var left []int
	for i, slot := range slots {
		if !keep[i] {
			left = append(left, slot)
		}
	}
	return left
}

// filterParallel evaluates keep(i) for i in [0,n) on two oracle cursors;
// the verdicts land by index, so the outcome does not depend on
// scheduling.
func filterParallel(n int, oracle *core.Octopus, keep func(cur *core.Cursor, i int) bool) []bool {
	out := make([]bool, n)
	const workers = 2
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			cur := oracle.NewCursor().(*core.Cursor)
			for i := w; i < n; i += workers {
				out[i] = keep(cur, i)
			}
		}(w)
	}
	wg.Wait()
	return out
}

// mixOps interleaves the two pools into one stream, every knnEvery-th op
// a probe; the pools must be in the poolSizes proportion.
func mixOps(ranges []geom.AABB, knns []query.KNNQuery) []op {
	ops := make([]op, 0, len(ranges)+len(knns))
	for len(ranges) > 0 || len(knns) > 0 {
		if len(knns) > 0 && (len(ops)%knnEvery == knnEvery-1 || len(ranges) == 0) {
			ops = append(ops, op{KNN: true, P: knns[0].P, K: knns[0].K})
			knns = knns[1:]
			continue
		}
		ops = append(ops, op{Box: ranges[0]})
		ranges = ranges[1:]
	}
	return ops
}

// poolSizes splits a pool of n queries by the 80/20 mix.
func poolSizes(n int) (nRange, nKNN int) {
	nKNN = n / knnEvery
	return n - nKNN, nKNN
}

// poissonSchedule returns the due offsets of a Poisson arrival process of
// the given rate (1/s) over dur.
func poissonSchedule(rng *rand.Rand, rate float64, dur time.Duration) []time.Duration {
	var due []time.Duration
	t := 0.0
	for {
		t += rng.ExpFloat64() / rate
		d := time.Duration(t * float64(time.Second))
		if d >= dur {
			return due
		}
		due = append(due, d)
	}
}

// zipf draws ranks in [0,n) with P(rank r) proportional to 1/(r+1)^s.
// math/rand's Zipf has a different parameterisation (it needs s > 1 and
// an offset v); an explicit CDF keeps the theoretical shares checkable.
type zipf struct{ cdf []float64 }

func newZipf(n int, s float64) *zipf {
	cdf := make([]float64, n)
	sum := 0.0
	for r := range cdf {
		sum += 1 / math.Pow(float64(r+1), s)
		cdf[r] = sum
	}
	for r := range cdf {
		cdf[r] /= sum
	}
	return &zipf{cdf: cdf}
}

func (z *zipf) draw(rng *rand.Rand) int {
	r := sort.SearchFloat64s(z.cdf, rng.Float64())
	if r >= len(z.cdf) {
		r = len(z.cdf) - 1
	}
	return r
}

// topShare is the theoretical probability mass of the k most popular
// ranks.
func (z *zipf) topShare(k int) float64 { return z.cdf[k-1] }

// request is one scheduled query of a client: the op to send and, in an
// open loop, when it is due.
type request struct {
	Due time.Duration
	Op  int // index into the op pool
}

// digest fingerprints an op pool plus the request streams drawn over it:
// the same seed must give the same bytes.
func digest(ops []op, streams ...[]request) string {
	h := sha256.New()
	var buf [8]byte
	f := func(x float64) {
		binary.LittleEndian.PutUint64(buf[:], math.Float64bits(x))
		h.Write(buf[:])
	}
	n := func(x int64) {
		binary.LittleEndian.PutUint64(buf[:], uint64(x))
		h.Write(buf[:])
	}
	for _, o := range ops {
		if o.KNN {
			n(int64(o.K))
			f(o.P.X)
			f(o.P.Y)
			f(o.P.Z)
			continue
		}
		n(0)
		for _, v := range []geom.Vec3{o.Box.Min, o.Box.Max} {
			f(v.X)
			f(v.Y)
			f(v.Z)
		}
	}
	for _, s := range streams {
		n(int64(len(s)))
		for _, r := range s {
			n(int64(r.Due))
			n(int64(r.Op))
		}
	}
	return hex.EncodeToString(h.Sum(nil))
}
