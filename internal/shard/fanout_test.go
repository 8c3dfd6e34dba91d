package shard

import (
	"errors"
	"fmt"
	"math"
	"slices"
	"strings"
	"testing"

	"octopus/internal/geom"
	"octopus/internal/query"
)

// The fan-out loop against scripted legs: no mesh, no servers. Every
// contract the two routers used to restate — the epoch proof, the bounded
// re-plan, the strict prune, the pre-drain ball, "an error means zero
// ids" — is pinned here, where the loop now lives.

type fakeCand struct {
	d2  float64
	gid int32
}

// fakeShard is one shard's scripted behaviour under one view.
type fakeShard struct {
	box    geom.AABB
	occ    *Occupancy // nil: everyCell
	ids    []int32    // range reply
	cands  []fakeCand // kNN reply
	rounds int        // kNN widening rounds
	cov    query.CrawlCoverage
	skew   bool
	err    error
}

// everyCell has every cell set: it prunes nothing, whatever the frame,
// so a fake shard with it is planned by its box alone.
var everyCell = Occupancy{Bits: [occSide]uint64{^uint64(0), ^uint64(0), ^uint64(0), ^uint64(0), ^uint64(0), ^uint64(0), ^uint64(0), ^uint64(0)}}

type fakeView struct {
	epoch  uint64
	shards []fakeShard
}

// fakeLegs serves views[i] to the i-th Begin (the last one repeats) and
// records what the fan-out did with them.
type fakeLegs struct {
	t        *testing.T
	views    []fakeView
	beginErr error

	cur                 *fakeView
	begins, ends, skews int
	closed              bool
	calls               []int // shards called, across all rounds
}

func (l *fakeLegs) Begin() ([]Summary, uint64, error) {
	if l.cur != nil {
		l.t.Error("Begin inside an open view")
	}
	if l.beginErr != nil {
		return nil, 0, l.beginErr
	}
	l.cur = &l.views[min(l.begins, len(l.views)-1)]
	l.begins++
	sums := make([]Summary, len(l.cur.shards))
	for s, sh := range l.cur.shards {
		sums[s] = Summary{Box: sh.box, Occ: everyCell}
		if sh.occ != nil {
			sums[s].Occ = *sh.occ
		}
	}
	return sums, l.cur.epoch, nil
}

func (l *fakeLegs) End() {
	if l.cur == nil {
		l.t.Error("End without an open view")
	}
	l.cur = nil
	l.ends++
}

func (l *fakeLegs) leg(s int, epoch uint64) *fakeShard {
	if l.cur == nil {
		l.t.Fatal("leg called outside a view")
	}
	if epoch != l.cur.epoch {
		l.t.Errorf("leg asked for epoch %d under a view at %d", epoch, l.cur.epoch)
	}
	l.calls = append(l.calls, s)
	return &l.cur.shards[s]
}

func (l *fakeLegs) Range(s int, epoch uint64, _ geom.AABB, out []int32, cov *query.CrawlCoverage) ([]int32, bool, error) {
	sh := l.leg(s, epoch)
	if sh.err != nil {
		return out, false, sh.err
	}
	cov.Add(sh.cov)
	return append(out, sh.ids...), !sh.skew, nil
}

func (l *fakeLegs) KNN(s int, epoch uint64, _ geom.Vec3, _ int, kb *query.KBest, cov *query.CrawlCoverage) (int, bool, error) {
	sh := l.leg(s, epoch)
	if sh.err != nil {
		return 0, false, sh.err
	}
	for _, c := range sh.cands {
		kb.Offer(c.d2, c.gid)
	}
	cov.Add(sh.cov)
	return sh.rounds, !sh.skew, nil
}

func (l *fakeLegs) Skewed() { l.skews++ }
func (l *fakeLegs) Close()  { l.closed = true }

var unit = geom.AABB{Min: geom.V(0, 0, 0), Max: geom.V(1, 1, 1)}

// occAt is an occupancy over the frame [0, 8]³ — unit cells — with the
// given cells set.
func occAt(cells ...[3]uint) *Occupancy {
	o := &Occupancy{Frame: geom.AABB{Max: geom.V(occSide, occSide, occSide)}}
	for _, c := range cells {
		o.Bits[c[2]] |= 1 << (8*c[1] + c[0])
	}
	return o
}

// boxAt is a unit box whose nearest point to the origin is (x, 0, 0).
func boxAt(x float64) geom.AABB {
	return geom.AABB{Min: geom.V(x, 0, 0), Max: geom.V(x+1, 1, 1)}
}

func counters(n *FanoutCounters) [7]int64 {
	return [7]int64{n.RangeQueries.Load(), n.RangeFanout.Load(), n.KNNQueries.Load(),
		n.KNNScanned.Load(), n.KNNWidenings.Load(), n.SkewRequeries.Load(), n.CacheHits.Load()}
}

// TestFanoutSkewDiscardsAndReplans: a skewed n-th leg throws away what
// the earlier legs merged, tells the legs, and re-plans from the next
// view — whose boxes may route differently — for both query kinds.
func TestFanoutSkewDiscardsAndReplans(t *testing.T) {
	far := boxAt(10) // the fresh view moves shard 2 out of the query box
	for n := 0; n < 3; n++ {
		stale := fakeView{epoch: 4, shards: []fakeShard{
			{box: unit, ids: []int32{10, 11}, cands: []fakeCand{{1, 10}}, rounds: 5, cov: query.CrawlCoverage{Visited: 100}},
			{box: unit, ids: []int32{20}, cands: []fakeCand{{2, 20}}, rounds: 5},
			{box: unit, ids: []int32{30}, cands: []fakeCand{{3, 30}}, rounds: 5},
		}}
		stale.shards[n].skew = true
		fresh := fakeView{epoch: 5, shards: []fakeShard{
			{box: unit, ids: []int32{12}, cands: []fakeCand{{1.5, 12}}, rounds: 1, cov: query.CrawlCoverage{Visited: 7}},
			{box: unit, ids: []int32{21, 22}, cands: []fakeCand{{2.5, 21}}},
			{box: far, ids: []int32{31}, cands: []fakeCand{{0.1, 31}}},
		}}
		t.Run(fmt.Sprintf("range/leg%d", n), func(t *testing.T) {
			legs := &fakeLegs{t: t, views: []fakeView{stale, fresh}}
			var cnt FanoutCounters
			f := NewFanout(legs, &cnt, nil)
			got := f.Query(unit, []int32{-1})
			if want := []int32{-1, 12, 21, 22}; !slices.Equal(got, want) {
				t.Fatalf("got %v, want %v: stale ids survived the skew", got, want)
			}
			if f.LastError() != nil || f.LastEpoch() != 5 {
				t.Fatalf("epoch %d err %v, want the fresh view's 5", f.LastEpoch(), f.LastError())
			}
			if legs.begins != 2 || legs.ends != 2 || legs.skews != 1 {
				t.Fatalf("begins %d ends %d skews %d, want 2/2/1", legs.begins, legs.ends, legs.skews)
			}
			if want := append([]int{0, 1, 2}[:n+1:n+1], 0, 1); !slices.Equal(legs.calls, want) {
				t.Fatalf("legs called %v, want %v (stop at the skewed leg, then the fresh plan)", legs.calls, want)
			}
			if cov := f.LastCoverage(); cov.Visited != 7 {
				t.Fatalf("coverage %+v carries the discarded round", cov)
			}
			if got, want := counters(&cnt), [7]int64{1, 2, 0, 0, 0, 1, 0}; got != want {
				t.Fatalf("counters %v, want %v", got, want)
			}
		})
		t.Run(fmt.Sprintf("knn/leg%d", n), func(t *testing.T) {
			legs := &fakeLegs{t: t, views: []fakeView{stale, fresh}}
			var cnt FanoutCounters
			f := NewFanout(legs, &cnt, nil)
			got := f.KNN(geom.V(0, 0, 0), 3, nil)
			// The fresh shard 2 sits 10 away with the heap not yet full,
			// so it is scanned, and its candidate is the nearest.
			if want := []int32{31, 12, 21}; !slices.Equal(got, want) {
				t.Fatalf("got %v, want %v", got, want)
			}
			if ball2, ok := f.LastKNNBound2(); !ok || ball2 != 2.5 {
				t.Fatalf("ball %v %v, want 2.5", ball2, ok)
			}
			if f.LastEpoch() != 5 || legs.skews != 1 {
				t.Fatalf("epoch %d skews %d", f.LastEpoch(), legs.skews)
			}
			if got, want := counters(&cnt), [7]int64{0, 0, 1, 3, 1, 1, 0}; got != want {
				t.Fatalf("counters %v, want %v: only the answering round counts", got, want)
			}
		})
	}
}

// TestFanoutPersistentSkew: every view skews, so the query gives up
// after exactly maxQueryRounds views with ErrEpochSkew and out untouched.
func TestFanoutPersistentSkew(t *testing.T) {
	view := fakeView{epoch: 9, shards: []fakeShard{
		{box: unit, ids: []int32{1}, cands: []fakeCand{{1, 1}}},
		{box: unit, ids: []int32{2}, cands: []fakeCand{{2, 2}}, skew: true},
	}}
	for _, knn := range []bool{false, true} {
		legs := &fakeLegs{t: t, views: []fakeView{view}}
		var cnt FanoutCounters
		f := NewFanout(legs, &cnt, nil)
		in := []int32{-7}
		var got []int32
		if knn {
			got = f.KNN(geom.V(0, 0, 0), 2, in)
		} else {
			got = f.Query(unit, in)
		}
		if !slices.Equal(got, []int32{-7}) {
			t.Fatalf("knn=%v: got %v, want the caller's out unchanged", knn, got)
		}
		if !errors.Is(f.LastError(), ErrEpochSkew) || f.LastEpoch() != 0 {
			t.Fatalf("knn=%v: err %v epoch %d, want ErrEpochSkew at epoch 0", knn, f.LastError(), f.LastEpoch())
		}
		if legs.begins != maxQueryRounds || legs.ends != maxQueryRounds || legs.skews != maxQueryRounds {
			t.Fatalf("knn=%v: begins %d ends %d skews %d, want %d each", knn, legs.begins, legs.ends, legs.skews, maxQueryRounds)
		}
		if _, ok := f.LastKNNBound2(); knn && ok {
			t.Fatal("a failed kNN reported an invalidation ball")
		}
		c := counters(&cnt)
		if c[1] != 0 || c[3] != 0 || c[5] != maxQueryRounds {
			t.Fatalf("knn=%v: counters %v: discarded rounds were counted as fan-out", knn, c)
		}
	}
}

// TestFanoutLegError: a failing leg ends the query at once — no re-plan,
// zero ids, the view closed, the leg's error (which names the shard)
// surfaced verbatim.
func TestFanoutLegError(t *testing.T) {
	boom := errors.New("dist: shard 1 (addr) unreachable after 3 attempts")
	for _, knn := range []bool{false, true} {
		legs := &fakeLegs{t: t, views: []fakeView{{epoch: 3, shards: []fakeShard{
			{box: unit, ids: []int32{1, 2, 3}, cands: []fakeCand{{1, 1}}},
			{box: unit, err: boom},
			{box: unit, ids: []int32{4}, cands: []fakeCand{{2, 4}}},
		}}}}
		f := NewFanout(legs, new(FanoutCounters), nil)
		var got []int32
		if knn {
			got = f.KNN(geom.V(0, 0, 0), 8, nil)
		} else {
			got = f.Query(unit, nil)
		}
		if len(got) != 0 {
			t.Fatalf("knn=%v: %d ids alongside an error", knn, len(got))
		}
		if err := f.LastError(); err != boom || !strings.Contains(err.Error(), "shard 1") {
			t.Fatalf("knn=%v: error %v does not name the shard", knn, err)
		}
		if legs.begins != 1 || legs.ends != 1 || legs.skews != 0 || !slices.Equal(legs.calls, []int{0, 1}) {
			t.Fatalf("knn=%v: begins %d ends %d skews %d calls %v", knn, legs.begins, legs.ends, legs.skews, legs.calls)
		}
		// The cursor recovers on the next query.
		legs.views[0].shards[1] = fakeShard{box: unit, ids: []int32{9}}
		if got := f.Query(unit, nil); !slices.Equal(got, []int32{1, 2, 3, 9, 4}) || f.LastError() != nil {
			t.Fatalf("after recovery: %v, %v", got, f.LastError())
		}
	}

	legs := &fakeLegs{t: t, beginErr: boom}
	f := NewFanout(legs, new(FanoutCounters), nil)
	if got := f.Query(unit, []int32{5}); !slices.Equal(got, []int32{5}) || f.LastError() != boom || legs.ends != 0 {
		t.Fatalf("failed Begin: got %v err %v ends %d", got, f.LastError(), legs.ends)
	}
}

// TestFanoutKNNPrunesStrictly: with the heap full at bound 4, a shard
// whose box is exactly 4 away is still scanned — its equal-distance
// candidate with the smaller id wins — while one strictly beyond is not,
// and nothing after it either.
func TestFanoutKNNPrunesStrictly(t *testing.T) {
	view := fakeView{shards: []fakeShard{
		{box: boxAt(2.5), cands: []fakeCand{{0.5, 1}}}, // 6.25 > 4: never scanned
		{box: boxAt(0), cands: []fakeCand{{1, 5}, {4, 9}}},
		{box: boxAt(2), cands: []fakeCand{{4, 3}}, rounds: 2}, // exactly at the bound
		{box: boxAt(3), cands: []fakeCand{{0.25, 2}}},
	}}
	legs := &fakeLegs{t: t, views: []fakeView{view}}
	var cnt FanoutCounters
	f := NewFanout(legs, &cnt, nil)
	got := f.KNN(geom.V(0, 0, 0), 2, nil)
	if want := []int32{5, 3}; !slices.Equal(got, want) {
		t.Fatalf("got %v, want %v", got, want)
	}
	if want := []int{1, 2}; !slices.Equal(legs.calls, want) {
		t.Fatalf("scanned shards %v, want %v", legs.calls, want)
	}
	if ball2, ok := f.LastKNNBound2(); !ok || ball2 != 4 {
		t.Fatalf("ball %v %v, want 4 (read before the heap drains)", ball2, ok)
	}
	if got, want := counters(&cnt), [7]int64{0, 0, 1, 2, 2, 0, 0}; got != want {
		t.Fatalf("counters %v, want %v", got, want)
	}
}

// TestFanoutKNNPrunesByOccupancy: with the heap full at bound 4 (a cube
// of half-width 2 around p), a shard whose box is well within the bound
// but whose only occupied cell lies beyond the cube is skipped without a
// call — though the shard after it is still visited — while a shard
// whose one vertex sits exactly at the bound, on a cell edge, is called,
// and its equal-distance candidate with the smaller id wins.
func TestFanoutKNNPrunesByOccupancy(t *testing.T) {
	p := geom.V(1, 0.5, 0.5)
	view := fakeView{shards: []fakeShard{
		{box: unit, cands: []fakeCand{{1, 5}, {4, 9}}},
		// Box 0.25 away; its vertices sit in cell x = 4 (x in [4, 5)),
		// beyond the cube's x <= 3. The candidate would win if called.
		{box: geom.AABB{Min: geom.V(1.5, 0, 0), Max: geom.V(6, 1, 1)}, occ: occAt([3]uint{4, 0, 0}), cands: []fakeCand{{0.1, 1}}},
		// One vertex at x = 3: d² = 4 exactly, on the edge of cell 3.
		{box: geom.AABB{Min: geom.V(3, 0.5, 0.5), Max: geom.V(3, 0.5, 0.5)}, occ: occAt([3]uint{3, 0, 0}), cands: []fakeCand{{4, 3}}},
	}}
	legs := &fakeLegs{t: t, views: []fakeView{view}}
	var cnt FanoutCounters
	f := NewFanout(legs, &cnt, nil)
	got := f.KNN(p, 2, nil)
	if want := []int32{5, 3}; !slices.Equal(got, want) {
		t.Fatalf("got %v, want %v", got, want)
	}
	if want := []int{0, 2}; !slices.Equal(legs.calls, want) {
		t.Fatalf("scanned shards %v, want %v (shard 1's cells miss the cube)", legs.calls, want)
	}
	if got, want := counters(&cnt), [7]int64{0, 0, 1, 2, 0, 0, 0}; got != want {
		t.Fatalf("counters %v, want %v", got, want)
	}
	// The same view with the heap not yet full after shard 0 (k = 3):
	// nothing is pruned by occupancy before the bound exists.
	legs = &fakeLegs{t: t, views: []fakeView{view}}
	f = NewFanout(legs, new(FanoutCounters), nil)
	if got, want := f.KNN(p, 3, nil), []int32{1, 5, 3}; !slices.Equal(got, want) {
		t.Fatalf("k=3: got %v, want %v", got, want)
	}
	if want := []int{0, 1, 2}; !slices.Equal(legs.calls, want) {
		t.Fatalf("k=3: scanned shards %v, want %v", legs.calls, want)
	}
}

// TestFanoutRangePrunesByOccupancy: a shard whose box meets the query but
// whose occupied cells do not is never called; a query whose every leg
// is pruned answers empty at the view's epoch.
func TestFanoutRangePrunesByOccupancy(t *testing.T) {
	wide := geom.AABB{Max: geom.V(8, 8, 8)}
	view := fakeView{epoch: 3, shards: []fakeShard{
		{box: wide, occ: occAt([3]uint{0, 0, 0}), ids: []int32{1}},
		{box: wide, occ: occAt([3]uint{7, 7, 7}), ids: []int32{2}},
	}}
	legs := &fakeLegs{t: t, views: []fakeView{view}}
	var cnt FanoutCounters
	f := NewFanout(legs, &cnt, nil)
	q := geom.AABB{Min: geom.V(0.5, 0.5, 0.5), Max: geom.V(1, 1, 1)} // cells 0..1 on every axis
	if got := f.Query(q, nil); !slices.Equal(got, []int32{1}) || f.LastEpoch() != 3 {
		t.Fatalf("got %v at %d, want [1] at 3", got, f.LastEpoch())
	}
	if !slices.Equal(legs.calls, []int{0}) {
		t.Fatalf("called %v, want [0]", legs.calls)
	}
	mid := geom.AABB{Min: geom.V(3, 3, 3), Max: geom.V(4.5, 4.5, 4.5)}
	if got := f.Query(mid, []int32{-1}); !slices.Equal(got, []int32{-1}) || f.LastEpoch() != 3 || f.LastError() != nil {
		t.Fatalf("all legs pruned: got %v at %d err %v, want nothing at 3", got, f.LastEpoch(), f.LastError())
	}
	if !slices.Equal(legs.calls, []int{0}) || legs.begins != 2 {
		t.Fatalf("calls %v begins %d: a pruned query reached a leg", legs.calls, legs.begins)
	}
	if got, want := counters(&cnt), [7]int64{2, 1, 0, 0, 0, 0, 0}; got != want {
		t.Fatalf("counters %v, want %v", got, want)
	}
}

// TestPlanKNNOrder: the visit plan is sorted by (D2, Shard) — ties at
// equal box distance go to the lower shard — and, with out's capacity in
// place, planning allocates nothing (it runs once per kNN query, in
// process and on the wire).
func TestPlanKNNOrder(t *testing.T) {
	boxes := []geom.AABB{boxAt(3), boxAt(0), boxAt(2), boxAt(2), boxAt(-1)}
	sums := make([]Summary, len(boxes))
	for s, b := range boxes {
		sums[s] = Summary{Box: b, Occ: everyCell}
	}
	p := geom.V(0.5, 0.5, 0.5)
	out := PlanKNNOrder(sums, p, make([]ShardDist, 0, len(boxes)))
	var got []int
	for i, sd := range out {
		got = append(got, sd.Shard)
		if sd.D2 != boxes[sd.Shard].Dist2(p) {
			t.Fatalf("plan entry %d: D2 %v, want %v", i, sd.D2, boxes[sd.Shard].Dist2(p))
		}
	}
	if want := []int{1, 4, 2, 3, 0}; !slices.Equal(got, want) {
		t.Fatalf("plan order %v, want %v", got, want)
	}
	if allocs := testing.AllocsPerRun(100, func() { out = PlanKNNOrder(sums, p, out[:0]) }); allocs != 0 {
		t.Fatalf("PlanKNNOrder allocates %.1f times per plan, want 0", allocs)
	}
}

// TestPlanAndOccupancyAllocs: planning a range query and both occupancy
// tests allocate nothing — they run once per shard per query.
func TestPlanAndOccupancyAllocs(t *testing.T) {
	sums := []Summary{
		{Box: unit, Occ: *occAt([3]uint{0, 0, 0})},
		{Box: boxAt(2), Occ: *occAt([3]uint{2, 0, 0}, [3]uint{3, 1, 0})},
	}
	q := geom.AABB{Min: geom.V(0.5, 0.2, 0.2), Max: geom.V(2.5, 0.8, 0.8)}
	plan := PlanRangeFanout(sums, q, make([]int, 0, len(sums)))
	if !slices.Equal(plan, []int{0, 1}) {
		t.Fatalf("plan %v, want [0 1]", plan)
	}
	p := geom.V(0.5, 0.5, 0.5)
	met := false
	for name, fn := range map[string]func(){
		"PlanRangeFanout": func() { plan = PlanRangeFanout(sums, q, plan[:0]) },
		"Meets":           func() { met = sums[1].Occ.Meets(q) },
		"MeetsCube":       func() { met = sums[1].Occ.MeetsCube(p, 4) },
	} {
		if allocs := testing.AllocsPerRun(100, fn); allocs != 0 {
			t.Fatalf("%s allocates %.1f times per call, want 0", name, allocs)
		}
	}
	if !met {
		t.Fatal("shard 1's cell (2, 0, 0) lies inside the cube of half-width 2 around p")
	}
}

// TestFanoutKNNDegenerate: k <= 0 and a shardless cluster answer nothing
// at the view's epoch without calling a leg or reporting a ball; fewer
// than k vertices in the whole mesh make the ball +Inf.
func TestFanoutKNNDegenerate(t *testing.T) {
	one := fakeView{epoch: 6, shards: []fakeShard{{box: unit, cands: []fakeCand{{1, 1}, {2, 2}}}}}
	for _, tc := range []struct {
		name string
		view fakeView
		k    int
	}{
		{"k=0", one, 0},
		{"k<0", one, -3},
		{"K=0", fakeView{epoch: 6}, 4},
	} {
		legs := &fakeLegs{t: t, views: []fakeView{tc.view}}
		var cnt FanoutCounters
		f := NewFanout(legs, &cnt, query.NewResultCache(0))
		got := f.KNN(geom.V(0, 0, 0), tc.k, []int32{8})
		if !slices.Equal(got, []int32{8}) || f.LastError() != nil || f.LastEpoch() != 6 {
			t.Fatalf("%s: got %v err %v epoch %d", tc.name, got, f.LastError(), f.LastEpoch())
		}
		if _, ok := f.LastKNNBound2(); ok || len(legs.calls) != 0 {
			t.Fatalf("%s: ball reported or legs %v called", tc.name, legs.calls)
		}
		f.KNN(geom.V(0, 0, 0), tc.k, nil)
		if got, want := counters(&cnt), [7]int64{0, 0, 2, 0, 0, 0, 0}; got != want {
			t.Fatalf("%s: counters %v, want %v (an empty answer is not cached)", tc.name, got, want)
		}
	}

	legs := &fakeLegs{t: t, views: []fakeView{one}}
	f := NewFanout(legs, new(FanoutCounters), nil)
	if got := f.KNN(geom.V(0, 0, 0), 5, nil); !slices.Equal(got, []int32{1, 2}) {
		t.Fatalf("k > V: got %v", got)
	}
	if ball2, ok := f.LastKNNBound2(); !ok || !math.IsInf(ball2, 1) {
		t.Fatalf("k > V: ball %v %v, want +Inf", ball2, ok)
	}
}

// TestFanoutCountersAndCache: the query counters advance once per call,
// cache hits included; a hit calls no leg, opens no view and reports the
// cached epoch; the fan-out counters do not move on a hit.
func TestFanoutCountersAndCache(t *testing.T) {
	view := fakeView{epoch: 2, shards: []fakeShard{
		{box: unit, ids: []int32{1}, cands: []fakeCand{{1, 1}}},
		{box: boxAt(5), ids: []int32{2}, cands: []fakeCand{{30, 2}}},
	}}
	legs := &fakeLegs{t: t, views: []fakeView{view}}
	var cnt FanoutCounters
	f := NewFanout(legs, &cnt, query.NewResultCache(0))
	p := geom.V(0, 0, 0)
	for pass := 0; pass < 2; pass++ {
		if got := f.Query(unit, nil); !slices.Equal(got, []int32{1}) || f.LastEpoch() != 2 {
			t.Fatalf("pass %d range: %v at %d", pass, got, f.LastEpoch())
		}
		if got := f.KNN(p, 1, nil); !slices.Equal(got, []int32{1}) || f.LastEpoch() != 2 {
			t.Fatalf("pass %d knn: %v at %d", pass, got, f.LastEpoch())
		}
		if _, ok := f.LastKNNBound2(); ok != (pass == 0) {
			t.Fatalf("pass %d: ball known = %v; a hit merged nothing", pass, ok)
		}
	}
	if legs.begins != 2 || !slices.Equal(legs.calls, []int{0, 0}) {
		t.Fatalf("begins %d calls %v: the repeat pass reached the legs", legs.begins, legs.calls)
	}
	if got, want := counters(&cnt), [7]int64{2, 1, 2, 1, 0, 0, 2}; got != want {
		t.Fatalf("counters %v, want %v", got, want)
	}
	f.Close()
	if !legs.closed {
		t.Fatal("Close did not reach the legs")
	}
}

// TestFanoutCacheSkipsTruncated: a merge whose legs report a truncated
// crawl is approximate, so a Fanout with a cache must not fill it — the
// repeat of each query reaches the legs again and is no cache hit.
func TestFanoutCacheSkipsTruncated(t *testing.T) {
	cut := query.CrawlCoverage{Truncated: true, Visited: 3, Frontier: 5}
	view := fakeView{epoch: 7, shards: []fakeShard{
		{box: unit, ids: []int32{1}, cands: []fakeCand{{1, 1}}},
		{box: unit, ids: []int32{2}, cands: []fakeCand{{2, 2}}, cov: cut},
	}}
	legs := &fakeLegs{t: t, views: []fakeView{view}}
	var cnt FanoutCounters
	cache := query.NewResultCache(0)
	f := NewFanout(legs, &cnt, cache)
	p := geom.V(0, 0, 0)
	for pass := 0; pass < 2; pass++ {
		if got := f.Query(unit, nil); !slices.Equal(got, []int32{1, 2}) || !f.LastCoverage().Truncated {
			t.Fatalf("pass %d range: %v, coverage %+v", pass, got, f.LastCoverage())
		}
		if got := f.KNN(p, 2, nil); !slices.Equal(got, []int32{1, 2}) || !f.LastCoverage().Truncated {
			t.Fatalf("pass %d knn: %v, coverage %+v", pass, got, f.LastCoverage())
		}
	}
	if cnt.CacheHits.Load() != 0 || legs.begins != 4 {
		t.Fatalf("%d cache hits, %d views over 4 queries: a truncated merge was cached", cnt.CacheHits.Load(), legs.begins)
	}
	if cs := cache.Stats(); cs.Puts != 0 || cs.Entries != 0 {
		t.Fatalf("cache filled with truncated merges: %+v", cs)
	}
}
