package shard

import (
	"math"
	"math/rand"
	"sync"
	"testing"
	"time"

	"octopus/internal/core"
	"octopus/internal/geom"
	"octopus/internal/mesh"
	"octopus/internal/meshgen"
	"octopus/internal/query"
	"octopus/internal/sim"
)

// extendFold is the oracle of SummaryOf's box: AABB.Extend over the
// owned positions, from EmptyBox.
func extendFold(pos []geom.Vec3, owned []bool) geom.AABB {
	b := geom.EmptyBox()
	for l, own := range owned {
		if own {
			b = b.Extend(pos[l])
		}
	}
	return b
}

func boxBits(b geom.AABB) [6]uint64 {
	return [6]uint64{
		math.Float64bits(b.Min.X), math.Float64bits(b.Min.Y), math.Float64bits(b.Min.Z),
		math.Float64bits(b.Max.X), math.Float64bits(b.Max.Y), math.Float64bits(b.Max.Z),
	}
}

// TestBoxKernelsMatchExtendFold pins SummaryOf's box to the Extend fold
// bit for bit. The corner cases are the ones a plausible kernel gets
// wrong: no owned vertex (the fold is EmptyBox, not a box around the
// ghosts or the origin), one owned vertex, signed zeros in both orders
// (min(-0, +0) = -0), and NaN next to an infinity — where the bare
// builtin min/max keep NaN but Extend's math.Min/Max let the infinity
// win and canonicalize NaN, so the kernel must fall back.
func TestBoxKernelsMatchExtendFold(t *testing.T) {
	nz := math.Copysign(0, -1)
	inf, nan := math.Inf(1), math.NaN()
	odd := math.Float64frombits(0x7ff4000000000123)
	r := rand.New(rand.NewSource(3))
	random := make([]geom.Vec3, 200)
	for i := range random {
		random[i] = geom.V(r.NormFloat64(), r.NormFloat64(), r.NormFloat64())
	}
	cases := []struct {
		name  string
		pos   []geom.Vec3
		owned []bool
	}{
		{"no owned vertex", []geom.Vec3{geom.V(1, 2, 3), geom.V(-1, 0, 5)}, []bool{false, false}},
		{"empty part", nil, nil},
		{"single owned vertex", []geom.Vec3{geom.V(9, 9, 9), geom.V(-2, 0.5, 7), geom.V(3, 3, 3)}, []bool{false, true, false}},
		{"single owned -0", []geom.Vec3{geom.V(nz, nz, nz)}, []bool{true}},
		{"-0 then +0", []geom.Vec3{geom.V(nz, 0, nz), geom.V(0, nz, 0)}, []bool{true, true}},
		{"+0 then -0", []geom.Vec3{geom.V(0, nz, 0), geom.V(nz, 0, nz)}, []bool{true, true}},
		{"infinities", []geom.Vec3{geom.V(inf, -inf, 1), geom.V(-inf, inf, 2)}, []bool{true, true}},
		{"NaN then -Inf", []geom.Vec3{geom.V(nan, 0, 0), geom.V(-inf, 0, 0)}, []bool{true, true}},
		{"+Inf then NaN", []geom.Vec3{geom.V(0, inf, 0), geom.V(0, nan, 0)}, []bool{true, true}},
		{"NaN payload", []geom.Vec3{geom.V(1, 1, odd), geom.V(2, 2, 2)}, []bool{true, true}},
		{"ghost NaN ignored", []geom.Vec3{geom.V(nan, nan, nan), geom.V(1, 2, 3)}, []bool{false, true}},
		{"random, every other owned", random, func() []bool {
			o := make([]bool, len(random))
			for i := range o {
				o[i] = i%2 == 0
			}
			return o
		}()},
	}
	frame := geom.AABB{Min: geom.V(-1, -1, -1), Max: geom.V(1, 1, 1)}
	for _, c := range cases {
		want := boxBits(extendFold(c.pos, c.owned))
		if got := boxBits(SummaryOf(frame, c.pos, c.owned).Box); got != want {
			t.Errorf("%s: SummaryOf box = %x, Extend fold = %x", c.name, got, want)
		}
	}
}

// TestDeformFnRunsOutsideGate pins the writer path's lock scope: Deform's
// fn runs under the writer mutex only, so a router query — and
// RepartitionStats — complete while fn is still running. fn blocks until
// the query has returned; with fn under the coherence gate that is a
// deadlock, bounded here by a timeout that fails the test. The query
// answers at the epoch published before the step, exactly, although fn
// has already rewritten the global array.
func TestDeformFnRunsOutsideGate(t *testing.T) {
	const seed = 5
	m := buildBoxTet(t, 5, 0.2)
	orig := append([]geom.Vec3(nil), m.Positions()...)
	sm, err := NewMesh(m, 4, Options{})
	if err != nil {
		t.Fatal(err)
	}
	r := NewRouter(sm, func(sub *mesh.Mesh) query.ParallelKNNEngine { return core.New(sub) })
	d := &sim.NoiseDeformer{Amplitude: 0.03, Frequency: 2, Seed: seed}
	sm.Deform(func(pos []geom.Vec3) { d.Step(0, pos) })
	drainTargets(r)

	inFn, queried := make(chan struct{}), make(chan struct{})
	stepDone := make(chan bool)
	go func() {
		blocked := false
		sm.Deform(func(pos []geom.Vec3) {
			d.Step(1, pos)
			close(inFn)
			select {
			case <-queried:
			case <-time.After(5 * time.Second):
				blocked = true
			}
		})
		stepDone <- blocked
	}()

	<-inFn
	cur := r.NewCursor()
	defer cur.Close()
	q := geom.BoxAround(orig[len(orig)/2], 0.3)
	got := cur.Query(q, nil)
	rangeEpoch := cur.(query.PinnedCursor).LastEpoch()
	p := orig[len(orig)/3]
	gotKNN := cur.(query.KNNCursor).KNN(p, 5, nil)
	knnEpoch := cur.(query.PinnedCursor).LastEpoch()
	_ = sm.RepartitionStats()
	close(queried)
	if <-stepDone {
		t.Fatal("router query blocked while Deform's fn ran: fn is under the coherence gate")
	}

	if rangeEpoch != 1 || knnEpoch != 1 {
		t.Fatalf("queries during fn answered at epochs %d/%d, want the published 1", rangeEpoch, knnEpoch)
	}
	at := replayPositions(orig, seed, 1)
	if diff := query.Diff(got, query.ScanPositions(at, q, nil)); diff != "" {
		t.Fatalf("range during fn: %s", diff)
	}
	if want := query.ScanKNNPositions(at, p, 5, nil); !equalIDs(gotKNN, want) {
		t.Fatalf("kNN during fn: got %v want %v", gotKNN, want)
	}
	if sm.Epoch() != 2 {
		t.Fatalf("epoch %d after two steps", sm.Epoch())
	}
}

// TestDeformSerializesWithRebalance is the -race case of the narrowed
// gate: while a slow fn rewrites the global array, other goroutines call
// Rebalance — whose Apply reads the global positions and rebuilds
// sub-meshes from them, so it must wait on the writer mutex, not just the
// gate — and RepartitionStats, which must not wait at all. Afterwards the
// partition is valid and the router exact.
func TestDeformSerializesWithRebalance(t *testing.T) {
	m := buildBoxTet(t, 6, 1.0/6)
	sm, err := NewMesh(m, 4, Options{})
	if err != nil {
		t.Fatal(err)
	}
	r := NewRouter(sm, func(sub *mesh.Mesh) query.ParallelKNNEngine { return core.New(sub) })
	d := &sim.NoiseDeformer{Amplitude: 0.02, Frequency: 2, Seed: 12}

	inFn := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		sm.Deform(func(pos []geom.Vec3) {
			close(inFn)
			for step := 0; step < 4; step++ {
				d.Step(step, pos)
				time.Sleep(5 * time.Millisecond)
			}
		})
	}()
	<-inFn
	wg.Add(2)
	go func() {
		defer wg.Done()
		sm.Rebalance([]float64{0.5, 1, 1, 1})
	}()
	statsDone := make(chan struct{})
	go func() {
		defer wg.Done()
		defer close(statsDone)
		for i := 0; i < 20; i++ {
			_ = sm.RepartitionStats()
		}
	}()
	select {
	case <-statsDone:
	case <-time.After(5 * time.Second):
		t.Fatal("RepartitionStats blocked behind Deform's fn")
	}
	wg.Wait()

	if st := sm.RepartitionStats(); st.Generations != 1 || st.PressureRebalances != 1 {
		t.Fatalf("want one pressure rebalance, got %+v", st)
	}
	if err := sm.Partition().Validate(m); err != nil {
		t.Fatal(err)
	}
	r.Step()
	checkRouterExact(t, "after rebalance during fn", m, r)
}

// BenchmarkDeform times the sharded writer step on the benchmark's
// live-inproc shape — neuro-l3, K = 4, an OCTOPUS engine per shard, each
// sub-mesh copying its positions from the global array, diffing its
// publish and refitting its probe boxes — and reports ns per local
// (owned + ghost) position. "static" runs an empty fn, so the dirty diff
// only compares; "moving" flips every vertex between two states, so
// every position is a mover, with fn and the dirty consume (the
// scheduler's work) off the clock.
func BenchmarkDeform(b *testing.B) {
	m, err := meshgen.Build(meshgen.NeuroL3, 1)
	if err != nil {
		b.Fatal(err)
	}
	sm, err := NewMesh(m, 4, Options{})
	if err != nil {
		b.Fatal(err)
	}
	local := 0
	for _, p := range sm.Partition().Parts {
		local += len(p.ToGlobal)
		core.New(p.Mesh)
	}
	states := [2][]geom.Vec3{append([]geom.Vec3(nil), m.Positions()...), nil}
	states[1] = append([]geom.Vec3(nil), states[0]...)
	(&sim.NoiseDeformer{Amplitude: 0.02, Frequency: 1.5, Seed: 1}).Step(0, states[1])

	run := func(b *testing.B, fn func(pos []geom.Vec3)) {
		for i := 0; i < b.N; i++ {
			sm.Deform(fn)
			b.StopTimer()
			for _, p := range sm.Partition().Parts {
				p.Mesh.TakeDirty()
			}
			b.StartTimer()
		}
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(local), "ns/pos")
	}
	b.Run("static", func(b *testing.B) {
		run(b, func([]geom.Vec3) {})
	})
	flip := 0
	b.Run("moving", func(b *testing.B) {
		run(b, func(pos []geom.Vec3) {
			b.StopTimer()
			flip ^= 1
			copy(pos, states[flip])
			b.StartTimer()
		})
	})
}

// BenchmarkNewMesh times the benchmark's live-inproc setup: partitioning
// neuro-l3 K = 4 ways (every sub-mesh built, laid out surface-first and
// renumbered) plus one core.New per shard.
func BenchmarkNewMesh(b *testing.B) {
	m, err := meshgen.BuildCached(meshgen.NeuroL3, 1)
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < b.N; i++ {
		sm, err := NewMesh(m, 4, Options{})
		if err != nil {
			b.Fatal(err)
		}
		for _, p := range sm.Partition().Parts {
			core.New(p.Mesh)
		}
	}
}
