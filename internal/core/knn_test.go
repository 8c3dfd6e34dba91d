package core

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"

	"octopus/internal/geom"
	"octopus/internal/mesh"
	"octopus/internal/meshgen"
	"octopus/internal/query"
	"octopus/internal/shard"
	"octopus/internal/sim"
	"octopus/internal/workload"
)

// knnOracle compares a kNN result against brute force, including the
// nearest-first ordering contract.
func knnOracle(t *testing.T, label string, got, want []int32) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d results, want %d", label, len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("%s: result[%d] = %d, want %d (got %v, want %v)",
				label, i, got[i], want[i], got, want)
		}
	}
}

// TestKNNMatchesBruteForceUnderSimulation is the randomized equivalence
// property for the crawl-based kNN of the whole OCTOPUS family: on a
// deforming tetrahedral block, every (probe, k) must return exactly the
// brute-force k nearest, in order, at every time step — the engines need
// no maintenance for this, which is the point.
func TestKNNMatchesBruteForceUnderSimulation(t *testing.T) {
	m := buildBox(t, 9)
	engines := []struct {
		name string
		eng  query.ParallelKNNEngine
	}{
		{"octopus", New(m)},
		{"con", NewCon(m, 0)},
		{"hybrid", NewHybrid(m, 0, Constants{CS: 1, CR: 1e-9})},
	}
	s := sim.New(m, &sim.NoiseDeformer{Amplitude: 0.015, Frequency: 2.5, Seed: 7})
	r := rand.New(rand.NewSource(21))
	diag := m.Bounds().Size().Len()

	for step := 0; step < 4; step++ {
		s.Step()
		for _, e := range engines {
			e.eng.Step()
		}
		for i := 0; i < 12; i++ {
			p := m.Position(int32(r.Intn(m.NumVertices()))).Add(geom.V(
				(r.Float64()*2-1)*diag*0.02,
				(r.Float64()*2-1)*diag*0.02,
				(r.Float64()*2-1)*diag*0.02,
			))
			k := 1 + r.Intn(24)
			want := query.BruteForceKNN(m, p, k)
			for _, e := range engines {
				knnOracle(t, e.name, e.eng.KNN(p, k, nil), want)
			}
		}
	}
}

// TestKNNEdgeCases covers the degenerate inputs of the kNN contract.
func TestKNNEdgeCases(t *testing.T) {
	m := buildBox(t, 4)
	o := New(m)
	p := geom.V(0.3, 0.3, 0.3)

	if got := o.KNN(p, 0, nil); len(got) != 0 {
		t.Errorf("k=0 returned %d results", len(got))
	}
	if got := o.KNN(p, -3, nil); len(got) != 0 {
		t.Errorf("k<0 returned %d results", len(got))
	}

	// k larger than the mesh: every vertex, still nearest first.
	k := m.NumVertices() + 10
	knnOracle(t, "k>V", o.KNN(p, k, nil), query.BruteForceKNN(m, p, k))

	// Append semantics: an existing prefix must be preserved.
	prefix := []int32{-7, -8}
	got := o.KNN(p, 3, prefix)
	if len(got) != 5 || got[0] != -7 || got[1] != -8 {
		t.Errorf("append semantics broken: %v", got)
	}
	knnOracle(t, "appended tail", got[2:], query.BruteForceKNN(m, p, 3))
}

// TestKNNCursorStatsMerge checks that kNN executed through worker cursors
// feeds the same statistics pipeline as range queries: per-cursor counts
// merge into the engine on Close.
func TestKNNCursorStatsMerge(t *testing.T) {
	m := buildBox(t, 6)
	o := New(m)
	cur := o.NewCursor().(*Cursor)
	p := geom.V(0.4, 0.6, 0.5)
	for i := 0; i < 5; i++ {
		cur.KNN(p, 4, nil)
	}
	if s := cur.Stats(); s.Queries != 5 || s.Results != 20 || s.CrawlVisited == 0 {
		t.Fatalf("cursor stats: %+v", s)
	}
	cur.Close()
	if s := o.Stats(); s.Queries != 5 || s.Results != 20 {
		t.Fatalf("merged stats: %+v", s)
	}
	if cur.Stats().Queries != 0 {
		t.Fatal("cursor stats not reset by Close")
	}
}

// TestKNNBudgetHandsFrontierToProbe cuts the first crawl after 4
// expansions, long before it holds k = 64 candidates, at probe points on
// the surface, where the abandoned frontier is mostly surface. The cutoff
// hands the frontier back to the probe, so every surface vertex strictly
// inside the returned ball is in the answer, the answer holds k, and the
// bound gap is the answer's (strictly between 0 and 1), not the cutoff's
// (1: the heap was not full then).
func TestKNNBudgetHandsFrontierToProbe(t *testing.T) {
	m := surfaceFirstBox(t, 10)
	o := New(m)
	cur := o.NewCursor().(*Cursor)
	cur.SetBudget(query.CrawlBudget{MaxVisited: 4})
	pos := m.Positions()
	r := rand.New(rand.NewSource(3))
	const k = 64
	for i := 0; i < 40; i++ {
		p := pos[o.idx.Slots()[r.Intn(len(o.idx.Slots()))]].Add(geom.V(r.Float64(), r.Float64(), r.Float64()).Scale(0.01))
		got := cur.KNN(p, k, nil)
		cov := cur.LastCoverage()
		if !cov.Truncated || cov.Frontier == 0 {
			t.Fatalf("probe %d: coverage %+v, want a cut crawl; test geometry broken", i, cov)
		}
		ball, _ := cur.LastKNNBound2()
		if len(got) != k || !(cov.BoundGap > 0 && cov.BoundGap < 1) {
			t.Fatalf("probe %d: %d results, bound gap %v; want %d and a gap in (0, 1)", i, len(got), cov.BoundGap, k)
		}
		for _, v := range o.idx.Slots() {
			if pos[v].Dist2(p) < ball && !slices.Contains(got, v) {
				t.Fatalf("probe %d: surface vertex %d lies inside the ball %v but is not in the answer %v", i, v, ball, got)
			}
		}
	}
}

// restrictedBruteForce ranks the vertices v with keep[v] (every vertex
// when keep is nil) at squared distance at most ceiling2 by (squared
// distance, id) and returns the best k, with the k-th's squared distance
// (+Inf when fewer than k qualify).
func restrictedBruteForce(m *mesh.Mesh, p geom.Vec3, k int, keep []bool, ceiling2 float64) ([]int32, float64) {
	var kb query.KBest
	kb.Reset(k)
	for v, q := range m.Positions() {
		if d := q.Dist2(p); (keep == nil || keep[v]) && d <= ceiling2 {
			kb.Offer(d, int32(v))
		}
	}
	bound := kb.Bound()
	return kb.AppendSorted(nil), bound
}

// TestKNNRestricted drives RestrictKNN on neuro-l1 and one sub-mesh of the
// K=4 partition of neuro-l3, both after a Deform, with OCTOPUS, and with
// CON on a deformed box (CON's stale-grid start is not exact on the
// neuron meshes even unrestricted). Masks are the shard's own ownership, a random half-space and random
// per-vertex coins; ceilings are +Inf, 0, an unrestricted neighbour's
// squared distance exactly (a tie at the ceiling must be offered) and a
// random radius. Every answer, and its k-th-best bound, equals brute force
// over the kept vertices within the ceiling; and a later unrestricted call
// on the same cursor is bit-identical to a fresh cursor's answer.
func TestKNNRestricted(t *testing.T) {
	l1 := dataset(t, meshgen.NeuroL1)
	l3 := dataset(t, meshgen.NeuroL3)
	part, err := shard.NewPartition(l3, 4)
	if err != nil {
		t.Fatal(err)
	}
	sub := part.Parts[1]
	box := buildBox(t, 9)
	meshes := []struct {
		name  string
		m     *mesh.Mesh
		owned []bool
		con   bool
	}{
		{"neuro-l1", l1, nil, false},
		{"neuro-l3-shard-1", sub.Mesh, sub.Owned, false},
		{"box", box, nil, true},
	}
	probes := 60
	if testing.Short() {
		probes = 20
	}
	inf := math.Inf(1)
	for mi, c := range meshes {
		m := c.m
		d := &sim.NoiseDeformer{Amplitude: sim.DefaultAmplitude, Frequency: 1.5, Seed: 5}
		m.Deform(func(pos []geom.Vec3) { d.Step(0, pos) })
		r := rand.New(rand.NewSource(int64(mi) + 1))
		diag := m.Bounds().Size().Len()
		n := m.NumVertices()
		engines := []query.ParallelKNNEngine{New(m)}
		if c.con {
			engines = append(engines, NewCon(m, 0))
		}
		for _, eng := range engines {
			cur := eng.NewCursor().(*Cursor)
			for i := 0; i < probes; i++ {
				pos := m.Positions()
				p := pos[r.Intn(n)].Add(geom.V(
					(r.Float64()*2-1)*diag*0.03,
					(r.Float64()*2-1)*diag*0.03,
					(r.Float64()*2-1)*diag*0.03,
				))
				k := 1 + r.Intn(40)

				var keep []bool
				switch i % 4 {
				case 0:
					keep = c.owned // nil on neuro-l1
				case 1:
					keep = make([]bool, n)
					cut := pos[r.Intn(n)].X
					for v := range keep {
						keep[v] = pos[v].X < cut
					}
				case 2:
					keep = make([]bool, n)
					for v := range keep {
						keep[v] = r.Intn(3) != 0
					}
				}
				ceiling2 := inf
				switch r.Intn(4) {
				case 1:
					ceiling2 = 0
				case 2:
					ids, _ := restrictedBruteForce(m, p, 2*k, nil, inf)
					ceiling2 = pos[ids[r.Intn(len(ids))]].Dist2(p)
				case 3:
					ceiling2 = r.Float64() * diag * diag * 1e-3
				}
				label := fmt.Sprintf("%s/%T probe %d (k=%d, ceiling2=%g)", c.name, eng, i, k, ceiling2)

				cur.RestrictKNN(keep, ceiling2)
				want, wantBound := restrictedBruteForce(m, p, k, keep, ceiling2)
				knnOracle(t, label, cur.KNN(p, k, nil), want)
				if b, ok := cur.LastKNNBound2(); !ok || b != wantBound {
					t.Fatalf("%s: LastKNNBound2 = %v, %v, want %v", label, b, ok, wantBound)
				}

				cur.RestrictKNN(nil, inf)
				fresh := eng.NewCursor().(*Cursor)
				got, ref := cur.KNN(p, k, nil), fresh.KNN(p, k, nil)
				if !slices.Equal(got, ref) {
					t.Fatalf("%s: unrestricted after restricted = %v, a fresh cursor %v", label, got, ref)
				}
				gb, _ := cur.LastKNNBound2()
				rb, _ := fresh.LastKNNBound2()
				if math.Float64bits(gb) != math.Float64bits(rb) {
					t.Fatalf("%s: unrestricted bound %v after restricted, a fresh cursor %v", label, gb, rb)
				}
			}
		}
	}
}

// TestTwoLevelProbeOnBenchmarkMeshes runs the two-level probe on the
// surfaces the benchmark's workloads run it on — neuro-l5 and one sub-mesh
// of the K=4 partition of neuro-l3 — as built and after 25 published noise
// steps: 600 kNN per state (1 200 per mesh, k in [8, 32]) must equal brute
// force slot for slot, ball included, and start where a flat pass over
// the leaves starts (the leaf nearest the probe point, its nearest vertex
// at a non-NaN distance). On no-seed range boxes the walk start must be
// the flat pass's over the leaves too, the retry's start must be
// as near as the nearest surface vertex, and the boxes must stall
// no more often than under the one-level rule the leaves replaced (the
// walk started in the nearest of the 4×-larger blocks, with the same
// retry from the closest surface vertex).
func TestTwoLevelProbeOnBenchmarkMeshes(t *testing.T) {
	l3 := dataset(t, meshgen.NeuroL3)
	part, err := shard.NewPartition(l3, 4)
	if err != nil {
		t.Fatal(err)
	}
	meshes := []struct {
		name string
		m    *mesh.Mesh
	}{{"neuro-l3-shard", part.Parts[0].Mesh}}
	if !testing.Short() {
		l5 := dataset(t, meshgen.NeuroL5)
		meshes = append(meshes, struct {
			name string
			m    *mesh.Mesh
		}{"neuro-l5", l5})
	}
	for mi, c := range meshes {
		m := c.m
		o := New(m)
		cur := o.NewCursor().(*Cursor)
		ref := o.NewCursor().(*Cursor)
		g := workload.NewGenerator(m, 4096, int64(mi+1))
		d := &sim.NoiseDeformer{Amplitude: sim.DefaultAmplitude, Frequency: 1.5, Seed: 7}
		r := rand.New(rand.NewSource(int64(mi)))
		for _, state := range []string{"static", "deformed"} {
			if state == "deformed" {
				for step := 0; step < 25; step++ {
					m.Deform(func(pos []geom.Vec3) { d.Step(step, pos) })
				}
			}
			label := c.name + "/" + state
			pos := m.Positions()
			leaves, blocks := flatBoxes(o, pos, mesh.ProbeBlock), flatBoxes(o, pos, 4*mesh.ProbeBlock)
			for i, q := range g.KNNQueries(600, 8, 32, 0) {
				checkKNN(t, fmt.Sprintf("%s kNN %d", label, i), cur, pos, q.P, q.K)
				ref.beginQuery(m)
				got, _, _ := o.knnStart(ref, q.P, pos)
				ref.endQuery(m)
				if want := oneLevelStart(o, leaves, mesh.ProbeBlock, geom.AABB{Min: q.P, Max: q.P}, knnPick(q.P, pos)); got != want {
					t.Fatalf("%s kNN %d: the two-level start is %d, a flat pass over the leaves %d", label, i, got, want)
				}
			}

			before := cur.Stats().WalkStalls
			oneLevel := int64(0)
			boxes := noSeedBoxes(o, pos, r, 100)
			for i, q := range boxes {
				checkRangeContract(t, m, fmt.Sprintf("%s box %d", label, i), q, cur.Query(q, nil), query.BruteForce(m, q))
				ref.beginQuery(m)
				got, _, _ := o.blockStart(ref, q, pos)
				if want := oneLevelStart(o, leaves, mesh.ProbeBlock, q, rangePick(q, pos)); got != want {
					t.Fatalf("%s box %d: the two-level start is %d, a flat pass over the leaves %d", label, i, got, want)
				}
				nearest, dist := nearestOf(q, pos, o.idx.Slots(), math.Inf(1))
				if got := o.closestSurfaceVertex(ref, q, pos); got < 0 || q.Dist2(pos[got]) != dist {
					t.Fatalf("%s box %d: closest surface vertex %d, want %d at squared distance %v", label, i, got, nearest, dist)
				}
				if start := oneLevelStart(o, blocks, 4*mesh.ProbeBlock, q, rangePick(q, pos)); !ref.walkFrom(q, start) {
					if v := o.closestSurfaceVertex(ref, q, pos); v == start || !ref.walkFrom(q, v) {
						oneLevel++
					}
				}
				ref.seeds = ref.seeds[:0]
				ref.endQuery(m)
			}
			stalls := cur.Stats().WalkStalls - before
			if stalls > oneLevel {
				t.Errorf("%s: %d of %d no-seed walks stalled, %d under the one-level rule", label, stalls, len(boxes), oneLevel)
			}
			t.Logf("%s: no-seed stalls %d (one-level rule %d) of %d", label, stalls, oneLevel, len(boxes))
		}
	}
}

// flatBoxes returns the box of every block of block surface slots,
// recomputed from pos by its definition (boundsOf). A block whose every
// position is NaN on one axis holds no position at a defined distance; it
// gets the empty box, which is never nearest.
func flatBoxes(o *Octopus, pos []geom.Vec3, block int) []geom.AABB {
	var boxes []geom.AABB
	for lo := 0; lo < o.SurfaceSize(); lo += block {
		var ps []geom.Vec3
		nanX, nanY, nanZ := true, true, true
		for _, v := range o.idx.Slots()[lo:min(lo+block, o.SurfaceSize())] {
			p := pos[v]
			ps = append(ps, p)
			nanX, nanY, nanZ = nanX && p.X != p.X, nanY && p.Y != p.Y, nanZ && p.Z != p.Z
		}
		if nanX || nanY || nanZ {
			boxes = append(boxes, geom.EmptyBox())
		} else {
			boxes = append(boxes, boundsOf(ps, ps))
		}
	}
	return boxes
}

// oneLevelStart is the walk start of a flat pass over the boxes of blocks
// of block surface slots (flatBoxes): pick's vertex of the block whose box
// is nearest q, ties going to the lower block (-1 when none is at a
// finite distance).
func oneLevelStart(o *Octopus, boxes []geom.AABB, block int, q geom.AABB, pick func(ids []int32) int32) int32 {
	best, bestDist := -1, math.Inf(1)
	for b := range boxes {
		if d := gap2(&boxes[b], &q); d < bestDist {
			best, bestDist = b, d
		}
	}
	if best < 0 {
		return -1
	}
	return pick(o.idx.Slots()[best*block : min((best+1)*block, o.SurfaceSize())])
}

// rangePick is a no-seed range query's pick in its start leaf: the vertex
// of ids nearest q, the first of equals (nearestOf).
func rangePick(q geom.AABB, pos []geom.Vec3) func(ids []int32) int32 {
	return func(ids []int32) int32 {
		v, _ := nearestOf(q, pos, ids, math.Inf(1))
		return v
	}
}

// knnPick is a kNN's pick in its start leaf: the first vertex of ids at
// the least squared distance from p, a NaN distance never taken (-1 when
// every distance is NaN).
func knnPick(p geom.Vec3, pos []geom.Vec3) func(ids []int32) int32 {
	return func(ids []int32) int32 {
		least := math.NaN()
		for _, v := range ids {
			if d := pos[v].Dist2(p); !(d >= least) && d == d {
				least = d
			}
		}
		for _, v := range ids {
			if pos[v].Dist2(p) == least {
				return v
			}
		}
		return -1
	}
}
