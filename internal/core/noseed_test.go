package core

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"octopus/internal/geom"
	"octopus/internal/mesh"
	"octopus/internal/meshgen"
	"octopus/internal/query"
	"octopus/internal/shard"
	"octopus/internal/sim"
)

// buildNoSeedMesh builds the non-convex, four-component mesh of the
// no-seed tests, in surface-first vertex order (every surface vertex
// before the two interior ones), so New sees the denseSurface layout:
//
//   - "lone" (ids 0..3): a tiny tetrahedron at the origin, far from
//     everything else. Deleting its one cell leaves four isolated vertices
//     and, because they are the head of the surface prefix, breaks the
//     surface-first layout.
//   - "decoy" (ids 4..7): a tiny tetrahedron around (8.94, 0.04, 0.04):
//     the closest surface to every box below, and a dead end — a walk
//     started here can only stall.
//   - stars A and B: octahedra of shell radius 2 around (10,0,0) and
//     (10.5,0,0), each split into eight tetrahedra sharing its center.
//     The two centers are the mesh's only interior vertices; the stars
//     overlap in space but share no vertex.
func buildNoSeedMesh(t testing.TB) (m *mesh.Mesh, centerA, centerB int32) {
	t.Helper()
	b := mesh.NewBuilder(18, 18)
	tet := func(p geom.Vec3, h float64) {
		b.AddTet(b.AddVertex(p), b.AddVertex(p.Add(geom.V(h, 0, 0))),
			b.AddVertex(p.Add(geom.V(0, h, 0))), b.AddVertex(p.Add(geom.V(0, 0, h))))
	}
	tet(geom.V(0, 0, 0), 0.1)
	tet(geom.V(8.90, 0, 0), 0.08)
	shell := func(cx float64) (xs, ys, zs [2]int32) {
		xs = [2]int32{b.AddVertex(geom.V(cx-2, 0, 0)), b.AddVertex(geom.V(cx+2, 0, 0))}
		ys = [2]int32{b.AddVertex(geom.V(cx, -2, 0)), b.AddVertex(geom.V(cx, 2, 0))}
		zs = [2]int32{b.AddVertex(geom.V(cx, 0, -2)), b.AddVertex(geom.V(cx, 0, 2))}
		return
	}
	fill := func(center int32, xs, ys, zs [2]int32) {
		for _, x := range xs {
			for _, y := range ys {
				for _, z := range zs {
					b.AddTet(center, x, y, z)
				}
			}
		}
	}
	ax, ay, az := shell(10)
	bx, by, bz := shell(10.5)
	centerA = b.AddVertex(geom.V(10, 0, 0))
	centerB = b.AddVertex(geom.V(10.5, 0, 0))
	fill(centerA, ax, ay, az)
	fill(centerB, bx, by, bz)
	m, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Validate(); err != nil {
		t.Fatal(err)
	}
	if count := m.ConnectedComponents().Count(); count != 4 {
		t.Fatalf("expected 4 components, got %d", count)
	}
	return m, centerA, centerB
}

// Two boxes around the stars' centers that hold no surface vertex and lie
// closest to the decoy: one holds star A's center alone, one both centers.
var (
	noSeedBoxA    = geom.Box(geom.V(9.05, -0.35, -0.35), geom.V(10.02, 0.35, 0.35))
	noSeedBoxBoth = geom.Box(geom.V(9.05, -0.35, -0.35), geom.V(10.7, 0.35, 0.35))
)

// TestNoSeedExactness drives the no-seed range path — probe finds
// nothing, the descent stalls, the scan of the unprobed positions seeds
// the crawl — through every shape of answer it can have, in both vertex
// layouts and on both engines, against brute force. WalkStalls proves
// each case took the path it is named for.
func TestNoSeedExactness(t *testing.T) {
	m, centerA, centerB := buildNoSeedMesh(t)
	cases := []struct {
		name string
		q    geom.AABB
		want []int32
	}{
		{"interior to a secondary component", noSeedBoxA, []int32{centerA}},
		{"spans two components, no surface vertex inside", noSeedBoxBoth, []int32{centerA, centerB}},
		{"disjoint from the mesh", geom.BoxAround(geom.V(20, 20, 20), 1), []int32{}},
		// Vertex 0 alone: a probe seed while the lone tetrahedron stands,
		// an isolated vertex once its cell is deleted.
		{"lone vertex", geom.BoxAround(geom.V(0, 0, 0), 0.01), []int32{0}},
	}
	check := func(label string, eng query.Engine, stats func() Stats, wantStalls int64) {
		t.Helper()
		before := stats().WalkStalls
		for _, c := range cases {
			want := query.BruteForce(m, c.q)
			if query.Diff(want, c.want) != "" {
				t.Fatalf("%s/%s: test geometry broken: brute force = %v, want %v", label, c.name, want, c.want)
			}
			checkOracle(t, label+"/"+c.name, eng.Query(c.q, nil), want)
		}
		if got := stats().WalkStalls - before; got != wantStalls {
			t.Errorf("%s: %d of %d queries took the scan, want %d", label, got, len(cases), wantStalls)
		}
	}

	o := New(m)
	if !o.idx.Dense() {
		t.Fatal("test mesh is not surface-first")
	}
	check("octopus/surface-first", o, o.Stats, 3)
	// A one-cell grid is the stalest grid there is: it hands every query
	// vertex 0 of the lone tetrahedron, which reaches neither star.
	con := NewCon(m, 1)
	check("con", con, con.Stats, 3)

	if _, err := m.DeleteCell(0); err != nil {
		t.Fatal(err)
	}
	if o.idx.Dense() {
		t.Fatal("deleting the lone tetrahedron kept the surface-first layout")
	}
	check("octopus/restructured", o, o.Stats, 4)
	con = NewCon(m, 1)
	check("con/restructured", con, con.Stats, 3) // it starts inside the lone-vertex box
}

// TestNoSeedBounded pins the cost of proving a mesh empty: one pass over
// the positions the probe did not test and no scratch. A proof by graph
// search (heap, visited set) would leave the cursor's scratch at O(V) for
// the cursor's lifetime; the memory bound is what rules that out.
func TestNoSeedBounded(t *testing.T) {
	m := dataset(t, meshgen.NeuroL2)
	if m.NumVertices() < 20000 {
		t.Fatalf("mesh has %d vertices, want >= 20000", m.NumVertices())
	}
	o := New(m)
	cur := o.NewCursor().(*Cursor)
	bounds := m.Bounds()
	size := bounds.Size()
	const queries = 100
	var out []int32
	for i := 0; i < queries; i++ {
		// Boxes beyond the +X face of the bounds, at varying heights.
		c := geom.V(bounds.Max.X+size.X*(0.2+0.01*float64(i)),
			bounds.Min.Y+size.Y*float64(i)/queries, bounds.Center().Z)
		if out = cur.Query(geom.BoxAround(c, size.X*0.05), out[:0]); len(out) != 0 {
			t.Fatalf("disjoint query %d returned %d vertices", i, len(out))
		}
	}
	s := cur.Stats()
	if s.WalkStalls != queries || s.DirectedWalks != queries {
		t.Errorf("stalls %d, walks %d, want %d each", s.WalkStalls, s.DirectedWalks, queries)
	}
	// The descent visits each vertex at most once before it stalls, far
	// fewer in practice; 256 hops is generous on a 35k-vertex mesh.
	if perQ := s.WalkVisited / queries; perQ > int64(m.NumVertices())+256 {
		t.Errorf("%d positions visited per empty query, mesh has %d", perQ, m.NumVertices())
	}
	if b := cur.MemoryBytes(); b >= 64<<10 {
		t.Errorf("cursor scratch grew to %d bytes proving emptiness, want < 64 KB", b)
	}
}

// noSeedBoxes draws n boxes that hold no surface vertex of o at pos: three
// of four around an interior vertex (the boxes the walk must find a seed
// for), the rest anywhere in the bounds (mostly empty ones, which only the
// scan can answer).
func noSeedBoxes(o *Octopus, pos []geom.Vec3, r *rand.Rand, n int) []geom.AABB {
	bounds := geom.EmptyBox()
	for _, p := range pos {
		bounds = bounds.Extend(p)
	}
	size := bounds.Size()
	var boxes []geom.AABB
	for i := 0; len(boxes) < n; i++ {
		c := geom.V(bounds.Min.X+r.Float64()*size.X, bounds.Min.Y+r.Float64()*size.Y, bounds.Min.Z+r.Float64()*size.Z)
		if i%4 != 3 {
			v := int32(r.Intn(len(pos)))
			if _, onSurface := o.idx.Slot(v); onSurface {
				continue
			}
			c = pos[v]
		}
		q := geom.BoxAround(c, size.Len()*(0.002+0.02*r.Float64()))
		if len(appendContainedSlots(nil, q, pos, o.idx.Slots())) == 0 {
			boxes = append(boxes, q)
		}
	}
	return boxes
}

// TestNoSeedBlockStart drives the exact no-seed start — the nearest
// vertex of the block whose box is nearest the query, one retry from the
// exact closest surface vertex when that walk stalls, then the scan — over
// random no-seed boxes on neuro-l1 and on every sub-mesh of the K=4
// partition of neuro-l3, after an in-place write plus Step and again after
// a Deform. Every answer meets brute force (checkRangeContract: equal
// whenever the in-box vertices are edge-connected), and no mesh stalls more
// often than a walk from the sampled start the block start replaced
// (every 1+S/2048-th surface slot) stalls on the same boxes.
func TestNoSeedBlockStart(t *testing.T) {
	// latticeStart is the sampled start: the surface vertex nearest q
	// among every (1+S/2048)-th surface slot.
	latticeStart := func(o *Octopus, q geom.AABB, pos []geom.Vec3) int32 {
		slots := o.idx.Slots()
		start, best := int32(-1), math.Inf(1)
		for i := 0; i < len(slots); i += 1 + len(slots)/2048 {
			if d := q.Dist2(pos[slots[i]]); d < best {
				start, best = slots[i], d
			}
		}
		return start
	}

	l1 := dataset(t, meshgen.NeuroL1)
	l3 := dataset(t, meshgen.NeuroL3)
	part, err := shard.NewPartition(l3, 4)
	if err != nil {
		t.Fatal(err)
	}
	type named struct {
		name string
		m    *mesh.Mesh
	}
	meshes := []named{{"neuro-l1", l1}}
	for i, p := range part.Parts {
		meshes = append(meshes, named{fmt.Sprintf("neuro-l3-shard-%d", i), p.Mesh})
	}
	rescued := 0
	for mi, c := range meshes {
		name, m := c.name, c.m
		o := New(m)
		cur := o.NewCursor().(*Cursor)
		ref := o.NewCursor().(*Cursor)
		d := &sim.NoiseDeformer{Amplitude: sim.DefaultAmplitude, Frequency: 1.5, Seed: 3}
		r := rand.New(rand.NewSource(int64(mi)))
		moves := []struct {
			label string
			move  func(step int)
		}{
			{"in place+Step", func(step int) { d.Step(step, m.Positions()); o.Step() }},
			{"Deform", func(step int) { m.Deform(func(pos []geom.Vec3) { d.Step(step, pos) }) }},
		}
		for step, mv := range moves {
			mv.move(step)
			label := name + "/" + mv.label
			boxes := noSeedBoxes(o, m.Positions(), r, 100)
			before := cur.Stats()
			sampledStalls, blockStalls := int64(0), int64(0)
			for i, q := range boxes {
				checkRangeContract(t, m, fmt.Sprintf("%s box %d", label, i), q, cur.Query(q, nil), query.BruteForce(m, q))
				pos := ref.beginQuery(m)
				if _, ok := ref.greedyWalk(q, latticeStart(o, q, pos)); !ok {
					sampledStalls++
				}
				if v, _, _ := o.blockStart(ref, q, pos); v < 0 || !ref.walkFrom(q, v) {
					blockStalls++
				}
				ref.seeds = ref.seeds[:0]
				ref.endQuery(m)
			}
			st := cur.Stats()
			if walks := st.DirectedWalks - before.DirectedWalks; walks != int64(len(boxes)) {
				t.Fatalf("%s: %d walks for %d no-seed boxes", label, walks, len(boxes))
			}
			stalls := st.WalkStalls - before.WalkStalls
			if stalls > sampledStalls {
				t.Errorf("%s: %d of %d walks stalled, the sampled start stalls %d", label, stalls, len(boxes), sampledStalls)
			}
			rescued += int(blockStalls - stalls)
			t.Logf("%s: stalls %d (block start alone %d, sampled start %d) of %d", label, stalls, blockStalls, sampledStalls, len(boxes))
		}
	}
	if rescued == 0 {
		t.Error("no block start stalled where the retry arrived; the boxes never exercise the retry")
	}
}
