package core

import (
	"math/rand"
	"slices"
	"testing"

	"octopus/internal/geom"
	"octopus/internal/mesh"
	"octopus/internal/meshgen"
	"octopus/internal/query"
	"octopus/internal/sim"
)

func buildBox(t testing.TB, n int) *mesh.Mesh {
	t.Helper()
	m, err := meshgen.BuildBoxTet(n, n, n, 1.0/float64(n))
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func checkOracle(t *testing.T, label string, got, want []int32) {
	t.Helper()
	if d := query.Diff(got, want); d != "" {
		t.Fatalf("%s: %s", label, d)
	}
}

func TestOctopusMatchesBruteForceConvex(t *testing.T) {
	m := buildBox(t, 10)
	o := New(m)
	if o.Name() == "" || o.SurfaceSize() == 0 {
		t.Fatal("engine not initialized")
	}
	r := rand.New(rand.NewSource(1))
	for i := 0; i < 60; i++ {
		q := geom.BoxAround(m.Position(int32(r.Intn(m.NumVertices()))), 0.03+r.Float64()*0.25)
		checkOracle(t, "convex", o.Query(q, nil), query.BruteForce(m, q))
	}
}

func TestOctopusMatchesBruteForceUnderSimulation(t *testing.T) {
	m := buildBox(t, 8)
	o := New(m)
	s := sim.New(m, &sim.NoiseDeformer{Amplitude: 0.02, Frequency: 3, Seed: 2})
	r := rand.New(rand.NewSource(3))
	for step := 0; step < 10; step++ {
		s.Step()
		o.Step() // the engine contract after in-place writes
		for i := 0; i < 10; i++ {
			q := geom.BoxAround(m.Position(int32(r.Intn(m.NumVertices()))), 0.02+r.Float64()*0.2)
			checkOracle(t, "sim", o.Query(q, nil), query.BruteForce(m, q))
		}
	}
}

func TestOctopusNonConvexDisjointComponents(t *testing.T) {
	// The neuron mesh has two disjoint neuron cells; queries spanning both
	// retrieve disjoint sub-meshes — the Figure 3 scenario that requires
	// seeding the crawl from every surface vertex in the query.
	m, err := meshgen.BuildNeuron(1, 1)
	if err != nil {
		t.Fatal(err)
	}
	o := New(m)
	s := sim.New(m, &sim.NoiseDeformer{Amplitude: 0.01, Frequency: 1.5, Seed: 4})
	r := rand.New(rand.NewSource(5))

	// Large queries likely spanning both neurons.
	diag := m.Bounds().Size().Len()
	for step := 0; step < 3; step++ {
		s.Step()
		o.Step()
		for i := 0; i < 10; i++ {
			q := geom.BoxAround(m.Position(int32(r.Intn(m.NumVertices()))), diag*(0.1+0.25*r.Float64()))
			checkOracle(t, "nonconvex-large", o.Query(q, nil), query.BruteForce(m, q))
		}
		for i := 0; i < 10; i++ {
			q := geom.BoxAround(m.Position(int32(r.Intn(m.NumVertices()))), diag*0.02)
			checkOracle(t, "nonconvex-small", o.Query(q, nil), query.BruteForce(m, q))
		}
	}
}

func TestOctopusInteriorQueryUsesDirectedWalk(t *testing.T) {
	m := buildBox(t, 12)
	o := New(m)
	// A tiny query at the center encloses no surface vertex.
	q := geom.BoxAround(geom.V(0.5, 0.5, 0.5), 0.08)
	want := query.BruteForce(m, q)
	if len(want) == 0 {
		t.Fatal("test query unexpectedly empty")
	}
	got := o.Query(q, nil)
	checkOracle(t, "interior", got, want)
	if o.Stats().DirectedWalks != 1 {
		t.Errorf("directed walks = %d, want 1", o.Stats().DirectedWalks)
	}
	if o.Stats().WalkVisited == 0 {
		t.Error("walk visited no vertices")
	}
}

func TestOctopusDisjointQueryEmpty(t *testing.T) {
	m := buildBox(t, 6)
	o := New(m)
	got := o.Query(geom.Box(geom.V(5, 5, 5), geom.V(6, 6, 6)), nil)
	if len(got) != 0 {
		t.Errorf("disjoint query returned %d results", len(got))
	}
	// Whole-mesh query returns every vertex.
	all := o.Query(m.Bounds(), nil)
	if len(all) != m.NumVertices() {
		t.Errorf("whole-mesh query returned %d of %d", len(all), m.NumVertices())
	}
}

func TestOctopusEmptyMesh(t *testing.T) {
	b := mesh.NewBuilder(0, 0)
	m, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	o := New(m)
	if got := o.Query(geom.Box(geom.V(0, 0, 0), geom.V(1, 1, 1)), nil); len(got) != 0 {
		t.Errorf("empty mesh query = %v", got)
	}
}

func TestOctopusQueryAppendsToOut(t *testing.T) {
	m := buildBox(t, 4)
	o := New(m)
	prefix := []int32{-7}
	got := o.Query(geom.BoxAround(geom.V(0.5, 0.5, 0.5), 0.3), prefix)
	if got[0] != -7 {
		t.Error("existing prefix clobbered")
	}
	if len(got) <= 1 {
		t.Error("no results appended")
	}
}

func TestSurfaceDeltaMaintenance(t *testing.T) {
	m := buildBox(t, 5)
	o := New(m)
	r := rand.New(rand.NewSource(7))

	for step := 0; step < 40; step++ {
		// Random restructure.
		live := []int{}
		for ci := range m.Cells() {
			if !m.Cells()[ci].Dead {
				live = append(live, ci)
			}
		}
		ci := live[r.Intn(len(live))]
		var err error
		if r.Intn(2) == 0 {
			_, _, err = m.SplitCell(ci)
		} else {
			_, err = m.DeleteCell(ci)
		}
		if err != nil {
			t.Fatal(err)
		}

		// The engine's surface index must equal the mesh's recomputed one.
		if got, want := slices.Sorted(slices.Values(o.idx.Slots())), m.SurfaceVertices(); !slices.Equal(got, want) {
			t.Fatalf("step %d: surface index %v, mesh says %v", step, got, want)
		}
		// And queries must stay exact.
		q := geom.BoxAround(m.Position(int32(r.Intn(m.NumVertices()))), 0.25)
		checkOracle(t, "restructured", o.Query(q, nil), query.BruteForce(m, q))
	}
}

func TestStatsAccumulation(t *testing.T) {
	m := buildBox(t, 6)
	o := New(m)
	q := geom.BoxAround(geom.V(0.5, 0.5, 0.5), 0.3)
	for i := 0; i < 5; i++ {
		o.Query(q, nil)
	}
	s := o.Stats()
	if s.Queries != 5 {
		t.Errorf("queries = %d", s.Queries)
	}
	if s.Results == 0 || s.ProbeChecked == 0 || s.CrawlVisited == 0 {
		t.Errorf("counters not accumulating: %+v", s)
	}
	if s.Total() <= 0 {
		t.Error("total time not positive")
	}
	o.ResetStats()
	if s := o.Stats(); s.Queries != 0 || s.CrawlVisited != 0 {
		t.Errorf("reset failed: %+v", s)
	}
}

// TestMemoryFootprintGrowsWithResults states the footprint bound of the
// crawls: a cursor holds nothing until its first seeded crawl; it then
// holds exactly one 8-byte visited word per crawl block, ⌈V/32⌉ × 8 B,
// whatever it was asked — range queries and kNN alike, with no
// per-vertex term; and everything else — block queue, seed buffer, kNN
// frontier, k-best heap — grows with the largest result, not with the
// mesh.
func TestMemoryFootprintGrowsWithResults(t *testing.T) {
	m := buildBox(t, 14)
	o := New(m)
	cur := o.NewCursor().(*Cursor)
	if b := cur.MemoryBytes(); b != 0 {
		t.Fatalf("fresh cursor holds %d bytes, want 0", b)
	}
	if out := cur.Query(geom.BoxAround(geom.V(5, 5, 5), 0.1), nil); len(out) != 0 {
		t.Fatalf("disjoint box returned %d vertices", len(out))
	}
	if cap(cur.seen) != 0 {
		t.Fatalf("an unseeded crawl allocated %d visited words", cap(cur.seen))
	}

	seen := int64(mesh.NumCrawlBlocks(m.NumVertices())) * 8
	rest := func(label string, results int) int64 {
		t.Helper()
		if got := int64(cap(cur.seen)) * 8; got != seen {
			t.Fatalf("%s: %d bytes of visited set, want ⌈V/32⌉ x 8 B = %d", label, got, seen)
		}
		r := cur.MemoryBytes() - seen
		if bound := int64(64 * (results + 64)); r > bound {
			t.Fatalf("%s: %d bytes beside the visited set for %d results, want <= %d", label, r, results, bound)
		}
		return r
	}
	small := rest("small range", len(cur.Query(geom.BoxAround(geom.V(0.5, 0.5, 0.5), 0.05), nil)))
	nBig := len(cur.Query(geom.BoxAround(geom.V(0.5, 0.5, 0.5), 0.45), nil))
	big := rest("big range", nBig)
	rest("small kNN", len(cur.KNN(geom.V(0.5, 0.5, 0.5), 8, nil)))
	bigK := rest("big kNN", len(cur.KNN(geom.V(0.5, 0.5, 0.5), nBig/2, nil)))
	// A kNN first, on a fresh cursor, sizes the same set.
	fresh := o.NewCursor().(*Cursor)
	fresh.KNN(geom.V(0.5, 0.5, 0.5), 8, nil)
	if got := int64(cap(fresh.seen)) * 8; got != seen {
		t.Fatalf("a first kNN allocated %d bytes of visited set, want %d", got, seen)
	}
	if big <= small || bigK <= big {
		t.Errorf("result-sized scratch did not grow with the result: %d, %d, %d bytes", small, big, bigK)
	}
}
