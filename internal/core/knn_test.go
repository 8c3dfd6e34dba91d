package core

import (
	"math/rand"
	"testing"

	"octopus/internal/geom"
	"octopus/internal/query"
	"octopus/internal/sim"
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

// TestKNNApproximateModeStaysExact documents a deliberate property of the
// design: approximation degrades only the crawl's starting point (the
// probe samples the surface), not the crawl's expansion, so on a connected
// well-shaped mesh the approximate engine still returns exact kNN results
// — it just works a little harder for them.
func TestKNNApproximateModeStaysExact(t *testing.T) {
	m := buildBox(t, 8)
	o := New(m)
	o.SetApproximation(0.1)
	r := rand.New(rand.NewSource(5))
	for i := 0; i < 30; i++ {
		p := m.Position(int32(r.Intn(m.NumVertices())))
		k := 1 + r.Intn(16)
		knnOracle(t, "approx", o.KNN(p, k, nil), query.BruteForceKNN(m, p, k))
	}
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
