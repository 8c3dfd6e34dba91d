package core

import (
	"math"
	"math/rand"
	"runtime"
	"slices"
	"sync"
	"testing"

	"octopus/internal/geom"
	"octopus/internal/mesh"
	"octopus/internal/meshgen"
	"octopus/internal/query"
	"octopus/internal/shard"
	"octopus/internal/sim"
	"octopus/internal/workload"
)

// cursorWorkload returns a deterministic mixed query stream over m.
func cursorWorkload(m interface {
	Position(int32) geom.Vec3
	NumVertices() int
}, n int, seed int64) []geom.AABB {
	r := rand.New(rand.NewSource(seed))
	qs := make([]geom.AABB, n)
	for i := range qs {
		center := m.Position(int32(r.Intn(m.NumVertices())))
		qs[i] = geom.BoxAround(center, 0.02+r.Float64()*0.2)
	}
	return qs
}

// TestMergedStatsEqualSerialTotals runs the same workload once on the
// resident cursor and once split across N worker cursors, and asserts the
// merged counter totals are identical: the stats split must not lose or
// double-count anything.
func TestMergedStatsEqualSerialTotals(t *testing.T) {
	const workers = 4
	m := buildBox(t, 8)
	queries := cursorWorkload(m, 48, 7)

	serialEng := New(m)
	var out []int32
	for _, q := range queries {
		out = serialEng.Query(q, out[:0])
	}
	want := serialEng.Stats()

	parEng := New(m)
	cursors := make([]*Cursor, workers)
	for w := range cursors {
		cursors[w] = parEng.NewCursor().(*Cursor)
	}
	// Deterministic round-robin split so every query runs exactly once.
	for i, q := range queries {
		cur := cursors[i%workers]
		cur.Query(q, nil)
	}
	// Before closing, the engine has seen nothing.
	if got := parEng.Stats(); got.Queries != 0 {
		t.Fatalf("engine stats before Close: %+v, want zero", got)
	}
	perCursor := int64(0)
	for _, cur := range cursors {
		perCursor += cur.Stats().Queries
		cur.Close()
	}
	if perCursor != int64(len(queries)) {
		t.Fatalf("cursors executed %d queries, want %d", perCursor, len(queries))
	}

	got := parEng.Stats()
	if got.Queries != want.Queries || got.Results != want.Results ||
		got.ProbeChecked != want.ProbeChecked || got.CrawlVisited != want.CrawlVisited ||
		got.WalkVisited != want.WalkVisited || got.DirectedWalks != want.DirectedWalks {
		t.Errorf("merged counters diverge from serial:\n got %+v\nwant %+v", got, want)
	}
	// Closing again must not double-count (the accumulator was taken).
	for _, cur := range cursors {
		cur.Close()
	}
	if again := parEng.Stats(); again.Queries != want.Queries {
		t.Errorf("second Close double-counted: %d queries, want %d", again.Queries, want.Queries)
	}
}

// TestConStatsMerge is the same totals check for OCTOPUS-CON's cursor.
func TestConStatsMerge(t *testing.T) {
	m := buildBox(t, 8)
	queries := cursorWorkload(m, 32, 11)

	serialEng := NewCon(m, 0)
	for _, q := range queries {
		serialEng.Query(q, nil)
	}
	want := serialEng.Stats()

	parEng := NewCon(m, 0)
	a := parEng.NewCursor().(*Cursor)
	b := parEng.NewCursor().(*Cursor)
	for i, q := range queries {
		if i%2 == 0 {
			a.Query(q, nil)
		} else {
			b.Query(q, nil)
		}
	}
	a.Close()
	b.Close()
	got := parEng.Stats()
	if got.Queries != want.Queries || got.Results != want.Results ||
		got.CrawlVisited != want.CrawlVisited || got.DirectedWalks != want.DirectedWalks {
		t.Errorf("merged counters diverge from serial:\n got %+v\nwant %+v", got, want)
	}
}

// TestCursorsRaceFree hammers one engine from many goroutines through
// distinct cursors; run under -race this validates the concurrency claim
// for the whole Octopus query path, including the first queries of the
// engine racing to build the probe's block boxes.
func TestCursorsRaceFree(t *testing.T) {
	m := buildBox(t, 8)
	eng := New(m)
	queries := cursorWorkload(m, 64, 17)
	want := make([][]int32, len(queries))
	for i, q := range queries {
		want[i] = query.BruteForce(m, q)
	}

	workers := runtime.GOMAXPROCS(0) + 2
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			cur := eng.NewCursor()
			defer cur.Close()
			for i := w; i < len(queries); i += workers {
				got := cur.Query(queries[i], nil)
				if d := query.Diff(got, append([]int32(nil), want[i]...)); d != "" {
					t.Errorf("worker %d query %d: %s", w, i, d)
					return
				}
			}
		}(w)
	}
	wg.Wait()
}

// TestResidentCursorRejectsConcurrentEntry pins the resident-path
// contract of the three OCTOPUS engines: while a query holds the resident
// cursor (the test holds its guard, exactly as a goroutine inside Query
// does), a second entry through Query or KNN panics with the named
// violation instead of sharing the cursor's scratch, and the path works
// again — each call having left the guard behind it — once it is free.
func TestResidentCursorRejectsConcurrentEntry(t *testing.T) {
	m := buildBox(t, 4)
	oct, con, hyb := New(m), NewCon(m, 0), NewHybrid(m, 0, Constants{CS: 1, CR: 4})
	q := geom.BoxAround(geom.V(0.5, 0.5, 0.5), 0.3)
	p := geom.V(0.1, 0.2, 0.3)
	for _, tc := range []struct {
		eng   query.ParallelKNNEngine
		guard *query.ResidentGuard
	}{{oct, &oct.guard}, {con, &con.guard}, {hyb, &hyb.oct.guard}} {
		entries := map[string]func(){
			"Query": func() { tc.eng.Query(q, nil) },
			"KNN":   func() { tc.eng.KNN(p, 5, nil) },
		}
		tc.guard.Enter("core")
		for name, enter := range entries {
			func() {
				defer func() {
					const want = "core: resident cursor entered concurrently — use NewCursor per goroutine"
					if got := recover(); got != want {
						t.Errorf("%s.%s: recovered %v, want panic %q", tc.eng.Name(), name, got, want)
					}
				}()
				enter()
			}()
		}
		tc.guard.Leave()
		for i := 0; i < 2; i++ { // twice: each call must leave the guard free
			if d := query.Diff(tc.eng.Query(q, nil), query.BruteForce(m, q)); d != "" {
				t.Fatalf("%s after the holder left: %s", tc.eng.Name(), d)
			}
			if got, want := tc.eng.KNN(p, 5, nil), query.BruteForceKNN(m, p, 5); !slices.Equal(got, want) {
				t.Fatalf("%s kNN after the holder left: %v, want %v", tc.eng.Name(), got, want)
			}
		}
	}
}

// TestCursorAnswersIgnoreHistory: a cursor's answers depend on the mesh
// state alone. On a deformed neuro-l1 and on the four shard legs of its
// K=4 partition, a fresh cursor and one that has already run 200 other
// range, kNN and budgeted queries return bit-identical range answers (in
// order) and kNN answers with the same LastKNNBound2 bits, both exact and
// under a MaxVisited budget.
func TestCursorAnswersIgnoreHistory(t *testing.T) {
	l1 := dataset(t, meshgen.NeuroL1)
	d := &sim.NoiseDeformer{Amplitude: sim.DefaultAmplitude, Frequency: 1.5, Seed: 5}
	deform := func(m *mesh.Mesh, steps int) {
		for s := 0; s < steps; s++ {
			m.Deform(func(pos []geom.Vec3) { d.Step(s, pos) })
		}
	}
	deform(l1, 3)
	part, err := shard.NewPartition(l1, 4)
	if err != nil {
		t.Fatal(err)
	}
	meshes := []*mesh.Mesh{l1}
	for _, p := range part.Parts {
		deform(p.Mesh, 2)
		meshes = append(meshes, p.Mesh)
	}
	for mi, m := range meshes {
		o := New(m)
		g := workload.NewGenerator(m, 1024, int64(mi))
		used := o.NewCursor().(*Cursor)
		history := g.UniformQueries(100, 0.005)
		probes := g.KNNQueries(100, 1, 32, 0.01)
		for i := range history {
			used.SetBudget(query.CrawlBudget{MaxVisited: int64(10 * (i % 3))})
			used.Query(history[i], nil)
			used.KNN(probes[i].P, probes[i].K, nil)
		}
		for _, budget := range []query.CrawlBudget{{}, {MaxVisited: 40}} {
			fresh := o.NewCursor().(*Cursor)
			fresh.SetBudget(budget)
			used.SetBudget(budget)
			for i, q := range g.UniformQueries(30, 0.002) {
				if a, b := fresh.Query(q, nil), used.Query(q, nil); !slices.Equal(a, b) {
					t.Fatalf("mesh %d budget %+v range %d: fresh %v, used %v", mi, budget, i, a, b)
				}
			}
			for i, p := range g.KNNQueries(30, 1, 32, 0.01) {
				a, b := fresh.KNN(p.P, p.K, nil), used.KNN(p.P, p.K, nil)
				ab, aok := fresh.LastKNNBound2()
				bb, bok := used.LastKNNBound2()
				if !slices.Equal(a, b) || math.Float64bits(ab) != math.Float64bits(bb) || aok != bok {
					t.Fatalf("mesh %d budget %+v kNN %d: fresh %v (%v), used %v (%v)", mi, budget, i, a, ab, b, bb)
				}
			}
		}
	}
}
