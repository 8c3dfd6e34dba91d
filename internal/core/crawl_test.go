package core

import (
	"math"
	"math/rand"
	"sort"
	"testing"

	"octopus/internal/geom"
	"octopus/internal/mesh"
	"octopus/internal/meshgen"
	"octopus/internal/query"
	"octopus/internal/sim"
	"octopus/internal/workload"
)

// The TestParallelCrawl prefix is kept so the suite's test ids stay stable
// across PRs; what each test checks is in its comment. What is parallel
// about the crawl is TestParallelCrawlConcurrentCursors: one cursor per
// goroutine.

// randomBoxes returns n query boxes centred on random vertices with radii
// between lo and hi of the mesh diagonal.
func randomBoxes(m *mesh.Mesh, seed int64, n int, lo, hi float64) []geom.AABB {
	r := rand.New(rand.NewSource(seed))
	diag := m.Bounds().Size().Len()
	qs := make([]geom.AABB, n)
	for i := range qs {
		qs[i] = geom.BoxAround(m.Position(int32(r.Intn(m.NumVertices()))), diag*(lo+(hi-lo)*r.Float64()))
	}
	return qs
}

// TestParallelCrawlRangeMatchesSerial checks the range crawl on every
// crawl engine against brute force, across query sizes from a handful of
// vertices to half the mesh (hundreds of probe seeds, thousands of
// expansions).
func TestParallelCrawlRangeMatchesSerial(t *testing.T) {
	m := buildBox(t, 12)
	queries := randomBoxes(m, 11, 40, 0.02, 0.52)
	for _, eng := range []query.Engine{
		New(m), NewCon(m, 0), NewHybrid(m, 0, Constants{CS: 1, CR: 1e-9}),
	} {
		for qi, q := range queries {
			if d := query.Diff(eng.Query(q, nil), query.BruteForce(m, q)); d != "" {
				t.Fatalf("%s q#%d: %s", eng.Name(), qi, d)
			}
		}
	}
}

// TestParallelCrawlKNNBitEqual checks the kNN crawl's (dist,id)-ordered
// result and its reported ball against brute force — not just the same
// set, the same slice — from k = 1 to a k that takes most of the mesh.
func TestParallelCrawlKNNBitEqual(t *testing.T) {
	m := buildBox(t, 10)
	r := rand.New(rand.NewSource(12))
	lo, hi := m.Bounds().Min, m.Bounds().Max
	randPoint := func() geom.Vec3 {
		return geom.V(
			lo.X+r.Float64()*(hi.X-lo.X),
			lo.Y+r.Float64()*(hi.Y-lo.Y),
			lo.Z+r.Float64()*(hi.Z-lo.Z))
	}
	for _, eng := range []query.ParallelEngine{New(m), NewCon(m, 0)} {
		cur := eng.NewCursor().(exactCursor)
		for _, k := range []int{1, 5, 16, 100, 600} {
			for i := 0; i < 15; i++ {
				checkKNN(t, eng.Name(), cur, m.Positions(), randPoint(), k)
			}
		}
	}
}

// TestParallelCrawlDeforming checks both crawls against brute force while
// the mesh deforms between batches: one warmed cursor must be exact on
// every intermediate geometry, not just the pristine build.
func TestParallelCrawlDeforming(t *testing.T) {
	m := buildBox(t, 8)
	o := New(m)
	cur := o.NewCursor().(exactCursor)
	s := sim.New(m, &sim.NoiseDeformer{Amplitude: 0.03, Frequency: 2, Seed: 7})
	r := rand.New(rand.NewSource(13))
	for step := 0; step < 6; step++ {
		s.Step()
		o.Step()
		for i, q := range randomBoxes(m, int64(100+step), 8, 0.05, 0.45) {
			if d := query.Diff(cur.Query(q, nil), query.BruteForce(m, q)); d != "" {
				t.Fatalf("step %d q#%d: %s", step, i, d)
			}
			checkKNN(t, "deforming kNN", cur, m.Positions(), m.Position(int32(r.Intn(m.NumVertices()))), 64)
		}
	}
}

// referenceBFS is the crawl written the obvious way: a map for the visited
// set, a queue of its own, seeds taken in the order given.
func referenceBFS(m *mesh.Mesh, q geom.AABB, seeds []int32) []int32 {
	visited := make(map[int32]bool)
	var queue []int32
	for _, s := range seeds {
		if !visited[s] {
			visited[s] = true
			queue = append(queue, s)
		}
	}
	for head := 0; head < len(queue); head++ {
		for _, w := range m.Neighbors(queue[head]) {
			if !visited[w] {
				visited[w] = true
				if q.Contains(m.Position(w)) {
					queue = append(queue, w)
				}
			}
		}
	}
	return queue
}

// TestCrawlOrderMatchesReferenceBFS pins the order of a range result, slot
// for slot: the BFS discovery order from the probe's seeds — the surface
// vertices inside the box, in surface-index order — or, when the box holds
// no surface vertex, from the one vertex the directed walk arrived at
// (which is then out[0]). Core engines are deterministic per cursor; this
// is the order they are deterministic in.
func TestCrawlOrderMatchesReferenceBFS(t *testing.T) {
	for name, m := range map[string]*mesh.Mesh{
		"id-array": buildBox(t, 10), "surface-first": surfaceFirstBox(t, 10),
	} {
		o := New(m)
		walked := 0
		for i, q := range randomBoxes(m, 14, 40, 0.03, 0.45) {
			got := o.Query(q, nil)
			var seeds []int32
			for _, v := range o.idx.Slots() {
				if q.Contains(m.Position(v)) {
					seeds = append(seeds, v)
				}
			}
			if len(seeds) == 0 && len(got) > 0 {
				seeds = got[:1]
				walked++
			}
			want := referenceBFS(m, q, seeds)
			if len(got) != len(want) {
				t.Fatalf("%s q#%d: %d results, reference %d", name, i, len(got), len(want))
			}
			for j := range want {
				if got[j] != want[j] {
					t.Fatalf("%s q#%d slot %d: got %d, reference BFS %d", name, i, j, got[j], want[j])
				}
			}
		}
		if walked == 0 {
			t.Errorf("%s: no query took the directed walk; the no-seed order is untested", name)
		}
	}
}

// TestParallelCrawlBudgetRange checks the approximate mode on range
// queries with the deterministic ops budget: truncated results are a
// subset of the exact result, coverage reports the truncation honestly,
// and the zero budget restores exact execution with zero coverage.
func TestParallelCrawlBudgetRange(t *testing.T) {
	m := buildBox(t, 10)
	o := New(m)
	q := geom.BoxAround(m.Bounds().Center(), m.Bounds().Size().Len()*0.3)
	exact := o.Query(q, nil)
	cov := o.resident.LastCoverage()
	if cov.Truncated || cov.Frontier != 0 || cov.BoundGap != 0 {
		t.Fatalf("exact query reported coverage %+v", cov)
	}
	if cov.VisitedFrac() != 1 {
		t.Fatalf("exact VisitedFrac = %v, want 1", cov.VisitedFrac())
	}

	o.resident.SetBudget(query.CrawlBudget{MaxVisited: int64(len(exact)) / 4})
	trunc := o.Query(q, nil)
	cov = o.resident.LastCoverage()
	if !cov.Truncated {
		t.Fatal("budgeted query not truncated")
	}
	if cov.Visited <= 0 || cov.Frontier <= 0 {
		t.Fatalf("implausible coverage %+v", cov)
	}
	if f := cov.VisitedFrac(); f <= 0 || f >= 1 {
		t.Fatalf("VisitedFrac = %v, want in (0,1)", f)
	}
	if len(trunc) >= len(exact) || len(trunc) == 0 {
		t.Fatalf("truncated result size %d, exact %d", len(trunc), len(exact))
	}
	inExact := make(map[int32]bool, len(exact))
	for _, v := range exact {
		inExact[v] = true
	}
	for _, v := range trunc {
		if !inExact[v] {
			t.Fatalf("truncated result %d not in exact result", v)
		}
	}
	// The ops budget counts expansions, so it cuts at the same vertex.
	again := o.Query(q, nil)
	if len(again) != len(trunc) {
		t.Fatalf("ops budget nondeterministic: %d vs %d results", len(again), len(trunc))
	}
	for i := range again {
		if again[i] != trunc[i] {
			t.Fatalf("ops budget nondeterministic at slot %d", i)
		}
	}

	o.resident.SetBudget(query.CrawlBudget{})
	back := o.Query(q, nil)
	if d := query.Diff(back, append([]int32(nil), exact...)); d != "" {
		t.Fatalf("zero budget not exact: %s", d)
	}
}

// TestParallelCrawlBudgetKNN checks the kNN coverage report: a truncated
// crawl reports a bound gap in [0,1] and keeps the best candidates found.
func TestParallelCrawlBudgetKNN(t *testing.T) {
	m := buildBox(t, 10)
	o := New(m)
	p := m.Bounds().Center()
	k := 400
	exact := o.KNN(p, k, nil)
	o.resident.SetBudget(query.CrawlBudget{MaxVisited: 40})
	trunc := o.KNN(p, k, nil)
	cov := o.resident.LastCoverage()
	if !cov.Truncated {
		t.Fatal("budgeted kNN not truncated")
	}
	if cov.BoundGap < 0 || cov.BoundGap > 1 {
		t.Fatalf("BoundGap = %v, want in [0,1]", cov.BoundGap)
	}
	if len(trunc) == 0 {
		t.Fatal("truncated kNN returned nothing")
	}
	// The truncated result's candidates were all offered during an exact
	// prefix of the crawl, so recall against exact must be partial
	// but nonzero.
	inExact := make(map[int32]bool, len(exact))
	for _, v := range exact {
		inExact[v] = true
	}
	hits := 0
	for _, v := range trunc {
		if inExact[v] {
			hits++
		}
	}
	if hits == 0 {
		t.Fatal("zero recall under budget")
	}

	o.resident.SetBudget(query.CrawlBudget{})
	back := o.KNN(p, k, nil)
	for i := range exact {
		if back[i] != exact[i] {
			t.Fatalf("zero budget not exact at slot %d", i)
		}
	}
}

// TestParallelCrawlMemoryBytes checks the cursor's exported footprint: it
// is the sum of its parts — mark array, kNN frontier, k-best heap, seed
// buffer, block distances, the leaves the kNN start search sets aside — and it
// grows once a crawl has run.
func TestParallelCrawlMemoryBytes(t *testing.T) {
	m := buildBox(t, 8)
	o := New(m)
	base := o.resident.MemoryBytes()
	q := geom.BoxAround(m.Bounds().Center(), m.Bounds().Size().Len()*0.4)
	o.Query(q, nil)
	o.KNN(m.Bounds().Center(), 200, nil)
	grown := o.resident.MemoryBytes()
	if grown <= base {
		t.Fatalf("MemoryBytes did not grow: %d -> %d", base, grown)
	}
	cur := o.resident
	marks, heap := int64(cap(cur.marks))*4, int64(cap(cur.heap))*16
	kbest, seeds := cur.kbest.MemoryBytes(), int64(cap(cur.seeds))*4
	blocks, aside := int64(cap(cur.blocks))*16, int64(cap(cur.aside))*16
	if marks != int64(m.NumVertices())*4 || heap == 0 || kbest == 0 || seeds == 0 || blocks == 0 || aside == 0 {
		t.Fatalf("parts: marks %d (V=%d), heap %d, kbest %d, seeds %d, blocks %d, aside %d — every one must exist after a crawl and a kNN",
			marks, m.NumVertices(), heap, kbest, seeds, blocks, aside)
	}
	if want := marks + heap + kbest + seeds + blocks + aside; grown != want {
		t.Fatalf("MemoryBytes = %d, want %d (sum of parts)", grown, want)
	}
}

// TestParallelCrawlConcurrentCursors drives queries from several cursors
// at once — where the parallelism lives: each worker goroutine of a batch
// owns a cursor and its mark array — the configuration the race detector
// must bless.
func TestParallelCrawlConcurrentCursors(t *testing.T) {
	m := buildBox(t, 10)
	o := New(m)
	r := rand.New(rand.NewSource(15))
	queries := randomBoxes(m, 15, 24, 0.1, 0.4)
	want := make([][]int32, len(queries))
	for i, q := range queries {
		want[i] = append([]int32(nil), query.BruteForce(m, q)...)
		sort.Slice(want[i], func(a, b int) bool { return want[i][a] < want[i][b] })
	}
	got := query.ExecuteBatch(o, queries, 4)
	for i := range got {
		if d := query.Diff(got[i], want[i]); d != "" {
			t.Fatalf("q#%d: %s", i, d)
		}
	}

	probes := make([]query.KNNQuery, 12)
	for i := range probes {
		probes[i] = query.KNNQuery{P: m.Position(int32(r.Intn(m.NumVertices()))), K: 64}
	}
	kgot := query.ExecuteKNNBatch(o, probes, 4)
	for i := range kgot {
		kwant := query.BruteForceKNN(m, probes[i].P, probes[i].K)
		for j := range kwant {
			if kgot[i][j] != kwant[j] {
				t.Fatalf("probe#%d slot %d: got %d, want %d", i, j, kgot[i][j], kwant[j])
			}
		}
	}
}

// TestParallelCrawlTwoComponents checks seeding across connected
// components: a query spanning both neuron cells must return both
// sub-results, from one crawl over one mark array.
func TestParallelCrawlTwoComponents(t *testing.T) {
	m, err := meshgen.BuildNeuron(1, 1)
	if err != nil {
		t.Fatal(err)
	}
	if n, _ := m.ConnectedComponents(); n < 2 {
		t.Fatalf("%d components, want at least 2", n)
	}
	o := New(m)
	for i, q := range randomBoxes(m, 16, 20, 0.1, 0.5) {
		if d := query.Diff(o.Query(q, nil), query.BruteForce(m, q)); d != "" {
			t.Fatalf("q#%d vs brute force: %s", i, d)
		}
	}
}

// TestParallelCrawlHybridCoverageReset checks that a scan-routed hybrid
// query does not report the previous crawl's coverage — the
// stale-truncation trap the hybrid's scan route must not fall into.
func TestParallelCrawlHybridCoverageReset(t *testing.T) {
	m := buildBox(t, 8)
	h := NewHybrid(m, 0, Constants{CS: 1, CR: 4})
	cur, ok := h.NewCursor().(*hybridCursor)
	if !ok {
		t.Fatal("hybrid cursor type")
	}
	cur.SetBudget(query.CrawlBudget{MaxVisited: 1})
	h.resident.SetBudget(query.CrawlBudget{MaxVisited: 1})
	q := geom.BoxAround(m.Bounds().Center(), m.Bounds().Size().Len()*0.3)
	h.breakEven = 2 // force the crawl route
	cur.Query(q, nil)
	if !cur.LastCoverage().Truncated {
		t.Fatal("budgeted crawl-routed query did not truncate")
	}
	h.breakEven = 0 // force the scan route
	cur.Query(q, nil)
	if cov := cur.LastCoverage(); cov.Truncated || cov.Frontier != 0 {
		t.Fatalf("scan-routed query reports stale coverage %+v", cov)
	}
	// Same trap on the resident-cursor path.
	h.breakEven = 2
	h.Query(q, nil)
	if !h.resident.LastCoverage().Truncated {
		t.Fatal("resident budgeted crawl did not truncate")
	}
	h.breakEven = 0
	h.Query(q, nil)
	if cov := h.resident.LastCoverage(); cov.Truncated || cov.Frontier != 0 {
		t.Fatalf("resident scan-routed query reports stale coverage %+v", cov)
	}
}

// TestMarkEpochWrap drives a warmed cursor's mark epoch over the 32-bit
// wrap. Stale stamps from earlier crawls are all over the array; a wrap
// that does not hard-clear them (or that lands on epoch 0, the value of a
// never-visited slot) makes the next crawl see vertices as already
// visited and drop them.
func TestMarkEpochWrap(t *testing.T) {
	m := buildBox(t, 8)
	o := New(m)
	cur := o.NewCursor().(*Cursor)
	boxes := randomBoxes(m, 17, 6, 0.1, 0.4)
	for _, q := range boxes { // warm: marks hold many epochs' stamps
		cur.Query(q, nil)
	}
	cur.markEpoch = math.MaxUint32 - 1 // the next crawl stamps MaxUint32, the one after wraps
	for i := range cur.marks {
		if i%3 == 0 {
			cur.marks[i] = math.MaxUint32 - 1 // visited by the crawl just before
		} else if i%3 == 1 {
			cur.marks[i] = 1 // what the first epoch after the wrap stamps
		}
	}
	for i, q := range boxes[:4] {
		if i%2 == 0 {
			if d := query.Diff(cur.Query(q, nil), query.BruteForce(m, q)); d != "" {
				t.Fatalf("crawl %d around the wrap (epoch %d): %s", i, cur.markEpoch, d)
			}
		} else {
			checkKNN(t, "kNN around the wrap", cur, m.Positions(), q.Center(), 50)
		}
		if cur.markEpoch == 0 {
			t.Fatal("mark epoch 0 is the never-visited value; a crawl must not run at it")
		}
	}
	if cur.markEpoch > 8 {
		t.Fatalf("mark epoch %d: the wrap was never crossed", cur.markEpoch)
	}
}

// TestMarksGrowWithMesh restructures the mesh under a warmed cursor:
// SplitCell adds vertices whose ids lie past the mark array the cursor
// allocated, and the next crawl must re-size it — and reach the new
// vertices — instead of indexing out of range.
func TestMarksGrowWithMesh(t *testing.T) {
	m := buildBox(t, 6)
	o := New(m)
	cur := o.NewCursor().(*Cursor)
	all := geom.BoxAround(m.Bounds().Center(), m.Bounds().Size().Len())
	cur.Query(all, nil)
	cur.KNN(m.Bounds().Center(), 10, nil)
	if len(cur.marks) != m.NumVertices() {
		t.Fatalf("%d marks for %d vertices", len(cur.marks), m.NumVertices())
	}
	before := m.NumVertices()
	for ci := 0; ci < 40; ci++ {
		_, delta, err := m.SplitCell(ci)
		if err != nil {
			t.Fatal(err)
		}
		o.ApplySurfaceDelta(delta)
	}
	if m.NumVertices() != before+40 {
		t.Fatalf("%d vertices after 40 splits of %d", m.NumVertices(), before)
	}
	if d := query.Diff(cur.Query(all, nil), query.BruteForce(m, all)); d != "" {
		t.Fatalf("range after growth: %s", d)
	}
	if len(cur.marks) < m.NumVertices() {
		t.Fatalf("%d marks for %d vertices after growth", len(cur.marks), m.NumVertices())
	}
	for i, q := range randomBoxes(m, 18, 10, 0.05, 0.4) {
		if d := query.Diff(cur.Query(q, nil), query.BruteForce(m, q)); d != "" {
			t.Fatalf("q#%d after growth: %s", i, d)
		}
		checkKNN(t, "kNN after growth", cur, m.Positions(), q.Center(), m.NumVertices()) // k = V: every new vertex is in the answer
	}
}

// BenchmarkCrawl times the crawl phase where the benchmark's paper-mode
// workload runs it: neuro-l5, range boxes at sim-step's selectivity mix
// (1e-4, 1e-3, 1e-2 in rotation) and at 20 %, kNN at k = 16 and k = 256.
// crawl-ns/visited is Stats.Crawl over Stats.CrawlVisited — the row
// ROADMAP's crawl item is judged on; a warmed cursor must not allocate.
func BenchmarkCrawl(b *testing.B) {
	m, err := meshgen.Build(meshgen.NeuroL5, 1)
	if err != nil {
		b.Fatal(err)
	}
	cur := New(m).NewCursor().(*Cursor)
	g := workload.NewGenerator(m, 4096, 1)
	var mix []geom.AABB
	for i := 0; i < 96; i++ {
		mix = append(mix, g.QueryWithSelectivity([]float64{0.0001, 0.001, 0.01}[i%3]))
	}
	big := g.UniformQueries(8, 0.2)
	k16, k256 := g.KNNQueries(96, 16, 16, 0), g.KNNQueries(96, 256, 256, 0)
	out := make([]int32, 0, m.NumVertices())
	for _, c := range []struct {
		name string
		n    int
		run  func(i int)
	}{
		{"range/sim-step", len(mix), func(i int) { out = cur.Query(mix[i%len(mix)], out[:0]) }},
		{"range/20pct", len(big), func(i int) { out = cur.Query(big[i%len(big)], out[:0]) }},
		{"knn/k=16", len(k16), func(i int) { out = cur.KNN(k16[i%len(k16)].P, 16, out[:0]) }},
		{"knn/k=256", len(k256), func(i int) { out = cur.KNN(k256[i%len(k256)].P, 256, out[:0]) }},
	} {
		b.Run(c.name, func(b *testing.B) {
			for i := 0; i < c.n; i++ { // warm every buffer on every query of the stream
				c.run(i)
			}
			i := 0
			if allocs := testing.AllocsPerRun(c.n, func() { c.run(i); i++ }); allocs != 0 {
				b.Fatalf("%.2f allocs per query on a warmed cursor, want 0", allocs)
			}
			before := cur.Stats()
			b.ResetTimer()
			for it := 0; it < b.N; it++ {
				c.run(it)
			}
			st := cur.Stats()
			visited := float64(st.CrawlVisited - before.CrawlVisited)
			b.ReportMetric(float64(st.Crawl-before.Crawl)/visited, "crawl-ns/visited")
			b.ReportMetric(visited/float64(b.N), "visited/op")
		})
	}
}
