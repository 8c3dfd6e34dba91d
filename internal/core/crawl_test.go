package core

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"sort"
	"strings"
	"testing"

	"octopus/internal/geom"
	"octopus/internal/mesh"
	"octopus/internal/meshgen"
	"octopus/internal/query"
	"octopus/internal/shard"
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

// referenceBFS is the vertex crawl written the obvious way: a map for the
// visited set, a queue of its own, seeds taken in the order given. The
// block crawl's answer must hold its answer (checkCrawlAnswer).
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

// referenceBlockCrawl is the block crawl written the obvious way: a map
// of queued blocks, a block queue of its own, and the block-graph
// neighbours of a block with at least graphExpandMin in-box vertices
// derived from the vertex lists of all its vertices, not read from the
// mesh's block graph.
func referenceBlockCrawl(m *mesh.Mesh, q geom.AABB, seeds []int32) []int32 {
	const shift = mesh.CrawlBlockShift
	n := int32(m.NumVertices())
	queued := make(map[int32]bool)
	var queue, out []int32
	push := func(b int32) {
		if !queued[b] {
			queued[b] = true
			queue = append(queue, b)
		}
	}
	for _, s := range seeds {
		push(s >> shift)
	}
	for i := 0; i < len(queue); i++ {
		b := queue[i]
		var found []int32
		for v := b << shift; v < min((b+1)<<shift, n); v++ {
			if q.Contains(m.Position(v)) {
				found = append(found, v)
			}
		}
		out = append(out, found...)
		if len(found) >= graphExpandMin {
			var adj []int32
			for v := b << shift; v < min((b+1)<<shift, n); v++ {
				for _, w := range m.Neighbors(v) {
					if c := w >> shift; c != b && !slices.Contains(adj, c) {
						adj = append(adj, c)
					}
				}
			}
			slices.Sort(adj)
			for _, c := range adj {
				push(c)
			}
			continue
		}
		for _, v := range found {
			for _, w := range m.Neighbors(v) {
				push(w >> shift)
			}
		}
	}
	return out
}

// checkCrawlAnswer holds one range answer got, from seeds, to the crawl's
// contract: it is a subset of brute force's answer want (ascending), has no
// duplicate, and holds every vertex the vertex BFS from the same seeds
// reaches. It reports whether got is complete, and whether the vertex
// BFS's answer would have been.
func checkCrawlAnswer(t *testing.T, label string, m *mesh.Mesh, q geom.AABB, seeds, got, want []int32) (complete, bfsComplete bool) {
	t.Helper()
	inGot := make(map[int32]bool, len(got))
	for _, v := range got {
		if _, ok := slices.BinarySearch(want, v); !ok {
			t.Fatalf("%s: %d is not in the box", label, v)
		}
		if inGot[v] {
			t.Fatalf("%s: %d twice", label, v)
		}
		inGot[v] = true
	}
	bfs := referenceBFS(m, q, seeds)
	for _, v := range bfs {
		if !inGot[v] {
			t.Fatalf("%s: vertex BFS from the same %d seeds reaches %d, the answer misses it", label, len(seeds), v)
		}
	}
	return len(got) == len(want), len(bfs) == len(want)
}

// TestCrawlOrderMatchesReferenceBFS pins the order of a range result, slot
// for slot: the block BFS order from the blocks of the probe's seeds — the
// surface vertices inside the box, in surface-index order — or, when the
// box holds no surface vertex, from the block of the one vertex the
// directed walk arrived at, each block's in-box vertices ascending
// (referenceBlockCrawl). Core engines are deterministic per cursor; this
// is the order they are deterministic in. The answer also holds the
// vertex BFS's from the same seeds.
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
				seeds = o.resident.seeds
				walked++
			}
			label := fmt.Sprintf("%s q#%d", name, i)
			checkCrawlAnswer(t, label, m, q, seeds, got, query.BruteForce(m, q))
			want := referenceBlockCrawl(m, q, seeds)
			if len(got) != len(want) {
				t.Fatalf("%s: %d results, reference %d", label, len(got), len(want))
			}
			for j := range want {
				if got[j] != want[j] {
					t.Fatalf("%s slot %d: got %d, reference block crawl %d", label, j, got[j], want[j])
				}
			}
		}
		if walked == 0 {
			t.Errorf("%s: no query took the directed walk; the no-seed order is untested", name)
		}
	}
}

// TestCrawlAnswersHoldVertexBFS holds every range answer to the block
// crawl's contract (checkCrawlAnswer) on the benchmark's meshes at the
// benchmark's selectivities (1e-4, 1e-3, 1e-2): it holds the vertex BFS's
// answer from the same seeds, it is a subset of brute force with no
// duplicate, and a repeated query returns the same slice. The states, at
// 1 500 queries each (500 on neuro-l5): neuro-l3 and neuro-l5 after 0,
// 100 and 400 noise steps; neuro-l3 after cell splits and deletes, which
// leave the surface index non-dense and add vertices in new crawl blocks
// (some answer must hold one); and the four K = 4 sub-meshes of neuro-l3. Under -short the same kinds of state are
// made of neuro-l1, after 0, 20 and 80 steps, with fewer queries. It logs
// how many answers were incomplete against how many vertex-BFS answers
// would have been.
func TestCrawlAnswersHoldVertexBFS(t *testing.T) {
	// Queries per state and dataset; neuro-l5's brute force costs 8× a
	// neuro-l3 one, so it gets a third of the queries.
	perState := map[meshgen.Dataset]int{meshgen.NeuroL3: 1500, meshgen.NeuroL5: 500}
	levels, small := []meshgen.Dataset{meshgen.NeuroL3, meshgen.NeuroL5}, meshgen.NeuroL3
	steps := []int{0, 100, 400}
	if testing.Short() {
		perState = map[meshgen.Dataset]int{meshgen.NeuroL1: 200}
		levels, small, steps = []meshgen.Dataset{meshgen.NeuroL1}, meshgen.NeuroL1, []int{0, 20, 80}
	}
	run := func(t *testing.T, label string, m *mesh.Mesh, o *Octopus, n int, seed int64) (got [][]int32) {
		t.Helper()
		g := workload.NewGenerator(m, 4096, seed)
		cur := o.NewCursor().(*Cursor)
		incomplete, bfsIncomplete := 0, 0
		for i := range n {
			q := g.QueryWithSelectivity([]float64{1e-4, 1e-3, 1e-2}[i%3])
			ans := cur.Query(q, nil)
			want := query.BruteForce(m, q)
			qlabel := fmt.Sprintf("%s q#%d", label, i)
			complete, bfsComplete := checkCrawlAnswer(t, qlabel, m, q, cur.seeds, ans, want)
			if !complete {
				incomplete++
			}
			if !bfsComplete {
				bfsIncomplete++
			}
			if again := cur.Query(q, nil); !slices.Equal(again, ans) {
				t.Fatalf("%s: a repeated query answered %d vertices, the first %d", qlabel, len(again), len(ans))
			}
			got = append(got, ans)
		}
		t.Logf("%s: %d of %d answers incomplete (vertex BFS from the same seeds: %d)", label, incomplete, n, bfsIncomplete)
		return got
	}
	for _, ds := range levels {
		t.Run(string(ds), func(t *testing.T) {
			t.Parallel()
			m := dataset(t, ds)
			o := New(m)
			d := &sim.NoiseDeformer{Amplitude: sim.DefaultAmplitude, Frequency: 1.5, Seed: 1}
			step := 0
			for _, at := range steps {
				for ; step < at; step++ {
					d.Step(step, m.Positions())
				}
				o.Step()
				run(t, fmt.Sprintf("%s after %d steps", ds, at), m, o, perState[ds], int64(at)+1)
			}
		})
	}

	t.Run("shards", func(t *testing.T) {
		t.Parallel()
		part, err := shard.NewPartition(dataset(t, small), 4)
		if err != nil {
			t.Fatal(err)
		}
		for i, p := range part.Parts {
			run(t, fmt.Sprintf("%s shard %d/4", small, i), p.Mesh, New(p.Mesh), perState[small], int64(i)+7)
		}
	})

	t.Run("restructured", func(t *testing.T) {
		t.Parallel()
		m := dataset(t, small)
		o := New(m)
		before := m.NumVertices()
		r := rand.New(rand.NewSource(9))
		for ops := 0; ops < 100; {
			ci := r.Intn(len(m.Cells()))
			if m.Cells()[ci].Dead {
				continue
			}
			var err error
			if ops%2 == 0 {
				_, _, err = m.SplitCell(ci)
			} else {
				_, err = m.DeleteCell(ci)
			}
			if err != nil {
				t.Fatal(err)
			}
			ops++
		}
		if o.idx.Dense() || mesh.NumCrawlBlocks(m.NumVertices()) == mesh.NumCrawlBlocks(before) {
			t.Fatalf("restructuring left the surface dense (%v) or added no crawl block (%d -> %d vertices)",
				o.idx.Dense(), before, m.NumVertices())
		}
		newFound := 0
		for _, ans := range run(t, fmt.Sprintf("%s restructured", small), m, o, perState[small], 11) {
			for _, v := range ans {
				if int(v) >= before {
					newFound++
				}
			}
		}
		if newFound == 0 {
			t.Error("no answer on the restructured mesh holds a vertex a split added")
		}
	})
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
// is the sum of its parts — visited set, block queue, kNN frontier,
// k-best heap, seed buffer, block distances — and it grows once a crawl
// has run. The visited set is ⌈V/32⌉ × 8 B, with no per-vertex term.
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
	seen, queue := int64(cap(cur.seen))*8, int64(cap(cur.queue))*4
	heap, kbest := int64(cap(cur.heap))*16, cur.kbest.MemoryBytes()
	seeds, blocks := int64(cap(cur.seeds))*4, int64(cap(cur.blocks))*16
	if seen != int64(mesh.NumCrawlBlocks(m.NumVertices()))*8 || queue == 0 ||
		heap == 0 || kbest == 0 || seeds == 0 || blocks == 0 {
		t.Fatalf("parts: visited %d (V=%d), queue %d, heap %d, kbest %d, seeds %d, blocks %d — every one must exist after a crawl and a kNN",
			seen, m.NumVertices(), queue, heap, kbest, seeds, blocks)
	}
	if want := seen + queue + heap + kbest + seeds + blocks; grown != want {
		t.Fatalf("MemoryBytes = %d, want %d (sum of parts)", grown, want)
	}
}

// TestParallelCrawlConcurrentCursors drives queries from several cursors
// at once — where the parallelism lives: each worker goroutine of a batch
// owns a cursor and its visited set — the configuration the race detector
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
	if n := m.ConnectedComponents().Count(); n < 2 {
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

// TestMarkEpochWrap drives a warmed cursor's one pass epoch over the
// 32-bit wrap, alternating range and kNN queries, once with a range
// crawl and once with a kNN crawl running the first pass after the wrap.
// Stale words are all over the visited set, holding vertex bits under the
// epoch just before the wrap and the one just after it; a wrap that does
// not hard-clear them (or that lands on epoch 0, the value of a
// never-visited word) makes the next crawl see blocks or vertices as
// already visited and drop them.
func TestMarkEpochWrap(t *testing.T) {
	m := buildBox(t, 8)
	o := New(m)
	cur := o.NewCursor().(*Cursor)
	boxes := randomBoxes(m, 17, 6, 0.1, 0.4)
	for _, q := range boxes { // warm: the set holds many passes' words
		cur.Query(q, nil)
		cur.KNN(q.Center(), 50, nil)
	}
	for _, knnFirst := range []bool{false, true} {
		for i := range cur.seen {
			if i%3 == 0 { // visited by the pass just before the wrap
				cur.seen[i] = math.MaxUint32<<32 | 0x5555_5555
			} else if i%3 == 1 { // what the first pass after the wrap stamps
				cur.seen[i] = 1<<32 | 0xaaaa_aaaa
			}
		}
		cur.stamp = math.MaxUint32 << 32 // the next pass wraps
		for i, q := range boxes[:4] {
			if knnFirst {
				checkKNN(t, "kNN around the wrap", cur, m.Positions(), q.Center(), 50)
			}
			if d := query.Diff(cur.Query(q, nil), query.BruteForce(m, q)); d != "" {
				t.Fatalf("crawl %d around the wrap (epoch %d, kNN first %v): %s", i, cur.stamp>>32, knnFirst, d)
			}
			if !knnFirst {
				checkKNN(t, "kNN around the wrap", cur, m.Positions(), q.Center(), 50)
			}
			if cur.stamp>>32 == 0 {
				t.Fatal("epoch 0 is the never-visited value; a crawl must not run at it")
			}
		}
		if cur.stamp>>32 > 8 {
			t.Fatalf("epoch %d: the wrap was never crossed", cur.stamp>>32)
		}
	}
}

// TestMarksGrowWithMesh restructures the mesh under a warmed cursor:
// SplitCell adds vertices whose ids lie past the visited set the cursor
// allocated, and past the mesh's block graph, and the next crawl must
// re-size them — and reach the new vertices — instead of indexing out of
// range. Range and kNN crawls share one visited word per crawl block.
func TestMarksGrowWithMesh(t *testing.T) {
	m := buildBox(t, 6)
	o := New(m)
	cur := o.NewCursor().(*Cursor)
	all := geom.BoxAround(m.Bounds().Center(), m.Bounds().Size().Len())
	sized := func(label string) {
		t.Helper()
		if len(cur.seen) != mesh.NumCrawlBlocks(m.NumVertices()) {
			t.Fatalf("%s: %d visited words for %d vertices", label, len(cur.seen), m.NumVertices())
		}
	}
	cur.Query(all, nil)
	cur.KNN(m.Bounds().Center(), 10, nil)
	sized("before growth")
	before := m.NumVertices()
	for ci := 0; ci < 40; ci++ {
		if _, _, err := m.SplitCell(ci); err != nil {
			t.Fatal(err)
		}
	}
	if m.NumVertices() != before+40 {
		t.Fatalf("%d vertices after 40 splits of %d", m.NumVertices(), before)
	}
	if mesh.NumCrawlBlocks(m.NumVertices()) == mesh.NumCrawlBlocks(before) {
		t.Fatalf("40 splits of %d vertices added no crawl block", before)
	}
	if d := query.Diff(cur.Query(all, nil), query.BruteForce(m, all)); d != "" {
		t.Fatalf("range after growth: %s", d)
	}
	for i, q := range randomBoxes(m, 18, 10, 0.05, 0.4) {
		if d := query.Diff(cur.Query(q, nil), query.BruteForce(m, q)); d != "" {
			t.Fatalf("q#%d after growth: %s", i, d)
		}
		checkKNN(t, "kNN after growth", cur, m.Positions(), q.Center(), m.NumVertices()) // k = V: every new vertex is in the answer
	}
	sized("after growth")
}

// BenchmarkCrawl times the crawl phase where the benchmark runs it. On
// neuro-l5 (sim-step's mesh) and on one K = 4 neuro-l3 sub-mesh
// (live-inproc's), range boxes at each selectivity from 1e-5 to 1e-2 —
// where the small-query floor of moving in blocks shows; on neuro-l5 also
// sim-step's mix (1e-4, 1e-3, 1e-2 in rotation), 20 % boxes, and kNN at
// k = 16 and k = 256. crawl-ns/visited is Stats.Crawl over
// Stats.CrawlVisited — the row ROADMAP's crawl item is judged on;
// positions-tested/op counts the positions the range crawl's block visits
// test; the kNN rows report cursor-bytes, the cursor's footprint
// (Cursor.MemoryBytes) after the warm pass. A warmed cursor must not
// allocate.
func BenchmarkCrawl(b *testing.B) {
	l5 := dataset(b, meshgen.NeuroL5)
	l3 := dataset(b, meshgen.NeuroL3)
	part, err := shard.NewPartition(l3, 4)
	if err != nil {
		b.Fatal(err)
	}
	type bench struct {
		name string
		n    int
		run  func(i int)
	}
	for _, mc := range []struct {
		name string
		m    *mesh.Mesh
	}{{"neuro-l5", l5}, {"neuro-l3-shard-0", part.Parts[0].Mesh}} {
		m := mc.m
		cur := New(m).NewCursor().(*Cursor)
		g := workload.NewGenerator(m, 4096, 1)
		out := make([]int32, 0, m.NumVertices())
		ranges := func(qs []geom.AABB) func(int) {
			return func(i int) { out = cur.Query(qs[i%len(qs)], out[:0]) }
		}
		var cases []bench
		for _, sel := range []float64{1e-5, 1e-4, 1e-3, 1e-2} {
			var qs []geom.AABB
			for range 96 {
				qs = append(qs, g.QueryWithSelectivity(sel))
			}
			cases = append(cases, bench{fmt.Sprintf("range/sel=%g", sel), len(qs), ranges(qs)})
		}
		if m == l5 {
			var mix []geom.AABB
			for i := 0; i < 96; i++ {
				mix = append(mix, g.QueryWithSelectivity([]float64{0.0001, 0.001, 0.01}[i%3]))
			}
			big := g.UniformQueries(8, 0.2)
			k16, k256 := g.KNNQueries(96, 16, 16, 0), g.KNNQueries(96, 256, 256, 0)
			cases = append(cases,
				bench{"range/sim-step", len(mix), ranges(mix)},
				bench{"range/20pct", len(big), ranges(big)},
				bench{"knn/k=16", len(k16), func(i int) { out = cur.KNN(k16[i%len(k16)].P, 16, out[:0]) }},
				bench{"knn/k=256", len(k256), func(i int) { out = cur.KNN(k256[i%len(k256)].P, 256, out[:0]) }},
			)
		}
		for _, c := range cases {
			b.Run(mc.name+"/"+c.name, func(b *testing.B) {
				for i := 0; i < c.n; i++ { // warm every buffer on every query of the stream
					c.run(i)
				}
				warm := cur.MemoryBytes()
				i := 0
				if allocs := testing.AllocsPerRun(c.n, func() { c.run(i); i++ }); allocs != 0 {
					b.Fatalf("%.2f allocs per query on a warmed cursor, want 0", allocs)
				}
				before, tested := cur.Stats(), cur.crawlTested
				b.ResetTimer()
				for it := 0; it < b.N; it++ {
					c.run(it)
				}
				st := cur.Stats()
				visited := float64(st.CrawlVisited - before.CrawlVisited)
				b.ReportMetric(float64(st.Crawl-before.Crawl)/visited, "crawl-ns/visited")
				b.ReportMetric(visited/float64(b.N), "visited/op")
				b.ReportMetric(float64(cur.crawlTested-tested)/float64(b.N), "positions-tested/op")
				if strings.HasPrefix(c.name, "knn/") {
					b.ReportMetric(float64(warm), "cursor-bytes")
				}
			})
		}
	}
}
