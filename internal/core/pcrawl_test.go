package core

import (
	"fmt"
	"math/rand"
	"runtime"
	"sort"
	"testing"
	"time"

	"octopus/internal/geom"
	"octopus/internal/meshgen"
	"octopus/internal/query"
	"octopus/internal/sim"
)

// forceCrawlTiers lowers the crawl-tier thresholds so small test meshes
// exercise the dense escalation and the parallel pool on every
// non-trivial query.
func forceCrawlTiers(o *Octopus) {
	o.crawlEscalate = 8
	o.crawlParSeeds = 4
	o.crawlParK = 4
}

func forceConCrawlTiers(c *Con) {
	c.crawlEscalate = 8
	c.crawlParSeeds = 4
	c.crawlParK = 4
}

// TestParallelCrawlRangeMatchesSerial checks the tentpole contract for
// range queries: at every worker count the parallel crawl returns exactly
// the serial crawl's result set (order is unspecified) on every crawl
// engine, across query sizes that hit the seed-split path, the escalation
// path and the small-query serial path.
func TestParallelCrawlRangeMatchesSerial(t *testing.T) {
	m := buildBox(t, 12)
	diag := m.Bounds().Size().Len()
	r := rand.New(rand.NewSource(11))
	queries := make([]geom.AABB, 0, 40)
	for i := 0; i < 40; i++ {
		radius := diag * (0.02 + 0.5*r.Float64())
		queries = append(queries, geom.BoxAround(m.Position(int32(r.Intn(m.NumVertices()))), radius))
	}

	type tunable interface {
		query.CrawlTuner
		Query(geom.AABB, []int32) []int32
		Name() string
	}
	o := New(m)
	forceCrawlTiers(o)
	c := NewCon(m, 0)
	forceConCrawlTiers(c)
	h := NewHybrid(m, 0, Constants{CS: 1, CR: 1e-9})
	forceCrawlTiers(h.oct)
	for _, eng := range []tunable{o, c, h} {
		for _, workers := range []int{2, 4} {
			for qi, q := range queries {
				eng.SetCrawlWorkers(1)
				serial := eng.Query(q, nil)
				eng.SetCrawlWorkers(workers)
				par := eng.Query(q, nil)
				if d := query.Diff(par, serial); d != "" {
					t.Fatalf("%s w=%d q#%d: parallel vs serial: %s", eng.Name(), workers, qi, d)
				}
				if d := query.Diff(append([]int32(nil), serial...), query.BruteForce(m, q)); d != "" {
					t.Fatalf("%s q#%d: serial vs brute force: %s", eng.Name(), qi, d)
				}
			}
		}
	}
}

// TestParallelCrawlKNNBitEqual checks the stronger kNN contract: the
// (dist,id)-ordered result is bit-identical between serial and parallel
// execution — not just the same set, the same slice.
func TestParallelCrawlKNNBitEqual(t *testing.T) {
	m := buildBox(t, 10)
	o := New(m)
	forceCrawlTiers(o)
	c := NewCon(m, 0)
	forceConCrawlTiers(c)
	r := rand.New(rand.NewSource(12))
	lo, hi := m.Bounds().Min, m.Bounds().Max
	randPoint := func() geom.Vec3 {
		return geom.V(
			lo.X+r.Float64()*(hi.X-lo.X),
			lo.Y+r.Float64()*(hi.Y-lo.Y),
			lo.Z+r.Float64()*(hi.Z-lo.Z))
	}
	type knnTunable interface {
		query.CrawlTuner
		KNN(geom.Vec3, int, []int32) []int32
		Name() string
	}
	for _, eng := range []knnTunable{o, c} {
		for _, k := range []int{1, 5, 16, 100, 600} {
			for i := 0; i < 15; i++ {
				p := randPoint()
				eng.SetCrawlWorkers(1)
				serial := eng.KNN(p, k, nil)
				eng.SetCrawlWorkers(4)
				par := eng.KNN(p, k, nil)
				if len(serial) != len(par) {
					t.Fatalf("%s k=%d: len serial %d, parallel %d", eng.Name(), k, len(serial), len(par))
				}
				for j := range serial {
					if serial[j] != par[j] {
						t.Fatalf("%s k=%d probe#%d: slot %d: serial %d, parallel %d",
							eng.Name(), k, i, j, serial[j], par[j])
					}
				}
				want := query.BruteForceKNN(m, p, k)
				for j := range want {
					if serial[j] != want[j] {
						t.Fatalf("%s k=%d: slot %d: got %d, brute force %d", eng.Name(), k, j, serial[j], want[j])
					}
				}
			}
		}
	}
}

// TestParallelCrawlDeforming runs the serial-vs-parallel comparison while
// the mesh deforms between batches — the crawl tiers must agree on every
// intermediate geometry, not just the pristine build.
func TestParallelCrawlDeforming(t *testing.T) {
	m := buildBox(t, 8)
	o := New(m)
	forceCrawlTiers(o)
	s := sim.New(m, &sim.NoiseDeformer{Amplitude: 0.03, Frequency: 2, Seed: 7})
	r := rand.New(rand.NewSource(13))
	diag := m.Bounds().Size().Len()
	for step := 0; step < 6; step++ {
		s.Step()
		o.Step()
		for i := 0; i < 8; i++ {
			q := geom.BoxAround(m.Position(int32(r.Intn(m.NumVertices()))), diag*(0.05+0.4*r.Float64()))
			o.SetCrawlWorkers(1)
			serial := o.Query(q, nil)
			o.SetCrawlWorkers(4)
			par := o.Query(q, nil)
			if d := query.Diff(par, serial); d != "" {
				t.Fatalf("step %d q#%d: %s", step, i, d)
			}
			p := m.Position(int32(r.Intn(m.NumVertices())))
			o.SetCrawlWorkers(1)
			sk := o.KNN(p, 64, nil)
			o.SetCrawlWorkers(4)
			pk := o.KNN(p, 64, nil)
			for j := range sk {
				if sk[j] != pk[j] {
					t.Fatalf("step %d kNN slot %d: serial %d, parallel %d", step, j, sk[j], pk[j])
				}
			}
		}
	}
}

// TestParallelCrawlDenseOrderMatchesHash checks that the serial dense
// escalation preserves the legacy hash crawl's exact output order — the
// BFS discovery order — so single-worker configurations stay
// order-identical to the pre-tier code, not just set-identical.
func TestParallelCrawlDenseOrderMatchesHash(t *testing.T) {
	m := buildBox(t, 10)
	o := New(m)
	o.crawlEscalate = 8
	o.SetCrawlWorkers(1)
	r := rand.New(rand.NewSource(14))
	diag := m.Bounds().Size().Len()
	for i := 0; i < 25; i++ {
		q := geom.BoxAround(m.Position(int32(r.Intn(m.NumVertices()))), diag*(0.05+0.4*r.Float64()))
		o.SetDenseCrawl(true)
		dense := o.Query(q, nil)
		o.SetDenseCrawl(false)
		hash := o.Query(q, nil)
		if len(dense) != len(hash) {
			t.Fatalf("q#%d: len dense %d, hash %d", i, len(dense), len(hash))
		}
		for j := range dense {
			if dense[j] != hash[j] {
				t.Fatalf("q#%d slot %d: dense %d, hash %d (order must match)", i, j, dense[j], hash[j])
			}
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
	o.SetCrawlWorkers(1)
	q := geom.BoxAround(m.Bounds().Center(), m.Bounds().Size().Len()*0.3)
	exact := o.Query(q, nil)
	cov := o.resident.LastCoverage()
	if cov.Truncated || cov.Frontier != 0 || cov.BoundGap != 0 {
		t.Fatalf("exact query reported coverage %+v", cov)
	}
	if cov.VisitedFrac() != 1 {
		t.Fatalf("exact VisitedFrac = %v, want 1", cov.VisitedFrac())
	}

	o.SetCrawlBudget(query.CrawlBudget{MaxVisited: int64(len(exact)) / 4})
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
	// Determinism of the ops budget on the serial crawl.
	again := o.Query(q, nil)
	if len(again) != len(trunc) {
		t.Fatalf("ops budget nondeterministic: %d vs %d results", len(again), len(trunc))
	}
	for i := range again {
		if again[i] != trunc[i] {
			t.Fatalf("ops budget nondeterministic at slot %d", i)
		}
	}

	o.SetCrawlBudget(query.CrawlBudget{})
	back := o.Query(q, nil)
	if d := query.Diff(back, append([]int32(nil), exact...)); d != "" {
		t.Fatalf("zero budget not exact: %s", d)
	}

	// A parallel truncated crawl also stays a subset of exact and reports
	// coverage (the cut point itself is scheduling-dependent).
	forceCrawlTiers(o)
	o.SetCrawlWorkers(4)
	o.SetCrawlBudget(query.CrawlBudget{MaxVisited: int64(len(exact)) / 4})
	ptrunc := o.Query(q, nil)
	pcov := o.resident.LastCoverage()
	if !pcov.Truncated || pcov.Visited <= 0 {
		t.Fatalf("parallel budgeted coverage %+v", pcov)
	}
	if len(ptrunc) == 0 || len(ptrunc) >= len(exact) {
		t.Fatalf("parallel truncated size %d, exact %d", len(ptrunc), len(exact))
	}
	for _, v := range ptrunc {
		if !inExact[v] {
			t.Fatalf("parallel truncated result %d not in exact result", v)
		}
	}
}

// TestParallelCrawlBudgetKNN checks the kNN coverage report: a truncated
// crawl reports a bound gap in [0,1] and keeps the best candidates found,
// and a wall budget truncates too.
func TestParallelCrawlBudgetKNN(t *testing.T) {
	m := buildBox(t, 10)
	o := New(m)
	o.SetCrawlWorkers(1)
	p := m.Bounds().Center()
	k := 400
	exact := o.KNN(p, k, nil)
	o.SetCrawlBudget(query.CrawlBudget{MaxVisited: 40})
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
	// prefix of the serial crawl, so recall against exact must be partial
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

	o.SetCrawlBudget(query.CrawlBudget{Wall: time.Nanosecond})
	o.KNN(p, k, nil)
	if !o.resident.LastCoverage().Truncated {
		t.Fatal("1ns wall budget did not truncate")
	}
	o.SetCrawlBudget(query.CrawlBudget{})
	back := o.KNN(p, k, nil)
	for i := range exact {
		if back[i] != exact[i] {
			t.Fatalf("zero budget not exact at slot %d", i)
		}
	}
}

// TestParallelCrawlMemoryBytes checks the satellite accounting fix: the
// cursor's exported footprint includes the kNN heap, the dense mark array
// and the parallel pool's per-worker scratch once they exist.
func TestParallelCrawlMemoryBytes(t *testing.T) {
	m := buildBox(t, 8)
	o := New(m)
	forceCrawlTiers(o)
	o.SetCrawlWorkers(4)
	base := o.resident.MemoryBytes()
	q := geom.BoxAround(m.Bounds().Center(), m.Bounds().Size().Len()*0.4)
	o.Query(q, nil)
	o.KNN(m.Bounds().Center(), 200, nil)
	grown := o.resident.MemoryBytes()
	if grown <= base {
		t.Fatalf("MemoryBytes did not grow: %d -> %d", base, grown)
	}
	cr := &o.resident.crawler
	if cr.par == nil || cr.par.memoryBytes() <= 0 {
		t.Fatal("parallel pool scratch not accounted")
	}
	want := cr.memoryBytes() + int64(cap(o.resident.seeds))*4 + o.resident.kbest.MemoryBytes()
	if grown != want {
		t.Fatalf("MemoryBytes = %d, want %d (sum of parts)", grown, want)
	}
	if int64(cap(cr.marks))*4 > grown {
		t.Fatal("mark array larger than total footprint")
	}
	if grown < int64(cap(cr.marks))*4+o.resident.kbest.MemoryBytes() {
		t.Fatal("footprint misses marks or kbest")
	}
}

// TestParallelCrawlWorkerDefaults checks the crawl worker default: crawl
// workers default to GOMAXPROCS, n <= 0 restores the default, and n == 1
// forces the serial paths.
func TestParallelCrawlWorkerDefaults(t *testing.T) {
	m := buildBox(t, 4)
	o := New(m)
	procs := runtime.GOMAXPROCS(0)
	if o.crawlWorkers != procs {
		t.Fatalf("crawlWorkers default = %d, want GOMAXPROCS %d", o.crawlWorkers, procs)
	}
	o.SetCrawlWorkers(1)
	if o.crawlWorkers != 1 {
		t.Fatal("n=1 did not force serial")
	}
	o.SetCrawlWorkers(-3)
	if o.crawlWorkers != procs {
		t.Fatalf("n<=0 did not restore the default: crawl %d", o.crawlWorkers)
	}
	c := NewCon(m, 0)
	if c.crawlWorkers != procs {
		t.Fatalf("Con crawlWorkers default = %d, want %d", c.crawlWorkers, procs)
	}
}

// TestParallelCrawlConcurrentCursors drives parallel-crawl queries from
// several cursors at once (each cursor owns a private worker pool), the
// configuration the race detector must bless.
func TestParallelCrawlConcurrentCursors(t *testing.T) {
	m := buildBox(t, 10)
	o := New(m)
	forceCrawlTiers(o)
	o.SetCrawlWorkers(2)
	r := rand.New(rand.NewSource(15))
	diag := m.Bounds().Size().Len()
	queries := make([]geom.AABB, 24)
	for i := range queries {
		queries[i] = geom.BoxAround(m.Position(int32(r.Intn(m.NumVertices()))), diag*(0.1+0.3*r.Float64()))
	}
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

// TestParallelCrawlTwoComponents checks seed partitioning across
// connected components: a query spanning both neuron cells must return
// both sub-results at every worker count.
func TestParallelCrawlTwoComponents(t *testing.T) {
	m, err := meshgen.BuildNeuron(1, 1)
	if err != nil {
		t.Fatal(err)
	}
	o := New(m)
	forceCrawlTiers(o)
	diag := m.Bounds().Size().Len()
	r := rand.New(rand.NewSource(16))
	for i := 0; i < 20; i++ {
		q := geom.BoxAround(m.Position(int32(r.Intn(m.NumVertices()))), diag*(0.1+0.4*r.Float64()))
		o.SetCrawlWorkers(1)
		serial := o.Query(q, nil)
		o.SetCrawlWorkers(4)
		par := o.Query(q, nil)
		if d := query.Diff(par, serial); d != "" {
			t.Fatalf("q#%d: %s", i, d)
		}
		if d := query.Diff(append([]int32(nil), serial...), query.BruteForce(m, q)); d != "" {
			t.Fatalf("q#%d vs brute force: %s", i, d)
		}
	}
}

// TestParallelCrawlHybridCoverageReset checks that a scan-routed hybrid
// query clears the previous crawl's coverage — the stale-truncation trap
// the hybrid's scan route must not fall into.
func TestParallelCrawlHybridCoverageReset(t *testing.T) {
	m := buildBox(t, 8)
	h := NewHybrid(m, 0, Constants{CS: 1, CR: 4})
	h.SetCrawlWorkers(1)
	h.SetCrawlBudget(query.CrawlBudget{MaxVisited: 1})
	cur, ok := h.NewCursor().(*hybridCursor)
	if !ok {
		t.Fatal("hybrid cursor type")
	}
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
	if !h.oct.resident.LastCoverage().Truncated {
		t.Fatal("resident budgeted crawl did not truncate")
	}
	h.breakEven = 0
	h.Query(q, nil)
	if cov := h.oct.resident.LastCoverage(); cov.Truncated || cov.Frontier != 0 {
		t.Fatalf("resident scan-routed query reports stale coverage %+v", cov)
	}
}

func BenchmarkParallelCrawlRange(b *testing.B) {
	m := buildBox(b, 24)
	q := geom.BoxAround(m.Bounds().Center(), m.Bounds().Size().Len()*0.3)
	for _, workers := range []int{1, 2, 4} {
		o := New(m)
		o.SetCrawlWorkers(workers)
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			var out []int32
			for i := 0; i < b.N; i++ {
				out = o.Query(q, out[:0])
			}
		})
	}
}
