package bench

import (
	"math/rand"
	"time"

	"octopus/internal/core"
	"octopus/internal/linearscan"
	"octopus/internal/mesh"
	"octopus/internal/meshgen"
	"octopus/internal/workload"
)

// Layout ablates vertex orderings against each other on the crawl path:
// the crawl's memory traffic is one adjacency-list gather per expanded
// vertex, so the distance (in vertex ids) between a vertex and its
// neighbors is the cache-behavior lever — the paper's §IV-H1 observation,
// measured here across the full ordering menu rather than only
// Hilbert-vs-native.
//
// For each layout the table reports the crawl time on the same (spatially
// identical) query stream plus two cache-proxy statistics over the CSR
// adjacency: the mean |Δid| per edge and the fraction of edges whose
// endpoints are within 16 ids of each other (≈ one 64-byte position
// cache line apart, 12 bytes per vertex position).
//
// The surface-first row and the total column isolate the layout decision
// of DESIGN.md §7: a contiguous surface prefix keeps the probe
// sequential. The linear scan is layout-insensitive and serves as the
// yardstick.
//
// The same engines then regenerate the paper's Figure 13 (fig13a/fig13b):
// the phase split and the Hilbert layout's crawl-time improvement across
// query selectivities.
func Layout(cfg Config) ([]*Table, error) {
	t := &Table{
		ID:    "layout-crawl",
		Title: "Vertex-ordering ablation: crawl time and locality proxies (neuron)",
		Columns: []string{"layout", "crawl[us/query]", "total[us/query]",
			"speedup-vs-random[x]", "mean|did|/edge", "edges|did|<=16[%]", "scan[us/query]"},
	}

	raw, err := meshgen.BuildNeuron(3, cfg.Scale) // generator's native order
	if err != nil {
		return nil, err
	}
	random, err := shuffleMesh(raw, cfg.Seed)
	if err != nil {
		return nil, err
	}
	bfs, err := raw.Renumber(raw.BFSPerm())
	if err != nil {
		return nil, err
	}
	hilbert, err := raw.Renumber(raw.HilbertPerm(10))
	if err != nil {
		return nil, err
	}
	surfaceFirst, err := raw.Renumber(raw.SurfaceFirstPerm())
	if err != nil {
		return nil, err
	}
	surfHilbert, err := raw.Renumber(raw.SurfaceFirstHilbertPerm(10))
	if err != nil {
		return nil, err
	}

	type ordering struct {
		name  string
		fig13 string // the layout's name in Figure 13, "" when not part of it
		m     *mesh.Mesh
		o     *core.Octopus
	}
	layouts := []*ordering{
		{name: "random", fig13: "shuffled", m: random},
		{name: "native (seed order)", m: raw},
		{name: "bfs", m: bfs},
		{name: "hilbert", m: hilbert},
		{name: "surface-first", fig13: "native", m: surfaceFirst},
		{name: "surface-first+hilbert", fig13: "hilbert", m: surfHilbert},
	}

	n := cfg.QueriesPerStep * 4
	if n < 16 {
		n = 16
	}
	var randomCrawl float64
	for _, layout := range layouts {
		// Same seed on every layout: the generator keys off positions,
		// which renumbering does not change, so the query stream is
		// spatially identical across rows.
		gen := workload.NewGenerator(layout.m, 4096, cfg.Seed)
		queries := gen.UniformQueries(n, 0.01)

		o := core.New(layout.m)
		layout.o = o
		var out []int32
		out = o.Query(queries[0], out[:0]) // warm the scratch
		before := o.Stats()
		start := time.Now()
		for _, q := range queries {
			out = o.Query(q, out[:0])
		}
		total := time.Since(start).Seconds() * 1e6 / float64(n)
		crawl := (o.Stats().Crawl - before.Crawl).Seconds() * 1e6 / float64(n)
		if randomCrawl == 0 {
			randomCrawl = crawl
		}
		scan := linearscan.New(layout.m)
		start = time.Now()
		for _, q := range queries {
			out = scan.Query(q, out[:0])
		}
		scanPer := time.Since(start).Seconds() * 1e6 / float64(n)

		meanDelta, near := edgeLocality(layout.m, 16)
		t.AddRow(layout.name, crawl, total, randomCrawl/crawl, meanDelta, 100*near, scanPer)
	}
	t.Notes = append(t.Notes,
		"query streams are spatially identical across layouts (the generator keys off positions)",
		"locality proxies are layout-deterministic; timing rows are machine-dependent")

	// Figure 13 (§IV-H1). The paper compares its dataset's native layout
	// against the Hilbert-sorted one. Both keep the surface-first
	// partition here — the probe is not what the figure varies — so
	// "native" is the generator's scan order inside each partition and
	// "hilbert" the datasets' default layout; "shuffled" is the
	// locality-free worst case, added because the scan order already has
	// some locality.
	breakdown := &Table{
		ID:      "fig13a",
		Title:   "Phase times with and without Hilbert layout",
		Columns: []string{"selectivity[%]", "layout", "surface probe", "crawling"},
	}
	speedup := &Table{
		ID:      "fig13b",
		Title:   "Crawl-time improvement of the Hilbert layout",
		Columns: []string{"selectivity[%]", "vs shuffled[%]", "vs native[%]"},
	}
	for _, sel := range []float64{0.0001, 0.0005, 0.001, 0.0015, 0.002} {
		crawl := map[string]time.Duration{}
		for _, l := range layouts {
			if l.fig13 == "" {
				continue
			}
			queries := workload.NewGenerator(l.m, 4096, cfg.Seed).UniformQueries(cfg.QueriesPerStep*6, sel)
			before := l.o.Stats()
			var out []int32
			for _, q := range queries {
				out = l.o.Query(q, out[:0])
			}
			s := l.o.Stats()
			crawl[l.fig13] = s.Crawl - before.Crawl
			breakdown.AddRow(sel*100, l.fig13, s.SurfaceProbe-before.SurfaceProbe, crawl[l.fig13])
		}
		improvement := func(over string) float64 {
			return 100 * float64(crawl[over]-crawl["hilbert"]) / float64(crawl[over]+1)
		}
		speedup.AddRow(sel*100, improvement("shuffled"), improvement("native"))
	}
	breakdown.Notes = append(breakdown.Notes,
		"paper: sorting improves crawling only (probe unaffected); impact grows with selectivity")
	speedup.Notes = append(speedup.Notes,
		"paper reports up to ~50% crawl improvement; our native (scan-line) layout is already partially local, so the vs-native margin is smaller than vs-shuffled")
	return []*Table{t, breakdown, speedup}, nil
}

// shuffleMesh renumbers m by a random vertex permutation — the
// locality-free worst-case layout.
func shuffleMesh(m *mesh.Mesh, seed int64) (*mesh.Mesh, error) {
	perm := make([]int32, m.NumVertices()) // perm[old] = new
	for newID, oldID := range rand.New(rand.NewSource(seed)).Perm(len(perm)) {
		perm[oldID] = int32(newID)
	}
	return m.Renumber(perm)
}

// edgeLocality computes the cache-proxy statistics of a vertex ordering:
// the mean |Δid| over all adjacency entries and the fraction of entries
// with |Δid| <= near.
func edgeLocality(m *mesh.Mesh, near int32) (meanDelta float64, nearFrac float64) {
	var sum, count, close float64
	for v := int32(0); v < int32(m.NumVertices()); v++ {
		for _, w := range m.Neighbors(v) {
			d := v - w
			if d < 0 {
				d = -d
			}
			sum += float64(d)
			if d <= near {
				close++
			}
			count++
		}
	}
	if count == 0 {
		return 0, 0
	}
	return sum / count, close / count
}
