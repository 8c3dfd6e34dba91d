package bench

import (
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

	layouts := []struct {
		name string
		m    *mesh.Mesh
	}{
		{"random", random},
		{"native (seed order)", raw},
		{"bfs", bfs},
		{"hilbert", hilbert},
		{"surface-first", surfaceFirst},
		{"surface-first+hilbert", surfHilbert},
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
		o.SetCrawlWorkers(1)
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
	return []*Table{t}, nil
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
