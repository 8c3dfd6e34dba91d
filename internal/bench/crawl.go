package bench

import (
	"time"

	"octopus/internal/core"
	"octopus/internal/geom"
	"octopus/internal/mesh"
	"octopus/internal/meshgen"
	"octopus/internal/query"
	"octopus/internal/workload"
)

// Crawl measures the crawl phase and the budgeted approximate mode
// (DESIGN.md §12) on the large convex dataset, where big-box range queries
// spend nearly all their time in the crawl phase.
//
// Three tables:
//
//   - crawl-cost: what the crawl costs on large boxes — mean crawl time
//     per query, nanoseconds per visited vertex and the (deterministic)
//     visited count.
//   - crawl-budget: the latency/recall dial of the approximate mode — a
//     MaxVisited sweep against exact results on the same queries.
//   - knn-budget: the same dial for kNN, with the reported bound gap.
func Crawl(cfg Config) ([]*Table, error) {
	m, err := meshgen.BuildCached(meshgen.EqSF1, cfg.Scale)
	if err != nil {
		return nil, err
	}
	gen := workload.NewGenerator(m, 4096, cfg.Seed)
	n := cfg.QueriesPerStep * 2
	if n < 16 {
		n = 16
	}
	// Large boxes (20% selectivity): the crawl dominates and the visited-set
	// mechanism — not the probe — is what the row times.
	cost := crawlCostTable(m, gen.UniformQueries(n, 0.2))
	budget := crawlBudgetTable(m, gen.UniformQueries(n, 0.02))
	knnBudget := knnBudgetTable(m, gen, cfg)
	return []*Table{cost, budget, knnBudget}, nil
}

// crawlReps repeats each timed query stream so single runs are stable
// enough for the CI trend gate.
const crawlReps = 3

func crawlCostTable(m *mesh.Mesh, queries []geom.AABB) *Table {
	t := &Table{
		ID:      "crawl-cost",
		Title:   "Crawl cost: mean crawl time per query, large boxes (EqSF1)",
		Columns: []string{"boxes", "crawl[us/query]", "ns/visited", "visited/query"},
	}
	o := core.New(m)
	// Warm the scratch (mark array) outside the timed region, as in a
	// long-running simulation.
	var out []int32
	out = o.Query(queries[0], out[:0])
	before := o.Stats()
	for r := 0; r < crawlReps; r++ {
		for _, q := range queries {
			out = o.Query(q, out[:0])
		}
	}
	nq := float64(crawlReps * len(queries))
	d := o.Stats()
	crawl := (d.Crawl - before.Crawl).Seconds() * 1e6 / nq
	visited := float64(d.CrawlVisited-before.CrawlVisited) / nq
	t.AddRow("20%", crawl, 1e3*crawl/visited, visited)
	t.Notes = append(t.Notes,
		"visited/query is a pure function of the seeded boxes; the time columns are this machine's")
	return t
}

// crawlBudgetTable sweeps MaxVisited on range queries: recall against the
// exact result, the coverage the engine itself reports, and the crawl
// time bought.
func crawlBudgetTable(m *mesh.Mesh, queries []geom.AABB) *Table {
	t := &Table{
		ID:    "crawl-budget",
		Title: "Budgeted range crawl: recall vs visited budget (EqSF1)",
		Columns: []string{"budget[frac of exact]", "recall[%]", "reported visited-frac[%]",
			"crawl[us/query]"},
	}
	o := core.New(m)
	cur := o.NewCursor().(*core.Cursor)

	exact := make([]map[int32]bool, len(queries))
	var meanVisited float64
	{
		before := o.Stats()
		var out []int32
		for i, q := range queries {
			out = cur.Query(q, out[:0])
			set := make(map[int32]bool, len(out))
			for _, v := range out {
				set[v] = true
			}
			exact[i] = set
		}
		cur.Close()
		d := o.Stats()
		meanVisited = float64(d.CrawlVisited-before.CrawlVisited) / float64(len(queries))
	}

	for _, frac := range []float64{1, 0.5, 0.25, 0.1} {
		cur.SetBudget(fracBudget(frac, meanVisited))
		var out []int32
		var recall, visFrac float64
		before := o.Stats()
		for i, q := range queries {
			out = cur.Query(q, out[:0])
			hits := 0
			for _, v := range out {
				if exact[i][v] {
					hits++
				}
			}
			if len(exact[i]) > 0 {
				recall += float64(hits) / float64(len(exact[i]))
			} else {
				recall++
			}
			visFrac += cur.LastCoverage().VisitedFrac()
		}
		cur.Close()
		d := o.Stats()
		nq := float64(len(queries))
		crawl := (d.Crawl - before.Crawl).Seconds() * 1e6 / nq
		t.AddRow(frac, 100*recall/nq, 100*visFrac/nq, crawl)
	}
	t.Notes = append(t.Notes,
		"budget is MaxVisited as a fraction of the exact crawl's mean visited count",
		"truncated results are always a subset of the exact result")
	return t
}

// fracBudget is the sweep's budget at frac of the exact crawl's mean
// visited count; frac >= 1 is exact.
func fracBudget(frac, meanVisited float64) query.CrawlBudget {
	if frac >= 1 {
		return query.CrawlBudget{}
	}
	return query.CrawlBudget{MaxVisited: int64(frac * meanVisited)}
}

// knnBudgetTable sweeps MaxVisited on large-k kNN probes: recall@k, the
// engine's reported bound gap, and the query time bought.
func knnBudgetTable(m *mesh.Mesh, gen *workload.Generator, cfg Config) *Table {
	t := &Table{
		ID:    "knn-budget",
		Title: "Budgeted kNN crawl: recall@k and bound gap vs visited budget (EqSF1)",
		Columns: []string{"budget[frac of exact]", "recall@k[%]", "bound-gap",
			"knn[us/query]"},
	}
	k := 256
	probes := gen.KNNQueries(cfg.QueriesPerStep*2, k, k, 0.02)
	o := core.New(m)
	cur := o.NewCursor().(*core.Cursor)

	truth := make([][]int32, len(probes))
	for i, pr := range probes {
		truth[i] = cur.KNN(pr.P, pr.K, nil)
	}
	cur.Close()
	var meanVisited float64
	{
		s := o.Stats()
		meanVisited = float64(s.CrawlVisited) / float64(s.Queries)
	}

	for _, frac := range []float64{1, 0.5, 0.25, 0.1} {
		cur.SetBudget(fracBudget(frac, meanVisited))
		var out []int32
		var recall, gap float64
		start := time.Now()
		for i, pr := range probes {
			out = cur.KNN(pr.P, pr.K, out[:0])
			inTruth := make(map[int32]bool, len(truth[i]))
			for _, v := range truth[i] {
				inTruth[v] = true
			}
			hits := 0
			for _, v := range out {
				if inTruth[v] {
					hits++
				}
			}
			recall += float64(hits) / float64(len(truth[i]))
			gap += cur.LastCoverage().BoundGap
		}
		perQuery := time.Since(start).Seconds() * 1e6 / float64(len(probes))
		cur.Close()
		np := float64(len(probes))
		t.AddRow(frac, 100*recall/np, gap/np, perQuery)
	}
	t.Notes = append(t.Notes,
		"bound-gap 0 means the k-th-best radius was fully proven; 1 means the crawl stopped before any bound formed",
		"recall counts matches against the exact (dist,id)-ordered result")
	return t
}
