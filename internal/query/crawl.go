package query

// CrawlBudget is the approximate mode of the crawl engines (DESIGN.md
// §12), held per cursor (BudgetedCursor). A budgeted crawl stops once it
// has expanded MaxVisited vertices, keeps everything it has already
// discovered (a subset of the exact result for range queries; the best
// candidates found so far for kNN), and reports how far it got through
// CrawlCoverage. The zero value is exact. The budget is deterministic —
// the same query on the same state always truncates at the same vertex.
type CrawlBudget struct {
	// MaxVisited bounds the number of vertices the crawl may expand per
	// query (summed over components); 0 means unlimited. The crawl checks
	// the bound before every expansion, so there is no overshoot.
	MaxVisited int64
	// SurfaceFrac is the fraction of the surface the OCTOPUS probe
	// samples, with a stride of about 1/SurfaceFrac rotating per query;
	// 0 (or any value outside (0, 1)) probes the full surface.
	SurfaceFrac float64
}

// CrawlCoverage reports how much of a query's crawl ran before a
// CrawlBudget cut it off — the recall dial's readout, carried per query in
// QueryTrace.Coverage. The zero value means "no crawl truncation" (exact
// engines, scan-routed queries, or an unlimited budget).
//
// When one query's coverage is assembled from several sub-crawls (the
// crawl engines merge per component, the sharded router per shard), each
// field aggregates by its own rule — Add is the single implementation of
// this contract:
//
//   - Truncated is the OR: the query is approximate if any sub-crawl was
//     cut off.
//   - Visited and Frontier sum: they count work and abandoned discoveries
//     across disjoint vertex sets.
//   - BoundGap takes the max: each sub-crawl's gap already bounds how far
//     that crawl's region was from convergence, and the query as a whole
//     is only as converged as its worst part. Summing would double-count
//     (k shards each at gap 1 do not make the query "k× unconverged")
//     and could exceed the field's [0, 1] range.
type CrawlCoverage struct {
	// Truncated reports whether any crawl of the query hit the budget.
	Truncated bool
	// Visited is the number of vertices the crawl expanded.
	Visited int64
	// Frontier is the number of discovered-but-unexpanded vertices
	// abandoned at the cutoff (0 when the crawl ran to completion).
	Frontier int64
	// BoundGap is the kNN convergence gap of the returned answer:
	// 1 − d_f/d_k, where d_f is the distance of the closest abandoned
	// frontier vertex and d_k the k-th-best distance of the answer. 0
	// means converged (the frontier could not have improved the result);
	// 1 means the answer holds fewer than k. Always 0 for range queries.
	BoundGap float64
}

// VisitedFrac returns the fraction of the reached crawl region that was
// actually expanded: Visited / (Visited + Frontier), or 1 when nothing was
// left behind. It is a lower bound on recall for range crawls (abandoned
// frontier vertices were results too, and might have led to more).
func (c CrawlCoverage) VisitedFrac() float64 {
	total := c.Visited + c.Frontier
	if total <= 0 {
		return 1
	}
	return float64(c.Visited) / float64(total)
}

// Add accumulates o into c — the merge applied per shard by the sharded
// router's cursor, and per component inside the crawl engines — under the
// per-field aggregation contract documented on CrawlCoverage: Truncated
// ORs, Visited and Frontier sum, BoundGap takes the max.
func (c *CrawlCoverage) Add(o CrawlCoverage) {
	c.Truncated = c.Truncated || o.Truncated
	c.Visited += o.Visited
	c.Frontier += o.Frontier
	if o.BoundGap > c.BoundGap {
		c.BoundGap = o.BoundGap
	}
}

// CoverageReporter is implemented by cursors that can report the crawl
// coverage of their most recent query — the OCTOPUS-family cursors and the
// sharded router's (which sums its shards). The pipeline uses it to fill
// QueryTrace.Coverage.
type CoverageReporter interface {
	// LastCoverage returns the coverage of the cursor's most recent
	// Query/KNN. It is the zero CrawlCoverage when the query ran exactly.
	LastCoverage() CrawlCoverage
}

// BudgetedCursor is implemented by the OCTOPUS-family cursors and the
// in-process sharded router's, which hands the budget to every shard
// leg. Like a KNNRestrictor's restriction, the budget is cursor state:
// read at the start of each later query until replaced, and needing no
// exclusion beyond the cursor's own one-goroutine rule.
type BudgetedCursor interface {
	SetBudget(b CrawlBudget)
}
