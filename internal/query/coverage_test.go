package query_test

import (
	"testing"

	"octopus/internal/core"
	"octopus/internal/geom"
	"octopus/internal/query"
)

// budgetedOctopus is OCTOPUS whose every new cursor runs under a fixed
// crawl budget: a pipeline over it budgets all its workers' queries.
type budgetedOctopus struct {
	*core.Octopus
	b query.CrawlBudget
}

func (e budgetedOctopus) NewCursor() query.Cursor {
	cur := e.Octopus.NewCursor()
	cur.(query.BudgetedCursor).SetBudget(e.b)
	return cur
}

// TestPipelineCoverageTraces checks the approximate mode's reporting
// path end to end: a CrawlBudget on the workers' cursors truncates big
// crawls inside the live pipeline, and each query's QueryTrace carries
// the crawl coverage — Truncated with a visited count under budget,
// zero coverage over the unbudgeted engine.
func TestPipelineCoverageTraces(t *testing.T) {
	m := buildBox(t, 8)
	eng := core.New(m)
	queries := make([]geom.AABB, 12)
	for i := range queries {
		queries[i] = geom.BoxAround(m.Bounds().Center(), m.Bounds().Size().Len()*0.3)
	}
	_, probes := testWorkload(m, 0, 8, 3)
	for i := range probes {
		probes[i].K = 200
	}

	pl := &query.Pipeline{
		Engine:   budgetedOctopus{eng, query.CrawlBudget{MaxVisited: 25}},
		Mesh:     m,
		Deform:   newAllDeformers(0.002).Step,
		Workers:  2,
		MinSteps: 2,
	}
	report := pl.Run(queries, probes)

	truncated := 0
	for i, tr := range report.RangeTraces {
		cov := tr.Coverage
		if cov.Truncated {
			truncated++
			if cov.Visited <= 0 || cov.Visited > 25+64 { // budget + one stride of slack
				t.Fatalf("range trace %d: visited %d under budget 25", i, cov.Visited)
			}
			if f := cov.VisitedFrac(); f <= 0 || f >= 1 {
				t.Fatalf("range trace %d: VisitedFrac %v", i, f)
			}
		}
	}
	if truncated == 0 {
		t.Fatal("no range trace reports truncation under a 25-expansion budget")
	}
	ktrunc := 0
	for i, tr := range report.KNNTraces {
		cov := tr.Coverage
		if cov.Truncated {
			ktrunc++
			if cov.BoundGap < 0 || cov.BoundGap > 1 {
				t.Fatalf("kNN trace %d: BoundGap %v", i, cov.BoundGap)
			}
		}
	}
	if ktrunc == 0 {
		t.Fatal("no kNN trace reports truncation for k=200 under a 25-expansion budget")
	}

	pl.Engine = eng
	report = pl.Run(queries, probes)
	for i, tr := range report.Traces() {
		if tr.Coverage.Truncated || tr.Coverage.Frontier != 0 {
			t.Fatalf("exact trace %d carries coverage %+v", i, tr.Coverage)
		}
	}
}
