package shard

import (
	"math/rand"
	"testing"

	"octopus/internal/geom"
	"octopus/internal/query"
)

// TestShardedParallelCrawlEquivalence checks the routed crawl against
// brute force on a mesh large enough that big boxes make every shard
// engine crawl thousands of vertices and a k=300 probe widens across
// shards: range results equal as sets, kNN slot for slot. (The name is
// kept so the suite's test ids stay stable across PRs.)
func TestShardedParallelCrawlEquivalence(t *testing.T) {
	m := buildBoxTet(t, 20, 1.0/20)
	r := rand.New(rand.NewSource(21))
	diag := m.Bounds().Size().Len()
	for _, k := range []int{2, 4} {
		router := routerOver(t, m, k)
		cur := router.NewCursor()
		for i := 0; i < 12; i++ {
			q := geom.BoxAround(m.Position(int32(r.Intn(m.NumVertices()))), diag*(0.1+0.35*r.Float64()))
			if d := query.Diff(cur.Query(q, nil), query.BruteForce(m, q)); d != "" {
				t.Fatalf("k=%d q#%d: routed vs brute force: %s", k, i, d)
			}
		}
		for i := 0; i < 6; i++ {
			p := m.Position(int32(r.Intn(m.NumVertices())))
			const kq = 300
			got := router.KNN(p, kq, nil)
			want := query.BruteForceKNN(m, p, kq)
			if len(got) != len(want) {
				t.Fatalf("k=%d probe#%d: len %d, brute force %d", k, i, len(got), len(want))
			}
			for j := range want {
				if got[j] != want[j] {
					t.Fatalf("k=%d probe#%d slot %d: got %d, brute force %d", k, i, j, got[j], want[j])
				}
			}
		}
	}
}

// TestShardedParallelCrawlBudgetCoverage checks that SetCrawlBudget
// forwarded through the router truncates per-shard crawls and that the
// router cursor's LastCoverage accumulates the shard reports: a budgeted
// big-box query is a subset of exact and reports Truncated.
func TestShardedParallelCrawlBudgetCoverage(t *testing.T) {
	m := buildBoxTet(t, 14, 1.0/14)
	router := routerOver(t, m, 4)
	cur, ok := router.NewCursor().(*Cursor)
	if !ok {
		t.Fatal("router cursor type")
	}
	q := geom.BoxAround(m.Bounds().Center(), m.Bounds().Size().Len()*0.35)
	exact := cur.Query(q, nil)
	if cov := cur.LastCoverage(); cov.Truncated {
		t.Fatalf("exact query reports truncation: %+v", cov)
	}
	router.SetCrawlBudget(query.CrawlBudget{MaxVisited: int64(len(exact)) / 16})
	trunc := cur.Query(q, nil)
	cov := cur.LastCoverage()
	if !cov.Truncated || cov.Visited <= 0 {
		t.Fatalf("budgeted query coverage %+v", cov)
	}
	if len(trunc) == 0 || len(trunc) >= len(exact) {
		t.Fatalf("truncated size %d, exact %d", len(trunc), len(exact))
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
	router.SetCrawlBudget(query.CrawlBudget{})
	back := cur.Query(q, nil)
	if d := query.Diff(back, append([]int32(nil), exact...)); d != "" {
		t.Fatalf("zero budget not exact: %s", d)
	}
}
