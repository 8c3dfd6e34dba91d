package bench

import (
	"strconv"
	"testing"

	"octopus/internal/geom"
	"octopus/internal/mesh"
	"octopus/internal/meshgen"
	"octopus/internal/workload"
)

func buildSingleTetMesh(t *testing.T) *mesh.Mesh {
	t.Helper()
	b := mesh.NewBuilder(4, 1)
	b.AddVertex(geom.Vec3{X: 0, Y: 0, Z: 0})
	b.AddVertex(geom.Vec3{X: 1, Y: 0, Z: 0})
	b.AddVertex(geom.Vec3{X: 0, Y: 1, Z: 0})
	b.AddVertex(geom.Vec3{X: 0, Y: 0, Z: 1})
	b.AddTet(0, 1, 2, 3)
	m, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func parseCell(t *testing.T, tb *Table, row, col int) float64 {
	t.Helper()
	v, err := strconv.ParseFloat(tb.Cell(row, col), 64)
	if err != nil {
		t.Fatalf("cell (%d,%d) = %q not numeric: %v", row, col, tb.Cell(row, col), err)
	}
	return v
}

// TestCrawlCostTableQuick drives the cost table on a small box mesh: one
// row, a visited count that is a pure function of the seeded boxes (two
// runs agree) and a positive per-vertex cost.
func TestCrawlCostTableQuick(t *testing.T) {
	m, err := meshgen.BuildBoxTet(16, 16, 16, 1.0/16)
	if err != nil {
		t.Fatal(err)
	}
	gen := workload.NewGenerator(m, 1024, 7)
	queries := gen.UniformQueries(8, 0.1)
	tb := crawlCostTable(m, queries)
	if len(tb.Rows) != 1 {
		t.Fatalf("%d rows, want 1", len(tb.Rows))
	}
	if got := parseCell(t, tb, 0, 3); got <= 0 {
		t.Fatalf("visited/query %v, want > 0", got)
	}
	if got := parseCell(t, tb, 0, 2); got <= 0 {
		t.Fatalf("ns/visited %v, want > 0", got)
	}
	if again := crawlCostTable(m, queries); again.Cell(0, 3) != tb.Cell(0, 3) {
		t.Fatalf("visited/query %s then %s: must be deterministic", tb.Cell(0, 3), again.Cell(0, 3))
	}
}

// TestCrawlBudgetTablesQuick drives the two budget tables on a small
// mesh: recall must be 100% on the exact row and fall monotonically with
// the budget, and the kNN bound gap must rise as the budget shrinks.
func TestCrawlBudgetTablesQuick(t *testing.T) {
	m, err := meshgen.BuildBoxTet(14, 14, 14, 1.0/14)
	if err != nil {
		t.Fatal(err)
	}
	gen := workload.NewGenerator(m, 1024, 7)
	tb := crawlBudgetTable(m, gen.UniformQueries(8, 0.05))
	if got := parseCell(t, tb, 0, 1); got != 100 {
		t.Fatalf("exact recall %v, want 100", got)
	}
	for r := 1; r < len(tb.Rows); r++ {
		if parseCell(t, tb, r, 1) > parseCell(t, tb, r-1, 1) {
			t.Fatalf("recall not monotone at row %d", r)
		}
	}

	cfg := QuickConfig()
	ktb := knnBudgetTable(m, gen, cfg)
	if got := parseCell(t, ktb, 0, 1); got != 100 {
		t.Fatalf("exact kNN recall %v, want 100", got)
	}
	if got := parseCell(t, ktb, 0, 2); got != 0 {
		t.Fatalf("exact kNN bound gap %v, want 0", got)
	}
	for r := 1; r < len(ktb.Rows); r++ {
		if parseCell(t, ktb, r, 2) < parseCell(t, ktb, r-1, 2) {
			t.Fatalf("bound gap not monotone at row %d", r)
		}
	}
}

// TestEdgeLocality checks the cache-proxy statistics on a mesh small
// enough to verify by hand: a single tetrahedron has edges (0,1) (0,2)
// (0,3) (1,2) (1,3) (2,3) — mean |did| over directed adjacency entries
// is 20/12, and every delta is within 16.
func TestEdgeLocality(t *testing.T) {
	m := buildSingleTetMesh(t)
	mean, near := edgeLocality(m, 16)
	if want := 20.0 / 12.0; mean < want-1e-9 || mean > want+1e-9 {
		t.Fatalf("mean delta %v, want %v", mean, want)
	}
	if near != 1 {
		t.Fatalf("near fraction %v, want 1", near)
	}
	_, near0 := edgeLocality(m, 0)
	if near0 != 0 {
		t.Fatalf("near fraction at 0 = %v, want 0", near0)
	}
}

// TestLayoutQuick runs the full layout ablation at test scale: the
// locality columns must rank random worst, the table must carry one row
// per layout, and the Figure 13 tables one row per selectivity (and per
// layout of the phase split).
func TestLayoutQuick(t *testing.T) {
	if testing.Short() {
		t.Skip("layout ablation builds the level-3 neuron")
	}
	tables, err := Layout(QuickConfig())
	if err != nil {
		t.Fatal(err)
	}
	tb := tables[0]
	if len(tb.Rows) != 6 {
		t.Fatalf("%d rows, want 6", len(tb.Rows))
	}
	randomDelta := parseCell(t, tb, 0, 4)
	for r := 1; r < len(tb.Rows); r++ {
		if parseCell(t, tb, r, 4) >= randomDelta {
			t.Fatalf("row %d mean delta %v not below random %v",
				r, parseCell(t, tb, r, 4), randomDelta)
		}
	}
	if len(tables) != 3 || tables[1].ID != "fig13a" || tables[2].ID != "fig13b" {
		t.Fatalf("layout tables %q, want layout-crawl, fig13a, fig13b", tableShape(t, tables))
	}
	if a, b := len(tables[1].Rows), len(tables[2].Rows); a != 15 || b != 5 {
		t.Fatalf("fig13a has %d rows and fig13b %d, want 15 and 5", a, b)
	}
}
