package octopus_test

import (
	"math"
	"math/rand"
	"sort"
	"testing"

	"octopus"
)

// buildBlock constructs an n^3-cube tetrahedral block through the public
// API (examples build meshes the same way).
func buildBlock(t testing.TB, n int) *octopus.Mesh {
	t.Helper()
	b := octopus.NewMeshBuilder((n+1)*(n+1)*(n+1), n*n*n*6)
	vid := func(x, y, z int) int32 { return int32(x + y*(n+1) + z*(n+1)*(n+1)) }
	h := 1.0 / float64(n)
	for z := 0; z <= n; z++ {
		for y := 0; y <= n; y++ {
			for x := 0; x <= n; x++ {
				b.AddVertex(octopus.V(float64(x)*h, float64(y)*h, float64(z)*h))
			}
		}
	}
	kuhn := [6][4]int{{0, 1, 3, 7}, {0, 1, 5, 7}, {0, 2, 3, 7}, {0, 2, 6, 7}, {0, 4, 5, 7}, {0, 4, 6, 7}}
	for z := 0; z < n; z++ {
		for y := 0; y < n; y++ {
			for x := 0; x < n; x++ {
				var c [8]int32
				for bit := 0; bit < 8; bit++ {
					c[bit] = vid(x+bit&1, y+(bit>>1)&1, z+(bit>>2)&1)
				}
				for _, k := range kuhn {
					b.AddTet(c[k[0]], c[k[1]], c[k[2]], c[k[3]])
				}
			}
		}
	}
	m, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func sorted(ids []int32) []int32 {
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	return ids
}

func equalIDs(a, b []int32) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// TestPublicAPIEndToEnd walks the full lifecycle a library user would:
// build a mesh, create engines, simulate in-place deformation, query, and
// cross-check every engine against the ground truth.
func TestPublicAPIEndToEnd(t *testing.T) {
	m := buildBlock(t, 8)
	engines := []octopus.Engine{
		octopus.New(m),
		octopus.NewCon(m, 0),
		octopus.NewLinearScan(m),
		octopus.NewOctree(m, 0),
		octopus.NewKDTree(m, 0),
		octopus.NewLURTree(m, 16),
		octopus.NewQUTrade(m, 16, 0),
		octopus.NewLUGrid(m, 512),
	}

	r := rand.New(rand.NewSource(1))
	pos := m.Positions()
	for step := 0; step < 5; step++ {
		// In-place deformation of every vertex (the simulation).
		for i := range pos {
			pos[i] = pos[i].Add(octopus.V(
				0.004*math.Sin(float64(step)+pos[i].Y*7),
				0.004*math.Cos(float64(step)+pos[i].Z*9),
				0.004*math.Sin(float64(step)+pos[i].X*8),
			))
		}
		for _, e := range engines {
			e.Step()
		}
		for i := 0; i < 10; i++ {
			center := m.Position(int32(r.Intn(m.NumVertices())))
			q := octopus.BoxAround(center, 0.05+r.Float64()*0.15)
			want := sorted(octopus.BruteForce(m, q))
			for _, e := range engines {
				got := sorted(e.Query(q, nil))
				if !equalIDs(got, want) {
					t.Fatalf("step %d, engine %s: %d results, want %d",
						step, e.Name(), len(got), len(want))
				}
			}
		}
	}
}

func TestPublicStatsAndModel(t *testing.T) {
	m := buildBlock(t, 6)
	stats := octopus.ComputeMeshStats(m)
	if stats.Vertices != 343 || stats.SurfaceRatio <= 0 {
		t.Fatalf("stats: %+v", stats)
	}

	c := octopus.Calibrate(m)
	if c.CS <= 0 || c.CR <= 0 {
		t.Fatalf("calibration: %+v", c)
	}
	sp := octopus.PredictedSpeedup(stats.SurfaceRatio, stats.AvgDegree, 0.001, c)
	if sp <= 0 {
		t.Errorf("predicted speedup %v", sp)
	}
	be := octopus.BreakEvenSelectivity(stats.SurfaceRatio, stats.AvgDegree, c)
	if be <= 0 || be > 1 {
		t.Errorf("break-even %v", be)
	}
	if octopus.CostScan(stats.Vertices, c) <= 0 {
		t.Error("scan cost not positive")
	}
	if octopus.CostOctopus(stats.Vertices, stats.SurfaceRatio, stats.AvgDegree, 0.001, c) <= 0 {
		t.Error("octopus cost not positive")
	}
}

func TestPublicApproximationAndStats(t *testing.T) {
	m := buildBlock(t, 8)
	o := octopus.New(m)
	q := octopus.BoxAround(octopus.V(0.5, 0.5, 0.5), 0.3)
	o.Query(q, nil)
	s := o.Stats()
	if s.Queries != 1 || s.Total() <= 0 {
		t.Fatalf("stats: %+v", s)
	}
	exact := o.Query(q, nil)
	cur := o.NewCursor()
	cur.(octopus.BudgetedCursor).SetBudget(octopus.CrawlBudget{MaxVisited: 10})
	got := cur.Query(q, nil)
	if len(got) == 0 || len(got) >= len(exact) {
		t.Errorf("budgeted query returned %d of %d", len(got), len(exact))
	}
	in := make(map[int32]bool, len(exact))
	for _, v := range exact {
		in[v] = true
	}
	for _, v := range got {
		if !in[v] {
			t.Fatalf("budgeted query returned %d, not in the exact answer", v)
		}
	}
}

func TestPublicRestructuring(t *testing.T) {
	m := buildBlock(t, 4)
	o := octopus.New(m)
	if _, err := m.DeleteCell(0); err != nil {
		t.Fatal(err)
	}
	q := m.Bounds()
	want := sorted(octopus.BruteForce(m, q))
	got := sorted(o.Query(q, nil))
	if !equalIDs(got, want) {
		t.Fatalf("after restructuring: %d results, want %d", len(got), len(want))
	}
}

func TestGeometryHelpers(t *testing.T) {
	b := octopus.Box(octopus.V(1, 1, 1), octopus.V(0, 0, 0))
	if !b.Contains(octopus.V(0.5, 0.5, 0.5)) {
		t.Error("Box broken")
	}
	c := octopus.BoxAround(octopus.V(0, 0, 0), 1)
	if c.Volume() != 8 {
		t.Errorf("BoxAround volume = %v", c.Volume())
	}
}
