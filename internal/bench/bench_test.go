package bench

import (
	"fmt"
	"io"
	"strings"
	"testing"
	"time"

	"octopus/internal/geom"
	"octopus/internal/meshgen"
	"octopus/internal/sim"
	"octopus/internal/workload"
)

func TestRunAccountingAndFairness(t *testing.T) {
	m, err := meshgen.BuildBoxTet(8, 8, 8, 0.125)
	if err != nil {
		t.Fatal(err)
	}
	gen := workload.NewGenerator(m, 512, 1)
	deformer := &sim.NoiseDeformer{Amplitude: 0.005, Frequency: 2, Seed: 1}

	res := Run(m, deformer, 4, UniformQueryStream(gen, 3, 0.01), StandardEngines())
	if len(res.Engines) != 5 {
		t.Fatalf("got %d engine results", len(res.Engines))
	}
	if len(res.StepQueries) != 4 {
		t.Fatalf("step queries = %v", res.StepQueries)
	}
	first := res.Engines[0]
	for _, er := range res.Engines {
		if er.TotalResponse != er.Maintenance+er.QueryTime {
			t.Errorf("%s: total != maintenance + query", er.Engine)
		}
		if er.Queries != first.Queries {
			t.Errorf("%s: ran %d queries, %s ran %d", er.Engine, er.Queries, first.Engine, first.Queries)
		}
		// Every engine is exact, so the total result count must agree.
		if er.Results != first.Results {
			t.Errorf("%s: returned %d results, %s returned %d",
				er.Engine, er.Results, first.Engine, first.Results)
		}
		if er.MaintenanceShare < 0 || er.MaintenanceShare > 1 {
			t.Errorf("%s: maintenance share %v", er.Engine, er.MaintenanceShare)
		}
	}
}

func TestSpeedupHelper(t *testing.T) {
	a := EngineResult{TotalResponse: 100}
	b := EngineResult{TotalResponse: 700}
	if got := Speedup(a, b); got != 7 {
		t.Errorf("Speedup = %v", got)
	}
	if got := Speedup(EngineResult{}, b); got != 0 {
		t.Errorf("zero-time speedup = %v", got)
	}
}

func TestTableRendering(t *testing.T) {
	tab := &Table{ID: "x", Title: "test", Columns: []string{"a", "b"}}
	tab.AddRow(1, 2.5)
	tab.AddRow("s", MB(1<<20))
	tab.Notes = append(tab.Notes, "a note")
	var sb strings.Builder
	tab.Render(&sb)
	out := sb.String()
	for _, want := range []string{"== x: test ==", "a note", "2.500"} {
		if !strings.Contains(out, want) {
			t.Errorf("render missing %q in:\n%s", want, out)
		}
	}
	if tab.Cell(0, 0) != "1" {
		t.Errorf("Cell = %q", tab.Cell(0, 0))
	}
}

func TestRegistry(t *testing.T) {
	exps := Experiments()
	if len(exps) != 25 {
		t.Fatalf("got %d experiments", len(exps))
	}
	seen := map[string]bool{}
	for _, e := range exps {
		if seen[e.ID] {
			t.Errorf("duplicate id %s", e.ID)
		}
		seen[e.ID] = true
		if e.Run == nil || e.Description == "" {
			t.Errorf("experiment %s incomplete", e.ID)
		}
	}
	if _, err := Lookup("fig11"); err != nil {
		t.Error(err)
	}
	if _, err := Lookup("nope"); err == nil {
		t.Error("expected lookup error")
	}
}

// TestDatasetTablesQuick runs the cheap characterization experiments.
func TestDatasetTablesQuick(t *testing.T) {
	cfg := QuickConfig()
	for _, id := range []string{"fig5"} {
		exp, err := Lookup(id)
		if err != nil {
			t.Fatal(err)
		}
		tables, err := exp.Run(cfg)
		if err != nil {
			t.Fatalf("%s: %v", id, err)
		}
		for _, tab := range tables {
			if len(tab.Rows) == 0 {
				t.Errorf("%s/%s: empty table", id, tab.ID)
			}
			tab.Render(io.Discard)
		}
	}
}

// TestAllExperimentsQuick is the schema and determinism pass over the
// registry: every driver runs end to end once at the smallest config the
// harness accepts, its tables must be well formed (unique ids, at least
// one row, every row as wide as the header), and a driver cheap enough to
// run twice must name the same tables, columns and rows both times — the
// names are what cmd/benchdiff gates on. The numbers are not this test's
// business: the trend-gated octopus-bench runs in CI carry them.
//
// The config cannot make a driver cheaper than the datasets it builds and
// the indexes it constructs over them, so the drivers over the level-5
// neuron still take tens of seconds each; -short skips the pass.
//
// Experiments a dedicated test in this suite already runs end to end,
// with stronger assertions, are skipped here.
func TestAllExperimentsQuick(t *testing.T) {
	if testing.Short() {
		t.Skip("experiment sweep skipped in -short mode")
	}
	coveredBy := map[string]string{
		"dist":        "TestDistExperimentSmoke",
		"fig6":        "the fig6x subtest: the same driver over a superset of the engines",
		"layout":      "TestLayoutQuick",
		"maintain":    "TestMaintainExperimentSmoke",
		"repartition": "TestRepartExperimentSmoke",
		"sharded":     "TestShardExperimentSmoke",
		"slo":         "TestSLOExperimentSmoke",
	}
	cfg := Config{Scale: 1, Steps: 1, QueriesPerStep: 1, Selectivity: 0.001, Seed: 42}
	for _, exp := range Experiments() {
		exp := exp
		t.Run(exp.ID, func(t *testing.T) {
			if by := coveredBy[exp.ID]; by != "" {
				t.Skipf("full driver runs in %s", by)
			}
			start := time.Now()
			tables, err := exp.Run(cfg)
			if err != nil {
				t.Fatal(err)
			}
			cheap := time.Since(start) < time.Second
			shape := tableShape(t, tables)
			if !cheap {
				return
			}
			again, err := exp.Run(cfg)
			if err != nil {
				t.Fatal(err)
			}
			if got := tableShape(t, again); got != shape {
				t.Errorf("second run named its tables differently:\n%s\nfirst run:\n%s", got, shape)
			}
		})
	}
}

// tableShape checks that an experiment's tables are well formed and
// returns their names: one line per table with its id, columns and row
// labels (the first cell of each row).
func tableShape(t *testing.T, tables []*Table) string {
	t.Helper()
	if len(tables) == 0 {
		t.Fatal("no tables")
	}
	var sb strings.Builder
	seen := map[string]bool{}
	for _, tab := range tables {
		if tab.ID == "" || seen[tab.ID] {
			t.Errorf("table id %q empty or repeated", tab.ID)
		}
		seen[tab.ID] = true
		if len(tab.Columns) == 0 || len(tab.Rows) == 0 {
			t.Errorf("table %s empty", tab.ID)
		}
		fmt.Fprintf(&sb, "%s %q", tab.ID, tab.Columns)
		for r, row := range tab.Rows {
			if len(row) != len(tab.Columns) {
				t.Errorf("table %s row %d has %d cells under %d columns", tab.ID, r, len(row), len(tab.Columns))
				continue
			}
			fmt.Fprintf(&sb, " %q", row[0])
		}
		sb.WriteByte('\n')
		tab.Render(io.Discard)
	}
	return sb.String()
}

// TestOctopusBeatsScanOnReference is the headline sanity check at reduced
// scale: OCTOPUS must beat the linear scan at the paper's default workload
// on the reference dataset.
func TestOctopusBeatsScanOnReference(t *testing.T) {
	if testing.Short() {
		t.Skip("dataset build skipped in -short mode")
	}
	cfg := QuickConfig()
	cfg.Steps = 10
	m, err := meshgen.BuildCached(referenceNeuro(), cfg.Scale)
	if err != nil {
		t.Fatal(err)
	}
	deformer, err := sim.DefaultDeformer(referenceNeuro(), sim.DefaultAmplitude)
	if err != nil {
		t.Fatal(err)
	}
	gen := workload.NewGenerator(m, 4096, cfg.Seed)
	res := Run(m, deformer, cfg.Steps,
		UniformQueryStream(gen, cfg.QueriesPerStep, cfg.Selectivity), octopusVsScan())
	speedup := Speedup(res.Engines[0], res.Engines[1])
	if speedup < 1.5 {
		t.Errorf("OCTOPUS speedup over scan = %.2fx; expected comfortably > 1.5x", speedup)
	}
	t.Logf("OCTOPUS vs scan speedup at reduced scale: %.2fx", speedup)
}

func TestShuffleMeshPreservesStructure(t *testing.T) {
	m, err := meshgen.BuildBoxTet(4, 4, 4, 0.25)
	if err != nil {
		t.Fatal(err)
	}
	sm, err := shuffleMesh(m, 7)
	if err != nil {
		t.Fatal(err)
	}
	if sm.NumVertices() != m.NumVertices() || sm.NumCells() != m.NumCells() {
		t.Fatal("shuffle changed sizes")
	}
	if err := sm.Validate(); err != nil {
		t.Fatal(err)
	}
	if sm.NumEdges() != m.NumEdges() {
		t.Error("shuffle changed edge count")
	}
}

func TestMicrobenchmarkStream(t *testing.T) {
	m, err := meshgen.BuildBoxTet(6, 6, 6, 1.0/6)
	if err != nil {
		t.Fatal(err)
	}
	gen := workload.NewGenerator(m, 512, 3)
	mb := workload.PaperBenchmarks()[1]
	stream := MicrobenchmarkStream(gen, mb)
	for step := 0; step < 5; step++ {
		qs := stream(step)
		if len(qs) < mb.QueriesMin || len(qs) > mb.QueriesMax {
			t.Fatalf("step %d: %d queries outside [%d,%d]", step, len(qs), mb.QueriesMin, mb.QueriesMax)
		}
		for _, q := range qs {
			if q.IsEmpty() {
				t.Fatal("empty query box")
			}
		}
	}
	_ = geom.AABB{}
}
