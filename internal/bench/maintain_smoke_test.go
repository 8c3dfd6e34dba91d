package bench

import (
	"io"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
	"time"
)

// TestMaintainExperimentSmoke runs the maintain driver over a subset of
// the engine table: all four maintenance-free engines, so the K=4
// staleness bound below is checked for each of them, and the
// rebuild-heavy kd-tree. Every mode, both deformation regimes and both
// shardings run; the full nine-engine matrix runs in CI's bench-smoke
// job (octopus-bench -exp maintain).
func TestMaintainExperimentSmoke(t *testing.T) {
	factories := Engines("LinearScan", "OCTOPUS", "OCTOPUS-CON", "OCTOPUS-Hybrid", "KD-Tree")
	engines := len(factories)
	cfg := QuickConfig()
	tables, err := maintainTables(cfg, factories)
	if err != nil {
		t.Fatal(err)
	}
	for _, tab := range tables {
		tab.Render(io.Discard)
	}
	if len(tables) != 2 {
		t.Fatalf("maintain produced %d tables, want 2 (massive + localized)", len(tables))
	}
	// Every engine appears in all 4 (massive) / 3 (localized) modes,
	// unsharded and K=4.
	if want := engines * 4 * 2; len(tables[0].Rows) != want {
		t.Fatalf("maintain table has %d rows, want %d", len(tables[0].Rows), want)
	}
	if want := engines * 3 * 2; len(tables[1].Rows) != want {
		t.Fatalf("maintain-local table has %d rows, want %d", len(tables[1].Rows), want)
	}

	// The sharded staleness bound: with per-shard maintenance, K=4 must not
	// be meaningfully staler than the single mesh for an engine with
	// nothing to maintain, which answers at the pinned epoch either way.
	stale := map[string]float64{}
	for ri := range tables[0].Rows {
		engine, mode := tables[0].Cell(ri, 1), tables[0].Cell(ri, 2)
		if mode != "incremental" || !maintenanceFree[strings.TrimPrefix(engine, "K=4 ")] {
			continue
		}
		v, err := strconv.ParseFloat(tables[0].Cell(ri, 8), 64)
		if err != nil {
			t.Fatalf("parse stale-mean %q: %v", tables[0].Cell(ri, 8), err)
		}
		stale[engine] = v
	}
	pairs := 0
	for engine, single := range stale {
		sharded, ok := stale["K=4 "+engine]
		if !ok {
			continue
		}
		pairs++
		if sharded > single+1.0 {
			t.Fatalf("%s: sharded staleness %.3f regressed vs single-mesh %.3f", engine, sharded, single)
		}
	}
	if pairs == 0 {
		t.Fatalf("no single and K=4 incremental rows of a maintenance-free engine: %v", stale)
	}
}

// maintenanceFree names the engines whose BeginMaintenance returns nil.
var maintenanceFree = map[string]bool{
	"LinearScan": true, "OCTOPUS": true, "OCTOPUS-CON": true, "OCTOPUS-Hybrid": true,
}

func TestWriteJSONRoundTrip(t *testing.T) {
	dir := t.TempDir()
	e := Experiment{ID: "smoke", Description: "json round trip"}
	tab := &Table{ID: "smoke", Title: "t", Columns: []string{"a", "b"}}
	tab.AddRow("x", 1.5)
	path, err := WriteJSON(dir, e, QuickConfig(), []*Table{tab}, 125*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	if filepath.Base(path) != "BENCH_smoke.json" {
		t.Fatalf("unexpected path %q", path)
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	data := string(raw)
	for _, want := range []string{`"experiment": "smoke"`, `"columns"`, `"x"`, strconv.Quote("1.500")} {
		if !strings.Contains(data, want) {
			t.Fatalf("JSON missing %q:\n%s", want, data)
		}
	}
}
