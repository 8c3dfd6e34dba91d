package bench

import (
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
	"time"
)

func writeBenchFile(t *testing.T, dir, id string, tables []*Table) string {
	t.Helper()
	e := Experiment{ID: id, Description: "test"}
	path, err := WriteJSON(dir, e, QuickConfig(), tables, time.Second)
	if err != nil {
		t.Fatal(err)
	}
	return path
}

func trendTable(speedup, visited float64) *Table {
	tb := &Table{
		ID:      "crawl-scaling",
		Columns: []string{"config", "speedup-vs-hash[x]", "visited/query"},
	}
	tb.AddRow("hash (baseline)", 1.0, visited)
	tb.AddRow("dense", speedup, visited)
	return tb
}

func TestParseGateCell(t *testing.T) {
	g, err := ParseGateCell("crawl-scaling:dense:speedup-vs-hash[x]:+")
	if err != nil {
		t.Fatal(err)
	}
	if g.Table != "crawl-scaling" || g.Row != "dense" || g.Col != "speedup-vs-hash[x]" || g.Direction != '+' {
		t.Fatalf("parsed %+v", g)
	}
	if g.String() != "crawl-scaling:dense:speedup-vs-hash[x]:+" {
		t.Fatalf("round trip %q", g.String())
	}
	for _, bad := range []string{"a:b:c", "a:b:c:d:e", "a:b:c:x"} {
		if _, err := ParseGateCell(bad); err == nil {
			t.Fatalf("ParseGateCell(%q) accepted", bad)
		}
	}
}

func TestCompareBenchFiles(t *testing.T) {
	dir := t.TempDir()
	base := writeBenchFile(t, filepath.Join(dir, "base"), "crawl", []*Table{trendTable(3.0, 1000)})

	cells := []GateCell{
		{Table: "crawl-scaling", Row: "dense", Col: "speedup-vs-hash[x]", Direction: '+'},
		{Table: "crawl-scaling", Row: "dense", Col: "visited/query", Direction: '='},
	}

	cases := []struct {
		name       string
		speedup    float64
		visited    float64
		violations int
	}{
		{"unchanged", 3.0, 1000, 0},
		{"within-tol", 2.7, 1050, 0},
		{"improved", 4.0, 1000, 0}, // '+' direction allows arbitrary gains
		{"speedup-regressed", 2.0, 1000, 1},
		{"visited-drifted-up", 3.0, 1300, 1},
		{"visited-drifted-down", 3.0, 700, 1},
		{"both", 1.0, 0, 2},
	}
	for _, tc := range cases {
		fresh := writeBenchFile(t, filepath.Join(dir, tc.name), "crawl", []*Table{trendTable(tc.speedup, tc.visited)})
		v, err := CompareBenchFiles(base, fresh, cells, 0.15)
		if err != nil {
			t.Fatal(err)
		}
		if len(v) != tc.violations {
			t.Fatalf("%s: %d violations %v, want %d", tc.name, len(v), v, tc.violations)
		}
	}
}

func TestCompareBenchFilesMissingCells(t *testing.T) {
	dir := t.TempDir()
	base := writeBenchFile(t, filepath.Join(dir, "base"), "crawl", []*Table{trendTable(3.0, 1000)})

	// A renamed row, a renamed column, and a missing table each count as
	// a violation rather than passing silently.
	renamedRow := trendTable(3.0, 1000)
	renamedRow.Rows[1][0] = "dense-v2"
	otherTable := trendTable(3.0, 1000)
	otherTable.ID = "elsewhere"
	for _, tc := range []struct {
		name   string
		tables []*Table
	}{
		{"renamed-row", []*Table{renamedRow}},
		{"missing-table", []*Table{otherTable}},
	} {
		fresh := writeBenchFile(t, filepath.Join(dir, tc.name), "crawl", tc.tables)
		v, err := CompareBenchFiles(base, fresh,
			[]GateCell{{Table: "crawl-scaling", Row: "dense", Col: "visited/query", Direction: '='}}, 0.15)
		if err != nil {
			t.Fatal(err)
		}
		if len(v) != 1 {
			t.Fatalf("%s: violations %v, want exactly 1", tc.name, v)
		}
	}

	// Non-numeric gated cell is a violation too.
	if _, err := os.Stat(base); err != nil {
		t.Fatal(err)
	}
	text := trendTable(3.0, 1000)
	text.Rows[1][1] = "fast"
	fresh := writeBenchFile(t, filepath.Join(dir, "text"), "crawl", []*Table{text})
	v, err := CompareBenchFiles(base, fresh,
		[]GateCell{{Table: "crawl-scaling", Row: "dense", Col: "speedup-vs-hash[x]", Direction: '+'}}, 0.15)
	if err != nil {
		t.Fatal(err)
	}
	if len(v) != 1 {
		t.Fatalf("non-numeric cell: violations %v, want 1", v)
	}
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
