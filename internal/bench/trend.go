package bench

import (
	"encoding/json"
	"fmt"
	"os"
	"strconv"
	"strings"
)

// GateCell names one table cell of a BENCH_<id>.json file and the
// direction in which it is allowed to drift: the CI trend gate compares
// the cell between a committed baseline and a fresh run and fails on a
// regression beyond the tolerance.
type GateCell struct {
	// Table is the table ID inside the experiment file, e.g.
	// "layout-crawl".
	Table string
	// Row matches the first column of the row, e.g. "hilbert".
	Row string
	// Col is the column name of the gated cell, e.g.
	// "speedup-vs-random[x]".
	Col string
	// Direction is '+' (higher is better — fail when the new value drops
	// below baseline*(1-tol)), '-' (lower is better — fail when it rises
	// above baseline*(1+tol)), or '=' (deterministic — fail when it moves
	// more than tol in either direction).
	Direction byte
}

// String renders the cell in the spec syntax ParseGateCell accepts.
func (g GateCell) String() string {
	return fmt.Sprintf("%s:%s:%s:%c", g.Table, g.Row, g.Col, g.Direction)
}

// ParseGateCell parses "table:row:col:+|-|=" (the row and column names
// may not contain ':').
func ParseGateCell(s string) (GateCell, error) {
	parts := strings.Split(s, ":")
	if len(parts) != 4 {
		return GateCell{}, fmt.Errorf("trend: cell %q: want table:row:col:direction", s)
	}
	dir := parts[3]
	if dir != "+" && dir != "-" && dir != "=" {
		return GateCell{}, fmt.Errorf("trend: cell %q: direction %q, want + - or =", s, dir)
	}
	return GateCell{Table: parts[0], Row: parts[1], Col: parts[2], Direction: dir[0]}, nil
}

// ReadBenchFile loads one BENCH_<id>.json written by WriteJSON.
func ReadBenchFile(path string) (*experimentJSON, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var e experimentJSON
	if err := json.Unmarshal(data, &e); err != nil {
		return nil, fmt.Errorf("trend: %s: %w", path, err)
	}
	return &e, nil
}

// cell finds a gated cell's numeric value inside an experiment file.
func (e *experimentJSON) cell(g GateCell) (float64, error) {
	for _, t := range e.Tables {
		if t.ID != g.Table {
			continue
		}
		col := -1
		for i, c := range t.Columns {
			if c == g.Col {
				col = i
				break
			}
		}
		if col < 0 {
			return 0, fmt.Errorf("table %s has no column %q", g.Table, g.Col)
		}
		for _, row := range t.Rows {
			if len(row) == 0 || row[0] != g.Row {
				continue
			}
			if col >= len(row) {
				return 0, fmt.Errorf("table %s row %q has no cell %d", g.Table, g.Row, col)
			}
			v, err := strconv.ParseFloat(row[col], 64)
			if err != nil {
				return 0, fmt.Errorf("table %s cell %s/%s: %q is not numeric", g.Table, g.Row, g.Col, row[col])
			}
			return v, nil
		}
		return 0, fmt.Errorf("table %s has no row %q", g.Table, g.Row)
	}
	return 0, fmt.Errorf("experiment %s has no table %q", e.Experiment, g.Table)
}

// CompareBenchFiles checks every gated cell of a fresh run against the
// committed baseline and returns one violation message per failing cell.
// A cell missing from either file is a violation (renaming a gated row
// must come with a baseline refresh), and tol is the allowed relative
// drift (0.15 = 15%).
func CompareBenchFiles(basePath, newPath string, cells []GateCell, tol float64) ([]string, error) {
	base, err := ReadBenchFile(basePath)
	if err != nil {
		return nil, err
	}
	fresh, err := ReadBenchFile(newPath)
	if err != nil {
		return nil, err
	}
	var violations []string
	for _, g := range cells {
		bv, err := base.cell(g)
		if err != nil {
			violations = append(violations, fmt.Sprintf("%s: baseline: %v", g, err))
			continue
		}
		nv, err := fresh.cell(g)
		if err != nil {
			violations = append(violations, fmt.Sprintf("%s: new run: %v", g, err))
			continue
		}
		scale := bv
		if scale < 0 {
			scale = -scale
		}
		slack := tol * scale
		switch g.Direction {
		case '+':
			if nv < bv-slack {
				violations = append(violations,
					fmt.Sprintf("%s: %g fell below baseline %g by more than %.0f%%", g, nv, bv, tol*100))
			}
		case '-':
			if nv > bv+slack {
				violations = append(violations,
					fmt.Sprintf("%s: %g rose above baseline %g by more than %.0f%%", g, nv, bv, tol*100))
			}
		case '=':
			if nv < bv-slack || nv > bv+slack {
				violations = append(violations,
					fmt.Sprintf("%s: %g drifted from baseline %g by more than %.0f%%", g, nv, bv, tol*100))
			}
		}
	}
	return violations, nil
}
