// Command benchdiff is the CI bench trend gate: it compares a fresh
// BENCH_<id>.json (written by octopus-bench -json) against the committed
// baseline and fails when a named cell regresses beyond the tolerance.
//
//	benchdiff -base internal/bench/baseline/BENCH_crawl.json \
//	          -new BENCH_crawl.json -tol 0.15 \
//	          -cell 'crawl-cost:20%:visited/query:=' \
//	          -cell 'crawl-budget:0.500:recall[%]:='
//
// Cell syntax is table:row:col:direction, where row matches the first
// column of the row, and direction is '+' (higher is better), '-' (lower
// is better) or '=' (deterministic: either direction fails). A cell
// missing from either file fails the gate — renaming a gated row or
// column must come with a baseline refresh.
package main

import (
	"flag"
	"fmt"
	"os"

	"octopus/internal/bench"
)

type cellList []bench.GateCell

func (c *cellList) String() string { return fmt.Sprintf("%v", []bench.GateCell(*c)) }

func (c *cellList) Set(s string) error {
	g, err := bench.ParseGateCell(s)
	if err != nil {
		return err
	}
	*c = append(*c, g)
	return nil
}

func main() {
	base := flag.String("base", "", "committed baseline BENCH_<id>.json")
	fresh := flag.String("new", "", "freshly generated BENCH_<id>.json")
	tol := flag.Float64("tol", 0.15, "allowed relative drift per cell")
	var cells cellList
	flag.Var(&cells, "cell", "gated cell spec table:row:col:+|-|= (repeatable)")
	flag.Parse()

	if *base == "" || *fresh == "" || len(cells) == 0 {
		fmt.Fprintln(os.Stderr, "benchdiff: -base, -new and at least one -cell are required")
		flag.Usage()
		os.Exit(2)
	}
	violations, err := bench.CompareBenchFiles(*base, *fresh, cells, *tol)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchdiff:", err)
		os.Exit(2)
	}
	for _, v := range violations {
		fmt.Fprintln(os.Stderr, "REGRESSION:", v)
	}
	if len(violations) > 0 {
		fmt.Fprintf(os.Stderr, "benchdiff: %d gated cell(s) regressed beyond %.0f%%\n",
			len(violations), *tol*100)
		os.Exit(1)
	}
	fmt.Printf("benchdiff: %d gated cell(s) within %.0f%% of baseline\n", len(cells), *tol*100)
}
