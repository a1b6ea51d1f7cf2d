// Command engarde-bench regenerates the paper's evaluation tables.
//
// Usage:
//
//	engarde-bench -table fig3          # one table
//	engarde-bench -table all           # Figures 2-5
//	engarde-bench -table fig4 -bench 401.bzip2
//
// Cycle figures follow the paper's methodology (§5): SGX instructions cost
// 10K cycles; other work is metered in calibrated units (see DESIGN.md and
// EXPERIMENTS.md). The right-hand column reports measured/paper ratios.
//
// End-to-end serving performance is measured by perfbench (see
// BENCHMARK.json), which drives the real daemons.
package main

import (
	"flag"
	"fmt"
	"os"

	"engarde/internal/bench"
)

func main() {
	table := flag.String("table", "all", "table to regenerate: fig2, fig3, fig4, fig5, scaling, ledger or all")
	benchName := flag.String("bench", "", "restrict to one benchmark (e.g. Nginx)")
	repoRoot := flag.String("repo", ".", "repository root (for the fig2 LOC count)")
	flag.Parse()

	if err := run(*table, *benchName, *repoRoot); err != nil {
		fmt.Fprintln(os.Stderr, "engarde-bench:", err)
		os.Exit(1)
	}
}

func run(table, benchName, repoRoot string) error {
	if table == "fig2" || table == "all" {
		out, err := bench.FormatFig2(repoRoot)
		if err != nil {
			return err
		}
		fmt.Println(out)
	}
	switch table {
	case "fig2":
		return nil
	case "all":
		for _, t := range bench.FigureTables {
			if err := bench.WriteTable(os.Stdout, t, benchName); err != nil {
				return err
			}
		}
		return nil
	}
	return bench.WriteTable(os.Stdout, table, benchName)
}
