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
	"engarde/internal/cycles"
	"engarde/internal/workload"
)

func main() {
	table := flag.String("table", "all", "table to regenerate: fig2, fig3, fig4, fig5, scaling or all")
	benchName := flag.String("bench", "", "restrict to one benchmark (e.g. Nginx)")
	repoRoot := flag.String("repo", ".", "repository root (for the fig2 LOC count)")
	flag.Parse()

	if err := run(*table, *benchName, *repoRoot); err != nil {
		fmt.Fprintln(os.Stderr, "engarde-bench:", err)
		os.Exit(1)
	}
}

func run(table, benchName, repoRoot string) error {
	experiments := map[string]bench.Experiment{
		"fig3": bench.Fig3,
		"fig4": bench.Fig4,
		"fig5": bench.Fig5,
	}

	printFig2 := table == "fig2" || table == "all"
	if printFig2 {
		out, err := bench.FormatFig2(repoRoot)
		if err != nil {
			return err
		}
		fmt.Println(out)
	}

	if table == "scaling" || table == "all" {
		points, err := bench.RunScaling([]int{25, 50, 100, 200, 400})
		if err != nil {
			return err
		}
		fmt.Println(bench.FormatScaling(points))
		sizes, err := bench.RunSizeScaling()
		if err != nil {
			return err
		}
		fmt.Println(bench.FormatSizeScaling(sizes))
		if table == "scaling" {
			return nil
		}
	}

	var order []string
	if table == "all" {
		order = []string{"fig3", "fig4", "fig5"}
	} else if _, ok := experiments[table]; ok {
		order = []string{table}
	} else if table != "fig2" {
		return fmt.Errorf("unknown table %q", table)
	}

	for _, name := range order {
		exp := experiments[name]
		var rows []bench.Row
		if benchName != "" {
			spec, err := workload.ByName(benchName)
			if err != nil {
				return err
			}
			row, err := bench.Run(exp, spec)
			if err != nil {
				return err
			}
			rows = []bench.Row{row}
		} else {
			var err error
			rows, err = bench.RunAll(exp)
			if err != nil {
				return err
			}
		}
		fmt.Println(bench.FormatTable(exp, rows))
		// The paper's worked example: convert a cycle figure to wall time
		// at the reference 3.5 GHz clock.
		for _, r := range rows {
			fmt.Printf("  %-10s disassembly ≈ %.1f ms, policy ≈ %.1f ms at 3.5 GHz\n",
				r.Benchmark, cycles.Milliseconds(r.Disassembly), cycles.Milliseconds(r.PolicyChecking))
		}
		fmt.Println()
	}
	return nil
}
