package bench

import (
	"fmt"
	"io"

	"engarde/internal/cycles"
	"engarde/internal/workload"
)

// FigureTables names the deterministic tables WriteTable prints, in the
// order engarde-bench -table all prints them. Figure 2 counts lines of
// code and is not among them.
var FigureTables = []string{"scaling", "fig3", "fig4", "fig5"}

// WriteTable writes one of FigureTables: the scaling sweeps, or one of
// Figures 3-5 followed by the paper's worked conversion of each row to
// wall time at 3.5 GHz. benchName, if non-empty, restricts a figure to
// that benchmark. Every number is a cycle-model figure, so the output is
// byte-identical across runs.
func WriteTable(w io.Writer, table, benchName string) error {
	if table == "scaling" {
		points, err := RunScaling([]int{25, 50, 100, 200, 400})
		if err != nil {
			return err
		}
		fmt.Fprintln(w, FormatScaling(points))
		sizes, err := RunSizeScaling()
		if err != nil {
			return err
		}
		fmt.Fprintln(w, FormatSizeScaling(sizes))
		return nil
	}
	exp, ok := map[string]Experiment{"fig3": Fig3, "fig4": Fig4, "fig5": Fig5}[table]
	if !ok {
		return fmt.Errorf("unknown table %q", table)
	}
	var rows []Row
	if benchName != "" {
		spec, err := workload.ByName(benchName)
		if err != nil {
			return err
		}
		row, err := Run(exp, spec)
		if err != nil {
			return err
		}
		rows = []Row{row}
	} else {
		var err error
		if rows, err = RunAll(exp); err != nil {
			return err
		}
	}
	fmt.Fprintln(w, FormatTable(exp, rows))
	for _, r := range rows {
		fmt.Fprintf(w, "  %-10s disassembly ≈ %.1f ms, policy ≈ %.1f ms at 3.5 GHz\n",
			r.Benchmark, cycles.Milliseconds(r.Disassembly), cycles.Milliseconds(r.PolicyChecking))
	}
	fmt.Fprintln(w)
	return nil
}
