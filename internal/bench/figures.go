package bench

import (
	"fmt"
	"io"

	"engarde/internal/core"
	"engarde/internal/cycles"
	"engarde/internal/policy/memo"
	"engarde/internal/workload"
)

// FigureTables names the deterministic tables WriteTable prints, in the
// order engarde-bench -table all prints them. Figure 2 counts lines of
// code and is not among them.
var FigureTables = []string{"scaling", "fig3", "fig4", "fig5", "ledger"}

// WriteTable writes one of FigureTables: the scaling sweeps, one of
// Figures 3-5 followed by the paper's worked conversion of each row to
// wall time at 3.5 GHz, or the warm-path ledger over every Figure 3-5 row.
// benchName, if non-empty, restricts a figure or the ledger to that
// benchmark. Every number is a cycle-model figure, so the output is
// byte-identical across runs.
func WriteTable(w io.Writer, table, benchName string) error {
	specs := workload.Specs()
	if benchName != "" {
		spec, err := workload.ByName(benchName)
		if err != nil {
			return err
		}
		specs = []workload.Spec{spec}
	}
	if table == "ledger" {
		fmt.Fprintln(w, "Warm-path ledger (policy cycles of a cold provision and of a second one sharing its function cache)")
		fmt.Fprintf(w, "%-6s %-10s %-26s %12s %12s %8s\n",
			"Figure", "Benchmark", "Verdict", "ColdPolicy", "WarmPolicy", "Reused")
		for _, exp := range []Experiment{Fig3, Fig4, Fig5} {
			for _, spec := range specs {
				r, err := runLedger(exp, spec)
				if err != nil {
					return err
				}
				fmt.Fprintf(w, "fig%-3d %-10s %-26s %12d %12d %8d\n",
					int(exp), r.Benchmark, r.Verdict, r.ColdPolicy, r.WarmPolicy, r.Reused)
			}
		}
		fmt.Fprintln(w)
		return nil
	}
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
	rows := make([]Row, 0, len(specs))
	for _, spec := range specs {
		row, err := Run(exp, spec)
		if err != nil {
			return err
		}
		rows = append(rows, row)
	}
	fmt.Fprintln(w, FormatTable(exp, rows))
	for _, r := range rows {
		fmt.Fprintf(w, "  %-10s disassembly ≈ %.1f ms, policy ≈ %.1f ms at 3.5 GHz\n",
			r.Benchmark, cycles.Milliseconds(r.Disassembly), cycles.Milliseconds(r.PolicyChecking))
	}
	fmt.Fprintln(w)
	return nil
}

// ledgerRow is one row of the warm-path ledger: a benchmark's verdict and
// the policy cycles of two provisions that share one function-result
// cache, the cold first one that fills it and the warm second one.
type ledgerRow struct {
	Benchmark  string
	Verdict    string
	ColdPolicy uint64
	WarmPolicy uint64
	// Reused counts the function × module outcomes the warm provision
	// took from the cache.
	Reused uint64
}

// runLedger provisions exp's client build of spec twice through one
// function-result cache. Both runs are sequential (one disassembly and
// one policy worker), because warm metering depends on where parallel
// shards cut. The warm verdict must equal the cold one.
func runLedger(exp Experiment, spec workload.Spec) (ledgerRow, error) {
	bin, err := spec.Build(exp.Variant())
	if err != nil {
		return ledgerRow{}, err
	}
	pols, err := exp.policies()
	if err != nil {
		return ledgerRow{}, err
	}
	cache, err := memo.Open(memo.Config{})
	if err != nil {
		return ledgerRow{}, err
	}
	defer cache.Close()
	cfg := core.Config{Policies: pols, FnMemo: cache, DisasmWorkers: 1, PolicyWorkers: 1}
	var (
		verdicts [2]string
		policy   [2]uint64
		reused   uint64
	)
	for i := range verdicts {
		rep, counter, err := provision(spec.Name, bin.Image, cfg)
		if err != nil {
			return ledgerRow{}, err
		}
		verdicts[i] = "compliant"
		if !rep.Compliant {
			verdicts[i] = "rejected"
			if rep.Violation != nil {
				verdicts[i] += " by " + rep.Violation.Module
			}
		}
		policy[i], reused = counter.Cycles(cycles.PhasePolicy), rep.CachedFunctions
	}
	if verdicts[1] != verdicts[0] {
		return ledgerRow{}, fmt.Errorf("bench: %s %s: warm verdict %q differs from cold %q",
			exp, spec.Name, verdicts[1], verdicts[0])
	}
	return ledgerRow{
		Benchmark:  spec.Name,
		Verdict:    verdicts[0],
		ColdPolicy: policy[0],
		WarmPolicy: policy[1],
		Reused:     reused,
	}, nil
}
