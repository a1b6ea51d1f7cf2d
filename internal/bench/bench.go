// Package bench regenerates the paper's evaluation tables (Figures 3, 4
// and 5): for each of the seven benchmarks it builds the appropriately
// instrumented binary with the synthetic toolchain, runs it through a
// fresh EnGarde enclave with the experiment's policy module, and reports
// the per-phase CPU-cycle columns exactly as the paper does. Figure 2
// (component sizes) is regenerated by the loc sub-tool in
// cmd/engarde-bench.
package bench

import (
	"fmt"
	"strings"

	"engarde/internal/core"
	"engarde/internal/cycles"
	"engarde/internal/policy"
	"engarde/internal/policy/ifcc"
	"engarde/internal/policy/liblink"
	"engarde/internal/policy/stackprot"
	"engarde/internal/sgx"
	"engarde/internal/toolchain"
	"engarde/internal/workload"
)

// Experiment identifies one of the paper's performance tables.
type Experiment int

// The paper's three performance experiments.
const (
	// Fig3 is the library-linking policy experiment.
	Fig3 Experiment = iota + 3
	// Fig4 is the stack-protection policy experiment.
	Fig4
	// Fig5 is the indirect function-call (IFCC) policy experiment.
	Fig5
)

func (e Experiment) String() string {
	switch e {
	case Fig3:
		return "Figure 3: Library-linking policy"
	case Fig4:
		return "Figure 4: Stack-protection policy"
	case Fig5:
		return "Figure 5: Indirect function-call policy"
	default:
		return fmt.Sprintf("Experiment(%d)", int(e))
	}
}

// Variant returns the build instrumentation the experiment's clients use.
func (e Experiment) Variant() workload.Variant {
	switch e {
	case Fig4:
		return workload.StackProtected
	case Fig5:
		return workload.IFCCProtected
	default:
		return workload.Plain
	}
}

// policies builds the experiment's policy set.
func (e Experiment) policies() (*policy.Set, error) {
	switch e {
	case Fig3:
		db, err := toolchain.MuslHashDB(toolchain.MuslV105, false)
		if err != nil {
			return nil, err
		}
		m := liblink.New("musl-libc v1.0.5", db)
		m.RequireUse = true
		return policy.NewSet(m), nil
	case Fig4:
		return policy.NewSet(stackprot.New()), nil
	case Fig5:
		return policy.NewSet(ifcc.New()), nil
	default:
		return nil, fmt.Errorf("bench: unknown experiment %d", int(e))
	}
}

// Row is one benchmark line of a performance table, in the paper's
// column order. All cycle figures use the paper's cost methodology
// (internal/cycles).
type Row struct {
	Benchmark      string
	NumInsts       int
	Disassembly    uint64
	PolicyChecking uint64
	LoadReloc      uint64
}

// Run executes one experiment for one benchmark spec.
func Run(exp Experiment, spec workload.Spec) (Row, error) {
	bin, err := spec.Build(exp.Variant())
	if err != nil {
		return Row{}, err
	}
	pols, err := exp.policies()
	if err != nil {
		return Row{}, err
	}
	rep, counter, err := provision(spec.Name, bin.Image, core.Config{Policies: pols})
	if err != nil {
		return Row{}, err
	}
	if !rep.Compliant {
		return Row{}, fmt.Errorf("bench: %s unexpectedly rejected: %s", spec.Name, rep.Reason)
	}
	return Row{
		Benchmark:      spec.Name,
		NumInsts:       rep.NumInsts,
		Disassembly:    counter.Cycles(cycles.PhaseDisasm),
		PolicyChecking: counter.Cycles(cycles.PhasePolicy),
		LoadReloc:      counter.Cycles(cycles.PhaseLoad),
	}, nil
}

// provision runs image through a fresh enclave at the paper's OpenSGX
// setting, with cfg supplying the policies and any worker or memo options,
// and returns the report and the cycles that enclave charged.
func provision(name string, image []byte, cfg core.Config) (*core.Report, *cycles.Counter, error) {
	counter := cycles.NewCounter(cycles.DefaultModel())
	cfg.Version = sgx.V2
	cfg.EPCPages = sgx.ModifiedEPCPages
	cfg.HeapPages = sgx.ModifiedHeapPages
	cfg.ClientPages = 1024
	cfg.Counter = counter
	g, err := core.New(cfg)
	if err != nil {
		return nil, nil, fmt.Errorf("bench: creating enclave for %s: %w", name, err)
	}
	rep, err := g.Provision(image)
	if err != nil {
		return nil, nil, fmt.Errorf("bench: provisioning %s: %w", name, err)
	}
	return rep, counter, nil
}

// RunAll executes one experiment over all seven paper benchmarks.
func RunAll(exp Experiment) ([]Row, error) {
	specs := workload.Specs()
	rows := make([]Row, 0, len(specs))
	for _, s := range specs {
		r, err := Run(exp, s)
		if err != nil {
			return nil, err
		}
		rows = append(rows, r)
	}
	return rows, nil
}

// Paper reference values, for side-by-side reporting. Keyed by benchmark
// name; the struct reuses Row with the paper's numbers.
var (
	// PaperFig3 is Figure 3 of the paper (library-linking policy).
	PaperFig3 = map[string]Row{
		"Nginx":     {NumInsts: 262_228, Disassembly: 694_405_019, PolicyChecking: 1_307_411_662, LoadReloc: 128_696},
		"401.bzip2": {NumInsts: 24_112, Disassembly: 34_071_240, PolicyChecking: 148_922_245, LoadReloc: 4_239},
		"Graph-500": {NumInsts: 100_411, Disassembly: 140_307_017, PolicyChecking: 246_669_796, LoadReloc: 4_582},
		"429.mcf":   {NumInsts: 12_903, Disassembly: 18_242_127, PolicyChecking: 123_895_553, LoadReloc: 4_363},
		"Memcached": {NumInsts: 71_437, Disassembly: 137_372_517, PolicyChecking: 489_914_732, LoadReloc: 8_115},
		"Netperf":   {NumInsts: 51_403, Disassembly: 90_616_563, PolicyChecking: 367_356_878, LoadReloc: 18_090},
		"Otp-gen":   {NumInsts: 28_125, Disassembly: 42_823_024, PolicyChecking: 198_587_525, LoadReloc: 5_388},
	}

	// PaperFig4 is Figure 4 (stack-protection policy).
	PaperFig4 = map[string]Row{
		"Nginx":     {NumInsts: 271_106, Disassembly: 719_360_640, PolicyChecking: 713_772_098, LoadReloc: 128_662},
		"401.bzip2": {NumInsts: 24_226, Disassembly: 34_292_136, PolicyChecking: 862_023_613, LoadReloc: 4_206},
		"Graph-500": {NumInsts: 100_488, Disassembly: 140_588_361, PolicyChecking: 195_218_892, LoadReloc: 4_548},
		"429.mcf":   {NumInsts: 12_985, Disassembly: 18_288_921, PolicyChecking: 31_459_881, LoadReloc: 4_330},
		"Memcached": {NumInsts: 71_677, Disassembly: 137_877_497, PolicyChecking: 325_442_403, LoadReloc: 8_081},
		"Netperf":   {NumInsts: 51_868, Disassembly: 91_577_335, PolicyChecking: 183_274_713, LoadReloc: 18_057},
		"Otp-gen":   {NumInsts: 28_217, Disassembly: 43_053_386, PolicyChecking: 217_302_816, LoadReloc: 5_355},
	}

	// PaperFig5 is Figure 5 (IFCC policy).
	PaperFig5 = map[string]Row{
		"Nginx":     {NumInsts: 267_669, Disassembly: 821_734_999, PolicyChecking: 20_843_253, LoadReloc: 128_668},
		"401.bzip2": {NumInsts: 24_201, Disassembly: 34_235_817, PolicyChecking: 1_751_276, LoadReloc: 4_206},
		"Graph-500": {NumInsts: 100_424, Disassembly: 140_429_738, PolicyChecking: 7_014_913, LoadReloc: 4_548},
		"429.mcf":   {NumInsts: 12_903, Disassembly: 18_242_127, PolicyChecking: 1_177_429, LoadReloc: 4_330},
		"Memcached": {NumInsts: 71_508, Disassembly: 138_231_446, PolicyChecking: 5_301_168, LoadReloc: 8_081},
		"Netperf":   {NumInsts: 51_431, Disassembly: 91_161_601, PolicyChecking: 3_775_318, LoadReloc: 18_057},
		"Otp-gen":   {NumInsts: 28_132, Disassembly: 42_829_680, PolicyChecking: 2_334_847, LoadReloc: 5_355},
	}
)

// PaperRows returns the paper's table for the experiment.
func PaperRows(exp Experiment) map[string]Row {
	switch exp {
	case Fig3:
		return PaperFig3
	case Fig4:
		return PaperFig4
	case Fig5:
		return PaperFig5
	default:
		return nil
	}
}

// FormatTable renders measured rows alongside the paper's, with ratios.
func FormatTable(exp Experiment, rows []Row) string {
	var b strings.Builder
	paper := PaperRows(exp)
	fmt.Fprintf(&b, "%s\n", exp)
	fmt.Fprintf(&b, "%-10s %9s %15s %15s %12s   %s\n",
		"Benchmark", "#Inst.", "Disassembly", "PolicyCheck", "Load+Reloc", "(ratio vs paper: inst/dis/pol/load)")
	for _, r := range rows {
		p, ok := paper[r.Benchmark]
		ratio := func(m, q uint64) string {
			if q == 0 {
				return "-"
			}
			return fmt.Sprintf("%.2f", float64(m)/float64(q))
		}
		ratios := "-"
		if ok {
			ratios = fmt.Sprintf("%s / %s / %s / %s",
				ratio(uint64(r.NumInsts), uint64(p.NumInsts)),
				ratio(r.Disassembly, p.Disassembly),
				ratio(r.PolicyChecking, p.PolicyChecking),
				ratio(r.LoadReloc, p.LoadReloc))
		}
		fmt.Fprintf(&b, "%-10s %9d %15d %15d %12d   %s\n",
			r.Benchmark, r.NumInsts, r.Disassembly, r.PolicyChecking, r.LoadReloc, ratios)
	}
	return b.String()
}
