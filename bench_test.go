package engarde_test

// This file regenerates every table and figure of the paper's evaluation
// (§5) as Go benchmarks:
//
//	BenchmarkFig2ComponentSizes — Figure 2 (component LOC table)
//	BenchmarkFig3/<benchmark>   — Figure 3 (library-linking policy)
//	BenchmarkFig4/<benchmark>   — Figure 4 (stack-protection policy)
//	BenchmarkFig5/<benchmark>   — Figure 5 (IFCC policy)
//
// Each Fig3-5 benchmark runs the full EnGarde pipeline (enclave creation,
// staging, disassembly, policy check, load) over the named workload and
// reports the paper's three cycle columns as benchmark metrics, so
// `go test -bench .` prints the whole evaluation. cmd/engarde-bench prints
// the same data formatted like the paper's tables.
//
// The Ablation benchmarks quantify the design decisions called out in
// DESIGN.md §5: instruction-buffer retention mode, malloc batching, and
// the stack-protection scan strategy.

import (
	"runtime"
	"testing"

	"engarde/internal/bench"
	"engarde/internal/core"
	"engarde/internal/cycles"
	"engarde/internal/elf64"
	"engarde/internal/policy"
	"engarde/internal/policy/stackprot"
	"engarde/internal/sgx"
	"engarde/internal/toolchain"
	"engarde/internal/workload"
	"engarde/internal/x86"
)

func benchmarkFigure(b *testing.B, exp bench.Experiment) {
	for _, spec := range workload.Specs() {
		spec := spec
		b.Run(spec.Name, func(b *testing.B) {
			var row bench.Row
			for i := 0; i < b.N; i++ {
				var err error
				row, err = bench.Run(exp, spec)
				if err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(row.NumInsts), "insts")
			b.ReportMetric(float64(row.Disassembly), "disasm-cycles")
			b.ReportMetric(float64(row.PolicyChecking), "policy-cycles")
			b.ReportMetric(float64(row.LoadReloc), "load-cycles")
		})
	}
}

// BenchmarkFig3 regenerates Figure 3: the library-linking policy.
func BenchmarkFig3(b *testing.B) { benchmarkFigure(b, bench.Fig3) }

// BenchmarkFig4 regenerates Figure 4: the stack-protection policy.
func BenchmarkFig4(b *testing.B) { benchmarkFigure(b, bench.Fig4) }

// BenchmarkFig5 regenerates Figure 5: the IFCC policy.
func BenchmarkFig5(b *testing.B) { benchmarkFigure(b, bench.Fig5) }

// BenchmarkFig2ComponentSizes regenerates Figure 2: component sizes.
func BenchmarkFig2ComponentSizes(b *testing.B) {
	var total int
	for i := 0; i < b.N; i++ {
		loc, err := bench.CountLOC(".", []string{
			"internal/core", "internal/loader", "internal/policy/liblink",
			"internal/policy/stackprot", "internal/policy/ifcc",
			"internal/secchan", "internal/x86",
		})
		if err != nil {
			b.Fatal(err)
		}
		total = loc
	}
	b.ReportMetric(float64(total), "loc")
}

//
// Ablation benchmarks (DESIGN.md §5).
//

// ablationClient builds a mid-size client for the ablation benches.
func ablationClient(b *testing.B, sp bool) []byte {
	b.Helper()
	bin, err := toolchain.Build(toolchain.Config{
		Name: "abl", Seed: 81, NumFuncs: 60, AvgFuncInsts: 200,
		LibcCallRate: 0.05, StackProtector: sp,
	})
	if err != nil {
		b.Fatal(err)
	}
	return bin.Image
}

// runCore provisions image under the given core config and returns the
// counter.
func runCore(b *testing.B, cfg core.Config, image []byte) *cycles.Counter {
	b.Helper()
	ctr := cycles.NewCounter(cycles.DefaultModel())
	cfg.Counter = ctr
	cfg.EPCPages = 8192
	cfg.HeapPages = 2500
	cfg.ClientPages = 512
	g, err := core.New(cfg)
	if err != nil {
		b.Fatal(err)
	}
	rep, err := g.Provision(image)
	if err != nil {
		b.Fatal(err)
	}
	if !rep.Compliant {
		b.Fatalf("rejected: %s", rep.Reason)
	}
	return ctr
}

// BenchmarkAblationMallocBatch quantifies the paper's §4 optimization:
// allocating the instruction buffer a page at a time instead of per
// instruction record. The per-record variant pays one OpenSGX trampoline
// (2 × 10K cycles) per instruction.
func BenchmarkAblationMallocBatch(b *testing.B) {
	image := ablationClient(b, false)
	b.Run("per-page", func(b *testing.B) {
		var cyc uint64
		for i := 0; i < b.N; i++ {
			ctr := runCore(b, core.Config{}, image)
			cyc = ctr.Cycles(cycles.PhaseDisasm)
		}
		b.ReportMetric(float64(cyc), "disasm-cycles")
	})
	b.Run("per-instruction", func(b *testing.B) {
		var cyc uint64
		for i := 0; i < b.N; i++ {
			ctr := runCore(b, core.Config{MallocPerInst: true}, image)
			cyc = ctr.Cycles(cycles.PhaseDisasm)
		}
		b.ReportMetric(float64(cyc), "disasm-cycles")
	})
}

// BenchmarkAblationBufferMode compares EnGarde's full instruction buffer
// against NaCl's sliding window (which could not support the policy
// modules, but bounds memory).
func BenchmarkAblationBufferMode(b *testing.B) {
	image := ablationClient(b, false)
	for _, mode := range []struct {
		name string
		m    core.BufferMode
	}{{"full-buffer", core.FullBuffer}, {"sliding-window", core.SlidingWindow}} {
		mode := mode
		b.Run(mode.name, func(b *testing.B) {
			var heap uint64
			for i := 0; i < b.N; i++ {
				ctr := cycles.NewCounter(cycles.DefaultModel())
				g, err := core.New(core.Config{
					Counter: ctr, BufferMode: mode.m,
					EPCPages: 8192, HeapPages: 2500, ClientPages: 512,
				})
				if err != nil {
					b.Fatal(err)
				}
				rep, err := g.Provision(image)
				if err != nil {
					b.Fatal(err)
				}
				if !rep.Compliant {
					b.Fatalf("rejected: %s", rep.Reason)
				}
				heap = rep.HeapBytes
			}
			b.ReportMetric(float64(heap), "heap-bytes")
		})
	}
}

// BenchmarkAblationStackprotEarlyExit compares the paper-faithful
// exhaustive candidate scan against the early-exit optimization.
func BenchmarkAblationStackprotEarlyExit(b *testing.B) {
	spec, err := workload.ByName("401.bzip2") // the worst case: giant functions
	if err != nil {
		b.Fatal(err)
	}
	bin, err := spec.Build(workload.StackProtected)
	if err != nil {
		b.Fatal(err)
	}
	for _, variant := range []struct {
		name      string
		earlyExit bool
	}{{"exhaustive", false}, {"early-exit", true}} {
		variant := variant
		b.Run(variant.name, func(b *testing.B) {
			var cyc uint64
			for i := 0; i < b.N; i++ {
				mod := stackprot.New()
				mod.EarlyExit = variant.earlyExit
				ctr := cycles.NewCounter(cycles.DefaultModel())
				g, err := core.New(core.Config{
					Counter: ctr, Policies: policy.NewSet(mod),
					EPCPages: sgx.ModifiedEPCPages, HeapPages: sgx.ModifiedHeapPages, ClientPages: 1024,
				})
				if err != nil {
					b.Fatal(err)
				}
				rep, err := g.Provision(bin.Image)
				if err != nil {
					b.Fatal(err)
				}
				if !rep.Compliant {
					b.Fatalf("rejected: %s", rep.Reason)
				}
				cyc = ctr.Cycles(cycles.PhasePolicy)
			}
			b.ReportMetric(float64(cyc), "policy-cycles")
		})
	}
}

// BenchmarkAblationEPCPaging contrasts the paper's fix for EPC pressure
// (enlarge the emulated EPC, §4) with the OS alternative (demand-page it):
// same enclave, same client, reporting SGX-instruction counts. Paging
// keeps the stock 2000-page EPC but pays one 10K-cycle SGX instruction per
// EWB/ELDU.
func BenchmarkAblationEPCPaging(b *testing.B) {
	image := ablationClient(b, false)
	for _, mode := range []struct {
		name     string
		epcPages int
		paging   bool
	}{
		{"enlarged-epc(paper)", 8192, false},
		{"stock-epc+paging", sgx.DefaultEPCPages, true},
	} {
		mode := mode
		b.Run(mode.name, func(b *testing.B) {
			var sgxInstr uint64
			for i := 0; i < b.N; i++ {
				ctr := cycles.NewCounter(cycles.DefaultModel())
				g, err := core.New(core.Config{
					Counter: ctr, EPCPages: mode.epcPages,
					HeapPages: 2500, ClientPages: 512,
					EnableEPCPaging: mode.paging,
				})
				if err != nil {
					b.Fatal(err)
				}
				rep, err := g.Provision(image)
				if err != nil {
					b.Fatal(err)
				}
				if !rep.Compliant {
					b.Fatal(rep.Reason)
				}
				sgxInstr = ctr.Units(cycles.PhaseProvision, cycles.UnitSGXInstr) +
					ctr.Units(cycles.PhaseDisasm, cycles.UnitSGXInstr)
			}
			b.ReportMetric(float64(sgxInstr), "sgx-instrs")
		})
	}
}

// BenchmarkDisassemblerThroughput measures the real (wall-clock) decode
// rate of the NaCl-style disassembler on generated code, per byte and per
// instruction (ns/inst, B/inst).
func BenchmarkDisassemblerThroughput(b *testing.B) {
	bin, err := toolchain.Build(toolchain.Config{
		Name: "thr", Seed: 82, NumFuncs: 100, AvgFuncInsts: 200,
	})
	if err != nil {
		b.Fatal(err)
	}
	f, err := elf64.Parse(bin.Image)
	if err != nil {
		b.Fatal(err)
	}
	text := f.Section(".text")
	b.SetBytes(int64(len(text.Data)))
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		insts, err := x86.DecodeAll(text.Data, text.Addr)
		if err != nil {
			b.Fatal(err)
		}
		if len(insts) != bin.NumInsts {
			b.Fatalf("decoded %d, want %d", len(insts), bin.NumInsts)
		}
	}
	b.StopTimer()
	runtime.ReadMemStats(&after)
	n := float64(b.N) * float64(bin.NumInsts)
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/n, "ns/inst")
	b.ReportMetric(float64(after.TotalAlloc-before.TotalAlloc)/n, "B/inst")
}

// BenchmarkProvisionWallClock measures real end-to-end provisioning time
// (not model cycles) for a small client — the only latency EnGarde ever
// adds, since it imposes zero runtime overhead after provisioning.
func BenchmarkProvisionWallClock(b *testing.B) {
	image := ablationClient(b, false)
	for i := 0; i < b.N; i++ {
		g, err := core.New(core.Config{EPCPages: 8192, HeapPages: 2500, ClientPages: 512})
		if err != nil {
			b.Fatal(err)
		}
		rep, err := g.Provision(image)
		if err != nil {
			b.Fatal(err)
		}
		if !rep.Compliant {
			b.Fatal(rep.Reason)
		}
	}
}

// BenchmarkPooledProvision measures enclave acquisition:
//
//	fresh   — the measured build (ECREATE + EADD/EEXTEND of every page +
//	          EINIT + keygen), what every session paid before templates.
//	clone   — snapshot restore into fresh EPC slots + fresh keygen, what
//	          every gateway session pays.
//	recycle — in-place scrub back to the snapshot + fresh keygen, what a
//	          warm pool paid to reuse a returned enclave.
//
// clone and recycle cost about the same, which is why the gateway clones
// per session and keeps no pool (EXPERIMENTS.md, "One enclave path").
func BenchmarkPooledProvision(b *testing.B) {
	const heapPages, clientPages = 1500, 512
	cfg := core.Config{EPCPages: 16384, HeapPages: heapPages, ClientPages: clientPages}
	b.Run("fresh", func(b *testing.B) {
		dev, err := sgx.NewDevice(sgx.Config{EPCPages: 16384, Version: sgx.V2})
		if err != nil {
			b.Fatal(err)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			g, err := core.NewOnDevice(cfg, dev)
			if err != nil {
				b.Fatal(err)
			}
			g.Destroy()
		}
	})
	b.Run("clone", func(b *testing.B) {
		dev, err := sgx.NewDevice(sgx.Config{EPCPages: 16384, Version: sgx.V2})
		if err != nil {
			b.Fatal(err)
		}
		snap, err := core.NewSnapshotter(cfg, dev)
		if err != nil {
			b.Fatal(err)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			g, err := snap.Clone(nil)
			if err != nil {
				b.Fatal(err)
			}
			g.Destroy()
		}
	})
	b.Run("recycle", func(b *testing.B) {
		dev, err := sgx.NewDevice(sgx.Config{EPCPages: 16384, Version: sgx.V2})
		if err != nil {
			b.Fatal(err)
		}
		snap, err := core.NewSnapshotter(cfg, dev)
		if err != nil {
			b.Fatal(err)
		}
		g, err := snap.Clone(nil)
		if err != nil {
			b.Fatal(err)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			g, err = snap.Recycle(g)
			if err != nil {
				b.Fatal(err)
			}
		}
	})
}
