// Package toolchain is the synthetic clang/LLVM + musl-libc + static linker
// of this reproduction. The paper compiles real applications (Nginx, SPEC,
// Memcached, ...) with clang/LLVM-3.6 as statically-linked position-
// independent executables against musl-libc 1.0.5, optionally instrumented
// with -fstack-protector-all or IFCC. Proprietary sources and a C compiler
// are not available here, so this package generates x86-64 machine code
// with the same structural properties the EnGarde pipeline inspects:
//
//   - real, decodable x86-64 instructions laid out under NaCl bundle rules;
//   - a call graph of app functions over a self-contained musl archive;
//   - ELF64 PIE images with symbol tables, .dynamic and RELA relocations;
//   - faithful Clang canary instrumentation and LLVM IFCC jump tables.
//
// Binaries are deterministic in Config.Seed, so experiments are exactly
// reproducible.
package toolchain

import (
	"encoding/binary"
	"fmt"
	"math/rand"

	"engarde/internal/elf64"
	"engarde/internal/x86"
)

// TextBase is the virtual address of .text in generated PIEs.
const TextBase = 0x1000

// JumpTableSymbolPrefix is the LLVM IFCC jump-table symbol prefix the
// policy module keys on.
const JumpTableSymbolPrefix = "__llvm_jump_instr_table_0_"

// Config describes one binary to build.
type Config struct {
	// Name is the program name (for symbols and diagnostics).
	Name string
	// Seed makes the build deterministic.
	Seed int64

	// MuslVersion selects the libc build; MuslV105 if empty.
	MuslVersion string
	// StackProtector applies Clang -fstack-protector-all instrumentation
	// to every function (app and libc).
	StackProtector bool
	// IFCC applies LLVM indirect function-call checks: call sites get the
	// lea/sub/and/add guard and indirect targets move behind a jump table.
	IFCC bool
	// Strip omits the symbol table (EnGarde auto-rejects such binaries).
	Strip bool
	// MixedCodeData embeds raw data bytes inside .text, violating
	// EnGarde's code/data page-separation requirement.
	MixedCodeData bool
	// EmitSyscall plants a SYSCALL instruction in one function — illegal
	// inside an enclave; for exercising the forbidden-instruction policy.
	EmitSyscall bool
	// ASan applies simplified AddressSanitizer instrumentation: every
	// frame-slot store is preceded by a shadow-byte check (the "other
	// tools, such as Google's AddressSanitizer" customization §5
	// mentions).
	ASan bool

	// NumFuncs is the number of application functions besides _start/main.
	NumFuncs int
	// AvgFuncInsts is the mean body size of an app function in
	// instructions; actual sizes vary by FuncSizeVariance.
	AvgFuncInsts int
	// FuncSizeVariance is the relative spread of function sizes (0..1).
	FuncSizeVariance float64
	// LibcCallRate is the fraction of body slots that become direct calls
	// into musl.
	LibcCallRate float64
	// LibcHot is the set of musl functions the program calls; defaults to
	// a realistic mix of small string/memory helpers and large formatted-
	// I/O and allocator routines.
	LibcHot []string
	// AppCallRate is the fraction of body slots that become direct calls
	// to other app functions.
	AppCallRate float64
	// IndirectRate is the fraction of body slots that become indirect
	// call sites.
	IndirectRate float64
	// NumIndirectTargets is how many app functions are indirect-callable
	// (the jump-table population under IFCC).
	NumIndirectTargets int

	// NumDataRelocs is the number of function-pointer words in .data, each
	// of which needs an R_X86_64_RELATIVE relocation.
	NumDataRelocs int
	// DataBytes is the size of the plain .data payload.
	DataBytes int
	// BssBytes is the .bss size.
	BssBytes int
}

// applyDefaults fills zero fields with small defaults.
func (c *Config) applyDefaults() {
	if c.MuslVersion == "" {
		c.MuslVersion = MuslV105
	}
	if c.NumFuncs == 0 {
		c.NumFuncs = 8
	}
	if c.AvgFuncInsts == 0 {
		c.AvgFuncInsts = 60
	}
	if c.LibcCallRate == 0 {
		c.LibcCallRate = 0.04
	}
	if c.AppCallRate == 0 {
		c.AppCallRate = 0.02
	}
	if c.NumIndirectTargets == 0 {
		c.NumIndirectTargets = 4
	}
	if c.DataBytes == 0 {
		c.DataBytes = 512
	}
	if c.BssBytes == 0 {
		c.BssBytes = 4096
	}
}

// Binary is a built executable plus build metadata used by the benchmark
// tables.
type Binary struct {
	Name  string
	Image []byte

	// NumInsts is the number of instructions emitted into .text (the
	// "#Inst." column of the paper's figures).
	NumInsts int
	// TextSize and DataSize are section sizes in bytes.
	TextSize int
	DataSize int
	// NumFuncs is the number of function symbols.
	NumFuncs int
	// NumRelocs is the number of dynamic relocations.
	NumRelocs int
	// JumpTableAddr/JumpTableSize describe the IFCC jump table (zero when
	// IFCC is off).
	JumpTableAddr uint64
	JumpTableSize uint64
}

// nextPow2 returns the smallest power of two ≥ n (minimum 2).
func nextPow2(n int) int {
	p := 2
	for p < n {
		p <<= 1
	}
	return p
}

// Build generates a complete ELF64 PIE according to cfg.
func Build(cfg Config) (*Binary, error) {
	cfg.applyDefaults()
	rng := rand.New(rand.NewSource(cfg.Seed))

	musl, err := buildMusl(cfg.MuslVersion, genOptions{stackProtector: cfg.StackProtector})
	if err != nil {
		return nil, err
	}

	// Plan the app shape.
	fnNames := make([]string, cfg.NumFuncs)
	fnSizes := make([]int, cfg.NumFuncs)
	for i := range fnNames {
		fnNames[i] = fmt.Sprintf("%s_fn_%03d", cfg.Name, i)
		spread := 1.0
		if cfg.FuncSizeVariance > 0 {
			spread = 1 + cfg.FuncSizeVariance*(2*rng.Float64()-1)
		}
		fnSizes[i] = int(float64(cfg.AvgFuncInsts) * spread)
		if fnSizes[i] < 4 {
			fnSizes[i] = 4
		}
	}
	// Indirect-callable functions are the LAST NumIndirectTargets app
	// functions, and only earlier functions emit indirect calls to them —
	// together with the forward-only direct-call rule this keeps the call
	// graph acyclic, so generated programs terminate.
	indirectTargets := fnNames
	if cfg.NumIndirectTargets < len(fnNames) {
		indirectTargets = fnNames[len(fnNames)-cfg.NumIndirectTargets:]
	}
	firstIndirectTarget := len(fnNames) - len(indirectTargets)

	// IFCC jump table geometry: 8-byte slots, power-of-two slot count,
	// mask = tableBytes - 8 (the paper's 0x1ff8 corresponds to 1024 slots).
	slots := nextPow2(len(indirectTargets))
	tableBytes := slots * 8
	opt := genOptions{
		stackProtector: cfg.StackProtector,
		ifcc:           cfg.IFCC,
		ifccTableSym:   JumpTableSymbolPrefix + "0",
		ifccMask:       int32(tableBytes - 8),
		asan:           cfg.ASan,
	}

	// Indirect call sites point at jump-table entries under IFCC, at the
	// functions themselves otherwise.
	callTargets := make([]string, len(indirectTargets))
	for i := range indirectTargets {
		if cfg.IFCC {
			callTargets[i] = fmt.Sprintf("%s%d", JumpTableSymbolPrefix, i)
		} else {
			callTargets[i] = indirectTargets[i]
		}
	}

	dataSyms := []string{"g_table", "g_buf", "g_state"}

	// Generate _start, main, the app functions and (under IFCC) the jump
	// table into one emitter; everything except musl calls and data
	// references resolves locally.
	var e emitter
	type placed struct {
		name       string
		start, end int
	}
	var appFuncs []placed

	mark := func(name string, start int) {
		appFuncs = append(appFuncs, placed{name: name, start: start})
		if n := len(appFuncs); n > 1 {
			appFuncs[n-2].end = start
		}
	}

	// _start: call main, call exit, trap. Under -fstack-protector-all even
	// the startup stub carries canary instrumentation, since the policy
	// checks every function symbol.
	e.alignBundle()
	start0 := e.asm.Len()
	e.asm.Label("_start")
	e.emit(func(a *x86.Assembler) { a.SubRegImm8(x86.RegSP, frameSize) })
	if cfg.StackProtector {
		e.emit(func(a *x86.Assembler) { a.MovRegFS(x86.RegAX, 0x28) })
		e.emit(func(a *x86.Assembler) { a.MovMemReg(x86.Mem{Base: x86.RegSP, Index: x86.RegNone}, x86.RegAX) })
	}
	e.emit(func(a *x86.Assembler) { a.CallSym("main") })
	e.emit(func(a *x86.Assembler) { a.XorRegReg(x86.RegDI, x86.RegDI) })
	e.emit(func(a *x86.Assembler) { a.CallSym("exit") })
	if cfg.StackProtector {
		e.emit(func(a *x86.Assembler) { a.MovRegFS(x86.RegAX, 0x28) })
		e.emit(func(a *x86.Assembler) { a.CmpRegMem(x86.RegAX, x86.Mem{Base: x86.RegSP, Index: x86.RegNone}) })
		e.emit(func(a *x86.Assembler) { a.JccLabel(x86.CondNE, "_start_stackfail") })
	}
	e.emit(func(a *x86.Assembler) { a.AddRegImm8(x86.RegSP, frameSize) })
	e.emit(func(a *x86.Assembler) { a.Ud2() })
	if cfg.StackProtector {
		e.asm.Label("_start_stackfail")
		e.emit(func(a *x86.Assembler) { a.CallSym("__stack_chk_fail") })
		e.emit(func(a *x86.Assembler) { a.Ud2() })
	}
	mark("_start", start0)

	libcHot := cfg.LibcHot
	if len(libcHot) == 0 {
		libcHot = []string{
			"memcpy", "strlen", "printf", "malloc", "free", "memset",
			"strcmp", "snprintf", "vfprintf", "qsort", "strtol", "realloc",
		}
	}

	// main calls a selection of app functions and libc.
	mainCallees := append([]string{}, fnNames...)
	if len(mainCallees) > 12 {
		mainCallees = mainCallees[:12]
	}
	mainCallees = append(mainCallees, "printf", "malloc")
	if cfg.EmitSyscall {
		mainCallees = append(mainCallees, "raw_syscall")
	}
	mainStart := e.genFunction(funcSpec{
		name:          "main",
		bodyInsts:     40 + rng.Intn(30),
		directCallees: mainCallees,
		callRate:      0.3,
		dataSyms:      dataSyms,
	}, opt, rng)
	mark("main", mainStart)

	if cfg.EmitSyscall {
		// A wrapper containing a SYSCALL instruction — illegal in-enclave.
		e.alignBundle()
		sysStart := e.asm.Len()
		e.asm.Label("raw_syscall")
		e.emit(func(a *x86.Assembler) { a.MovRegReg(x86.RegAX, x86.RegDI) })
		e.emit(func(a *x86.Assembler) { a.Syscall() })
		e.emit(func(a *x86.Assembler) { a.Ret() })
		mark("raw_syscall", sysStart)
	}

	if cfg.ASan {
		// The sanitizer's report function: never returns. Under
		// -fstack-protector-all it carries the canary pattern like every
		// other function.
		e.alignBundle()
		repStart := e.asm.Len()
		e.asm.Label(ASanReportSym)
		e.emit(func(a *x86.Assembler) { a.SubRegImm8(x86.RegSP, frameSize) })
		if cfg.StackProtector {
			e.emit(func(a *x86.Assembler) { a.MovRegFS(x86.RegAX, 0x28) })
			e.emit(func(a *x86.Assembler) { a.MovMemReg(x86.Mem{Base: x86.RegSP, Index: x86.RegNone}, x86.RegAX) })
		}
		e.emit(func(a *x86.Assembler) { a.CallSym("abort") })
		if cfg.StackProtector {
			e.emit(func(a *x86.Assembler) { a.MovRegFS(x86.RegAX, 0x28) })
			e.emit(func(a *x86.Assembler) { a.CmpRegMem(x86.RegAX, x86.Mem{Base: x86.RegSP, Index: x86.RegNone}) })
			e.emit(func(a *x86.Assembler) { a.JccLabel(x86.CondNE, "asan_report_stackfail") })
		}
		e.emit(func(a *x86.Assembler) { a.AddRegImm8(x86.RegSP, frameSize) })
		e.emit(func(a *x86.Assembler) { a.Ud2() })
		if cfg.StackProtector {
			e.asm.Label("asan_report_stackfail")
			e.emit(func(a *x86.Assembler) { a.CallSym("__stack_chk_fail") })
			e.emit(func(a *x86.Assembler) { a.Ud2() })
		}
		mark(ASanReportSym, repStart)
	}

	for i, name := range fnNames {
		// Per-function callee mix: libc round-robin + a couple of app
		// neighbours, proportioned to the configured rates.
		var callees []string
		total := cfg.LibcCallRate + cfg.AppCallRate
		if total > 0 {
			nLibc := 1 + rng.Intn(3)
			for k := 0; k < nLibc; k++ {
				callees = append(callees, libcHot[rng.Intn(len(libcHot))])
			}
			// App-internal calls form a forward DAG (fn_i may call only
			// fn_j with j > i), so generated programs terminate: there is
			// no recursion and local branches are forward-only.
			if cfg.AppCallRate > 0 && i+1 < cfg.NumFuncs {
				callees = append(callees, fnNames[i+1])
			}
		}
		fs := funcSpec{
			name:          name,
			bodyInsts:     fnSizes[i],
			directCallees: callees,
			callRate:      total,
			dataSyms:      dataSyms,
		}
		// Only functions outside the indirect-target set make indirect
		// calls (acyclicity).
		if i < firstIndirectTarget {
			fs.indirectTargets = callTargets
			fs.indirectRate = cfg.IndirectRate
		}
		start := e.genFunction(fs, opt, rng)
		mark(name, start)
	}

	// IFCC jump table: aligned to its own size so the and-mask stays
	// in-range, one 8-byte slot per target: jmpq <fn>; nopl (%rax).
	var tableStart int
	if cfg.IFCC {
		e.align(tableBytes)
		tableStart = e.asm.Len()
		for i := 0; i < slots; i++ {
			entrySym := fmt.Sprintf("%s%d", JumpTableSymbolPrefix, i)
			target := indirectTargets[i%len(indirectTargets)]
			e.asm.Label(entrySym)
			slotStart := e.asm.Len()
			e.emit(func(a *x86.Assembler) { a.JmpSym(target) })
			e.emit(func(a *x86.Assembler) { a.NopModRM() })
			if e.asm.Len()-slotStart != 8 {
				return nil, fmt.Errorf("toolchain: jump table slot %d is %d bytes, want 8", i, e.asm.Len()-slotStart)
			}
			mark(entrySym, slotStart)
		}
	}
	if len(appFuncs) > 0 {
		appFuncs[len(appFuncs)-1].end = e.asm.Len()
	}

	appBlob, appFixups, err := e.asm.Finish()
	if err != nil {
		return nil, fmt.Errorf("toolchain: linking %s: %w", cfg.Name, err)
	}

	// Layout: [.text: appBlob | pad | musl | (junk)] [.data .rela .dynamic
	// .bss]. The inter-blob padding must itself be valid NOP instructions:
	// EnGarde disassembles the whole text.
	muslStart := (len(appBlob) + BundleSize - 1) / BundleSize * BundleSize
	padInsts := 0
	text := make([]byte, muslStart+len(musl.blob))
	copy(text, appBlob)
	if gap := muslStart - len(appBlob); gap > 0 {
		var pa x86.Assembler
		pa.Nop(gap)
		pad, _, _ := pa.Finish()
		copy(text[len(appBlob):], pad)
		padInsts = nopCount(gap)
	}
	copy(text[muslStart:], musl.blob)
	if cfg.MixedCodeData {
		// Raw string data inside .text: undecodable bytes that violate
		// the code/data separation assumption.
		junk := []byte("\x06\x07\x62internal string table\x00\x00\xc4\xc5\xea mixed data")
		text = append(text, junk...)
	}
	textEnd := TextBase + uint64(len(text))

	// Symbol addresses.
	symAddr := make(map[string]uint64, len(appFuncs)+len(musl.funcs))
	type symDef struct {
		name       string
		addr, size uint64
	}
	var symbols []symDef
	for _, f := range appFuncs {
		a := TextBase + uint64(f.start)
		symAddr[f.name] = a
		symbols = append(symbols, symDef{f.name, a, uint64(f.end - f.start)})
	}
	for _, f := range musl.funcs {
		a := TextBase + uint64(muslStart) + uint64(f.off)
		symAddr[f.name] = a
		symbols = append(symbols, symDef{f.name, a, uint64(f.end - f.off)})
	}

	// Data section: pointer words (relocated), named blobs, payload.
	dataAddr := (textEnd + elf64.PageSize - 1) &^ (elf64.PageSize - 1)
	var data []byte
	var relas []elf64.Rela
	for i := 0; i < cfg.NumDataRelocs; i++ {
		target := symAddr[fnNames[i%len(fnNames)]]
		relas = append(relas, elf64.Rela{
			Off:    dataAddr + uint64(len(data)),
			Info:   uint64(elf64.RX8664Relative),
			Addend: int64(target),
		})
		var word [8]byte
		data = append(data, word[:]...)
	}
	for _, ds := range dataSyms {
		symAddr[ds] = dataAddr + uint64(len(data))
		blob := make([]byte, 64)
		rng.Read(blob)
		data = append(data, blob...)
	}
	var asanShadowAddr uint64
	if cfg.ASan {
		// The shadow region starts clean (all zero = everything
		// addressable).
		asanShadowAddr = dataAddr + uint64(len(data))
		symAddr[ASanShadowSym] = asanShadowAddr
		data = append(data, make([]byte, ASanShadowBytes)...)
	}
	payload := make([]byte, cfg.DataBytes)
	rng.Read(payload)
	data = append(data, payload...)
	for len(data)%8 != 0 { // keep the rela table 8-aligned
		data = append(data, 0)
	}

	relaAddr := dataAddr + uint64(len(data))
	relaBytes := elf64.EncodeRelas(relas)
	dynAddr := relaAddr + uint64(len(relaBytes))
	dynBytes := elf64.EncodeDynamic([]elf64.Dyn{
		{Tag: elf64.DTRela, Val: relaAddr},
		{Tag: elf64.DTRelasz, Val: uint64(len(relaBytes))},
		{Tag: elf64.DTRelaent, Val: elf64.RelaSize},
	})
	bssAddr := (dynAddr + uint64(len(dynBytes)) + 7) &^ 7

	// Resolve the app blob's external fixups now that addresses exist.
	for _, f := range appFixups {
		target, ok := symAddr[f.Sym]
		if !ok {
			return nil, fmt.Errorf("toolchain: %s: undefined symbol %q", cfg.Name, f.Sym)
		}
		fieldAddr := TextBase + uint64(f.Off)
		switch f.Kind {
		case x86.FixupRel32, x86.FixupRIP32:
			rel := int64(target) - int64(fieldAddr+4)
			binary.LittleEndian.PutUint32(text[f.Off:], uint32(rel))
		case x86.FixupAbs64:
			return nil, fmt.Errorf("toolchain: %s: absolute fixup for %q not supported in PIE text", cfg.Name, f.Sym)
		}
	}

	// Assemble the ELF image.
	var b elf64.Builder
	b.Entry = TextBase
	b.AddSection(elf64.BuildSection{Name: ".text", Type: elf64.SHTProgbits,
		Flags: elf64.SHFAlloc | elf64.SHFExecinstr, Addr: TextBase, Data: text, Align: 32})
	b.AddSection(elf64.BuildSection{Name: ".data", Type: elf64.SHTProgbits,
		Flags: elf64.SHFAlloc | elf64.SHFWrite, Addr: dataAddr, Data: data, Align: 8})
	b.AddSection(elf64.BuildSection{Name: ".rela.dyn", Type: elf64.SHTRela,
		Flags: elf64.SHFAlloc | elf64.SHFWrite, Addr: relaAddr, Data: relaBytes,
		Align: 8, Entsize: elf64.RelaSize})
	b.AddSection(elf64.BuildSection{Name: ".dynamic", Type: elf64.SHTDynamic,
		Flags: elf64.SHFAlloc | elf64.SHFWrite, Addr: dynAddr, Data: dynBytes,
		Align: 8, Entsize: elf64.DynSize})
	b.AddSection(elf64.BuildSection{Name: ".bss", Type: elf64.SHTNobits,
		Flags: elf64.SHFAlloc | elf64.SHFWrite, Addr: bssAddr,
		MemSize: uint64(cfg.BssBytes), Align: 8})
	if !cfg.Strip {
		for _, s := range symbols {
			b.AddSymbol(elf64.BuildSymbol{Name: s.name, Value: s.addr, Size: s.size,
				Info: elf64.STBGlobal<<4 | elf64.STTFunc, Section: ".text"})
		}
		for _, ds := range dataSyms {
			b.AddSymbol(elf64.BuildSymbol{Name: ds, Value: symAddr[ds], Size: 64,
				Info: elf64.STBGlobal<<4 | elf64.STTObject, Section: ".data"})
		}
		if cfg.ASan {
			b.AddSymbol(elf64.BuildSymbol{Name: ASanShadowSym, Value: asanShadowAddr,
				Size: ASanShadowBytes, Info: elf64.STBGlobal<<4 | elf64.STTObject, Section: ".data"})
		}
	}
	img, err := b.Build()
	if err != nil {
		return nil, fmt.Errorf("toolchain: building ELF for %s: %w", cfg.Name, err)
	}

	bin := &Binary{
		Name:      cfg.Name,
		Image:     img,
		NumInsts:  e.nInst + padInsts + muslInstCount(musl),
		TextSize:  len(text),
		DataSize:  len(data),
		NumFuncs:  len(symbols),
		NumRelocs: len(relas),
	}
	if cfg.IFCC {
		bin.JumpTableAddr = TextBase + uint64(tableStart)
		bin.JumpTableSize = uint64(tableBytes)
	}
	return bin, nil
}

// muslInstCount re-derives the instruction count of the musl blob; the
// count is cached on first use per (version, stackProtector) pair.
func muslInstCount(mb *muslBuild) int {
	// The blob is fully decodable by construction; count by decoding.
	n := 0
	off := 0
	for off < len(mb.blob) {
		in, err := x86.Decode(mb.blob[off:], uint64(off))
		if err != nil {
			// Cannot happen for generator output; treat the remainder as
			// one unit to keep counts sane if it ever does.
			return n + 1
		}
		off += int(in.Len)
		n++
	}
	return n
}
