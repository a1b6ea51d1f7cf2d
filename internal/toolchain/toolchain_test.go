package toolchain

import (
	"bytes"
	"crypto/sha256"
	"strings"
	"testing"

	"engarde/internal/elf64"
	"engarde/internal/symtab"
	"engarde/internal/x86"
)

func smallConfig() Config {
	return Config{
		Name: "t", Seed: 7,
		NumFuncs: 6, AvgFuncInsts: 50, FuncSizeVariance: 0.5,
		LibcCallRate: 0.05, AppCallRate: 0.02, IndirectRate: 0.01,
		NumIndirectTargets: 3, NumDataRelocs: 5,
	}
}

func build(t *testing.T, cfg Config) *Binary {
	t.Helper()
	bin, err := Build(cfg)
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	return bin
}

func parse(t *testing.T, bin *Binary) *elf64.File {
	t.Helper()
	f, err := elf64.Parse(bin.Image)
	if err != nil {
		t.Fatalf("Parse: %v", err)
	}
	return f
}

func TestBuildProducesValidPIE(t *testing.T) {
	bin := build(t, smallConfig())
	f := parse(t, bin)
	if err := f.VerifyPIE(); err != nil {
		t.Fatalf("VerifyPIE: %v", err)
	}
	if f.Header.Entry != TextBase {
		t.Errorf("entry = %#x", f.Header.Entry)
	}
	texts := f.TextSections()
	if len(texts) != 1 {
		t.Fatalf("%d text sections", len(texts))
	}
	if len(texts[0].Data) != bin.TextSize {
		t.Errorf("text size %d != %d", len(texts[0].Data), bin.TextSize)
	}
}

func TestTextFullyDecodable(t *testing.T) {
	bin := build(t, smallConfig())
	f := parse(t, bin)
	text := f.Section(".text")
	insts, err := x86.DecodeAll(text.Data, text.Addr)
	if err != nil {
		t.Fatalf("DecodeAll: %v", err)
	}
	if len(insts) != bin.NumInsts {
		t.Errorf("decoded %d instructions, toolchain reported %d", len(insts), bin.NumInsts)
	}
}

func TestBundleInvariant(t *testing.T) {
	// No instruction may cross a 32-byte boundary — the NaCl rule the
	// whole pipeline depends on.
	bin := build(t, Config{Name: "b", Seed: 3, NumFuncs: 20, AvgFuncInsts: 120, IFCC: true, IndirectRate: 0.02})
	f := parse(t, bin)
	text := f.Section(".text")
	insts, err := x86.DecodeAll(text.Data, text.Addr)
	if err != nil {
		t.Fatalf("DecodeAll: %v", err)
	}
	for _, in := range insts {
		startB := in.Addr / BundleSize
		endB := (in.Addr + uint64(in.Len) - 1) / BundleSize
		if startB != endB {
			t.Fatalf("instruction at %#x (%d bytes) crosses a bundle boundary: %s",
				in.Addr, in.Len, in.String())
		}
	}
}

func TestDeterministicBuilds(t *testing.T) {
	a := build(t, smallConfig())
	b := build(t, smallConfig())
	if !bytes.Equal(a.Image, b.Image) {
		t.Error("same seed must produce identical binaries")
	}
	cfg := smallConfig()
	cfg.Seed = 8
	c := build(t, cfg)
	if bytes.Equal(a.Image, c.Image) {
		t.Error("different seeds should produce different binaries")
	}
}

func TestSymbolTable(t *testing.T) {
	bin := build(t, smallConfig())
	f := parse(t, bin)
	tab, err := symtab.FromELF(f)
	if err != nil {
		t.Fatalf("FromELF: %v", err)
	}
	for _, want := range []string{"_start", "main", "memcpy", "printf", "__stack_chk_fail", "t_fn_000"} {
		if _, ok := tab.AddrOf(want); !ok {
			t.Errorf("symbol %q missing", want)
		}
	}
	// Every function symbol must start at a decodable instruction.
	text := f.Section(".text")
	for _, fn := range tab.Functions() {
		off := fn.Addr - text.Addr
		if _, err := x86.Decode(text.Data[off:], fn.Addr); err != nil {
			t.Errorf("function %s at %#x does not start at a valid instruction: %v", fn.Name, fn.Addr, err)
		}
	}
}

func TestStrippedBuild(t *testing.T) {
	cfg := smallConfig()
	cfg.Strip = true
	bin := build(t, cfg)
	f := parse(t, bin)
	if _, err := f.Symbols(); err != elf64.ErrNoSymtab {
		t.Errorf("Symbols on stripped = %v, want ErrNoSymtab", err)
	}
}

func TestMixedCodeDataBuildUndecodable(t *testing.T) {
	cfg := smallConfig()
	cfg.MixedCodeData = true
	bin := build(t, cfg)
	f := parse(t, bin)
	text := f.Section(".text")
	if _, err := x86.DecodeAll(text.Data, text.Addr); err == nil {
		t.Error("mixed code/data text should fail full disassembly")
	}
}

func TestRelocationsPointIntoText(t *testing.T) {
	bin := build(t, smallConfig())
	f := parse(t, bin)
	relas, err := f.Relocations()
	if err != nil {
		t.Fatal(err)
	}
	if len(relas) != bin.NumRelocs {
		t.Fatalf("got %d relocations, want %d", len(relas), bin.NumRelocs)
	}
	text := f.Section(".text")
	data := f.Section(".data")
	for _, r := range relas {
		if r.RelaType() != elf64.RX8664Relative {
			t.Errorf("unexpected reloc type %d", r.RelaType())
		}
		if r.Off < data.Addr || r.Off >= data.Addr+data.Size {
			t.Errorf("reloc site %#x outside .data", r.Off)
		}
		tgt := uint64(r.Addend)
		if tgt < text.Addr || tgt >= text.Addr+text.Size {
			t.Errorf("reloc target %#x outside .text", tgt)
		}
	}
}

func TestStackProtectorInstrumentation(t *testing.T) {
	cfg := smallConfig()
	cfg.StackProtector = true
	bin := build(t, cfg)
	f := parse(t, bin)
	text := f.Section(".text")
	tab, err := symtab.FromELF(f)
	if err != nil {
		t.Fatal(err)
	}
	mainAddr, _ := tab.AddrOf("main")
	nextAddr, _ := tab.NextFuncAfter(mainAddr)
	body := text.Data[mainAddr-text.Addr : nextAddr-text.Addr]
	insts, err := x86.DecodeAll(body, mainAddr)
	if err != nil {
		t.Fatal(err)
	}
	// Expect the canary load somewhere near the top.
	foundLoad, foundCmp, foundCall := false, false, false
	failAddr, _ := tab.AddrOf("__stack_chk_fail")
	for _, in := range insts {
		if in.Op == x86.OpMov && in.NArgs() == 2 && in.Arg(1).IsSegDisp(x86.SegFS, 0x28) {
			foundLoad = true
		}
		if in.Op == x86.OpCmp && in.NArgs() == 2 && in.Arg(1).IsMemBaseDisp(x86.RegSP, 0) {
			foundCmp = true
		}
		if in.IsDirectCall() {
			if tgt, _ := in.BranchTarget(); tgt == failAddr {
				foundCall = true
			}
		}
	}
	if !foundLoad || !foundCmp || !foundCall {
		t.Errorf("canary pattern incomplete: load=%v cmp=%v call=%v", foundLoad, foundCmp, foundCall)
	}
}

func TestIFCCJumpTable(t *testing.T) {
	cfg := smallConfig()
	cfg.IFCC = true
	cfg.IndirectRate = 0.05
	bin := build(t, cfg)
	if bin.JumpTableAddr == 0 || bin.JumpTableSize == 0 {
		t.Fatal("jump table metadata missing")
	}
	if bin.JumpTableAddr%bin.JumpTableSize != 0 {
		t.Errorf("jump table at %#x not aligned to its size %#x", bin.JumpTableAddr, bin.JumpTableSize)
	}
	f := parse(t, bin)
	tab, err := symtab.FromELF(f)
	if err != nil {
		t.Fatal(err)
	}
	// The table base symbol exists and matches the metadata.
	base, ok := tab.AddrOf(JumpTableSymbolPrefix + "0")
	if !ok || base != bin.JumpTableAddr {
		t.Fatalf("table base symbol = %#x, %v; want %#x", base, ok, bin.JumpTableAddr)
	}
	// Each slot is jmpq rel32 + nopl (%rax), 8 bytes, targeting a
	// function start.
	text := f.Section(".text")
	nSlots := int(bin.JumpTableSize / 8)
	for i := 0; i < nSlots; i++ {
		slotAddr := bin.JumpTableAddr + uint64(i*8)
		off := slotAddr - text.Addr
		jmp, err := x86.Decode(text.Data[off:], slotAddr)
		if err != nil || jmp.Op != x86.OpJmp {
			t.Fatalf("slot %d: not a jmp (%v, %v)", i, jmp.Op, err)
		}
		tgt, _ := jmp.BranchTarget()
		if name, ok := tab.NameAt(tgt); !ok || strings.HasPrefix(name, JumpTableSymbolPrefix) {
			t.Errorf("slot %d target %#x (%q) is not a plain function start", i, tgt, name)
		}
		nop, err := x86.Decode(text.Data[off+5:], slotAddr+5)
		if err != nil || nop.Op != x86.OpNop || nop.Len != 3 {
			t.Errorf("slot %d: filler is not nopl (%%rax)", i)
		}
	}
}

func TestMuslHashDBConsistency(t *testing.T) {
	// The DB computed standalone must equal hashes of the musl functions
	// inside a linked executable (position independence of the archive).
	db, err := MuslHashDB(MuslV105, false)
	if err != nil {
		t.Fatal(err)
	}
	bin := build(t, smallConfig())
	f := parse(t, bin)
	tab, err := symtab.FromELF(f)
	if err != nil {
		t.Fatal(err)
	}
	text := f.Section(".text")
	checked := 0
	for _, name := range []string{"memcpy", "strlen", "vfprintf", "__stack_chk_fail", "pthread_create"} {
		addr, ok := tab.AddrOf(name)
		if !ok {
			t.Fatalf("symbol %s missing", name)
		}
		end, ok := tab.NextFuncAfter(addr)
		if !ok {
			end = text.Addr + text.Size
		}
		got := sha256Of(text.Data[addr-text.Addr : end-text.Addr])
		if got != db[name] {
			t.Errorf("%s: executable hash differs from reference DB", name)
		}
		checked++
	}
	if checked == 0 {
		t.Fatal("nothing checked")
	}
}

func TestMuslVersionsDiffer(t *testing.T) {
	db105, err := MuslHashDB(MuslV105, false)
	if err != nil {
		t.Fatal(err)
	}
	db110, err := MuslHashDB(MuslV110, false)
	if err != nil {
		t.Fatal(err)
	}
	same := 0
	for name, h := range db105 {
		if db110[name] == h {
			same++
		}
	}
	if same != 0 {
		t.Errorf("%d functions identical across musl versions; hashes must differ", same)
	}
}

func TestInstrumentationGrowsInstCount(t *testing.T) {
	base := build(t, smallConfig())
	sp := smallConfig()
	sp.StackProtector = true
	spBin := build(t, sp)
	if spBin.NumInsts <= base.NumInsts {
		t.Errorf("stack protector should add instructions: %d vs %d", spBin.NumInsts, base.NumInsts)
	}
	ic := smallConfig()
	ic.IFCC = true
	icBin := build(t, ic)
	if icBin.NumInsts <= base.NumInsts {
		t.Errorf("IFCC should add instructions: %d vs %d", icBin.NumInsts, base.NumInsts)
	}
}

func sha256Of(b []byte) [32]byte {
	return sha256.Sum256(b)
}
