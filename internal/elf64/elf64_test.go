package elf64

import (
	"bytes"
	"encoding/binary"
	"math/rand"
	"testing"
	"testing/quick"
)

// buildTestPIE constructs a small but complete PIE image: .text, .data,
// .bss, .dynamic, .rela.dyn, symbols.
func buildTestPIE(t testing.TB, text, data []byte) []byte {
	t.Helper()
	const (
		textAddr = 0x1000
		dataAddr = 0x10000
	)
	relas := []Rela{
		{Off: dataAddr, Info: uint64(RX8664Relative), Addend: textAddr + 8},
	}
	relaBytes := EncodeRelas(relas)
	relaAddr := uint64(dataAddr + len(data))
	dynAddr := relaAddr + uint64(len(relaBytes))
	dynBytes := EncodeDynamic([]Dyn{
		{Tag: DTRela, Val: relaAddr},
		{Tag: DTRelasz, Val: uint64(len(relaBytes))},
		{Tag: DTRelaent, Val: RelaSize},
	})
	bssAddr := dynAddr + uint64(len(dynBytes))

	var b Builder
	b.Entry = textAddr
	b.AddSection(BuildSection{Name: ".text", Type: SHTProgbits,
		Flags: SHFAlloc | SHFExecinstr, Addr: textAddr, Data: text, Align: 16})
	b.AddSection(BuildSection{Name: ".data", Type: SHTProgbits,
		Flags: SHFAlloc | SHFWrite, Addr: dataAddr, Data: data, Align: 8})
	b.AddSection(BuildSection{Name: ".rela.dyn", Type: SHTRela,
		Flags: SHFAlloc | SHFWrite, Addr: relaAddr, Data: relaBytes, Align: 8, Entsize: RelaSize})
	b.AddSection(BuildSection{Name: ".dynamic", Type: SHTDynamic,
		Flags: SHFAlloc | SHFWrite, Addr: dynAddr, Data: dynBytes, Align: 8, Entsize: DynSize})
	b.AddSection(BuildSection{Name: ".bss", Type: SHTNobits,
		Flags: SHFAlloc | SHFWrite, Addr: bssAddr, MemSize: 256, Align: 8})
	b.AddSymbol(BuildSymbol{Name: "_start", Value: textAddr, Size: 16,
		Info: STBGlobal<<4 | STTFunc, Section: ".text"})
	b.AddSymbol(BuildSymbol{Name: "main", Value: textAddr + 16, Size: 32,
		Info: STBGlobal<<4 | STTFunc, Section: ".text"})
	b.AddSymbol(BuildSymbol{Name: "local_helper", Value: textAddr + 48, Size: 8,
		Info: STBLocal<<4 | STTFunc, Section: ".text"})

	img, err := b.Build()
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	return img
}

func TestRoundTrip(t *testing.T) {
	text := bytes.Repeat([]byte{0x90}, 128)
	data := []byte("hello, enclave")
	img := buildTestPIE(t, text, data)

	f, err := Parse(img)
	if err != nil {
		t.Fatalf("Parse: %v", err)
	}
	if err := f.VerifyPIE(); err != nil {
		t.Fatalf("VerifyPIE: %v", err)
	}
	if f.Header.Entry != 0x1000 {
		t.Errorf("entry = %#x", f.Header.Entry)
	}

	sec := f.Section(".text")
	if sec == nil {
		t.Fatal("no .text")
	}
	if !bytes.Equal(sec.Data, text) {
		t.Error(".text content mismatch")
	}
	if sec.Addr != 0x1000 {
		t.Errorf(".text addr = %#x", sec.Addr)
	}

	if got := f.Section(".data"); got == nil || !bytes.Equal(got.Data, data) {
		t.Error(".data content mismatch")
	}

	texts := f.TextSections()
	if len(texts) != 1 || texts[0].SecName != ".text" {
		t.Errorf("TextSections = %v", texts)
	}
}

func TestRoundTripSymbols(t *testing.T) {
	img := buildTestPIE(t, make([]byte, 64), []byte{1, 2, 3})
	f, err := Parse(img)
	if err != nil {
		t.Fatal(err)
	}
	syms, err := f.Symbols()
	if err != nil {
		t.Fatalf("Symbols: %v", err)
	}
	// null + 3 added.
	if len(syms) != 4 {
		t.Fatalf("got %d symbols, want 4", len(syms))
	}
	byName := map[string]Symbol{}
	for _, s := range syms {
		byName[s.SymName] = s
	}
	start, ok := byName["_start"]
	if !ok || start.Value != 0x1000 || start.SymType() != STTFunc {
		t.Errorf("_start = %+v", start)
	}
	if local, ok := byName["local_helper"]; !ok || local.Bind() != STBLocal {
		t.Errorf("local_helper = %+v", local)
	}
	// Locals must precede globals.
	if syms[1].Bind() != STBLocal {
		t.Errorf("symbol 1 should be local, got bind %d", syms[1].Bind())
	}
}

func TestRoundTripRelocations(t *testing.T) {
	img := buildTestPIE(t, make([]byte, 64), make([]byte, 32))
	f, err := Parse(img)
	if err != nil {
		t.Fatal(err)
	}
	relas, err := f.Relocations()
	if err != nil {
		t.Fatalf("Relocations: %v", err)
	}
	if len(relas) != 1 {
		t.Fatalf("got %d relocations, want 1", len(relas))
	}
	r := relas[0]
	if r.RelaType() != RX8664Relative || r.Off != 0x10000 || r.Addend != 0x1008 {
		t.Errorf("rela = %+v", r)
	}
}

func TestRoundTripDynamic(t *testing.T) {
	img := buildTestPIE(t, make([]byte, 64), make([]byte, 32))
	f, err := Parse(img)
	if err != nil {
		t.Fatal(err)
	}
	if v, ok := f.DynValue(DTRelaent); !ok || v != RelaSize {
		t.Errorf("DT_RELAENT = %d, %v", v, ok)
	}
	if _, ok := f.DynValue(DTFlags); ok {
		t.Error("DT_FLAGS should be absent")
	}
}

func TestParseRejectsBadInputs(t *testing.T) {
	good := buildTestPIE(t, make([]byte, 64), make([]byte, 16))

	tests := []struct {
		name   string
		mutate func([]byte)
		want   error
	}{
		{"bad magic", func(b []byte) { b[0] = 'X' }, ErrBadMagic},
		{"bad class", func(b []byte) { b[EIClass] = 1 }, ErrBadClass},
		{"big endian", func(b []byte) { b[EIData] = 2 }, ErrBadEncoding},
		{"wrong machine", func(b []byte) { binary.LittleEndian.PutUint16(b[18:], 3) }, ErrBadMachine},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			img := append([]byte(nil), good...)
			tt.mutate(img)
			if _, err := Parse(img); err != tt.want {
				t.Errorf("Parse = %v, want %v", err, tt.want)
			}
		})
	}
}

func TestParseTruncated(t *testing.T) {
	img := buildTestPIE(t, make([]byte, 64), make([]byte, 16))
	for _, n := range []int{0, 10, EhdrSize - 1, EhdrSize + 3, len(img) / 2} {
		if _, err := Parse(img[:n]); err == nil {
			t.Errorf("Parse(%d bytes): expected error", n)
		}
	}
}

func TestVerifyPIERejectsExec(t *testing.T) {
	var b Builder
	b.Entry = 0x1000
	b.Type = TypeExec
	b.AddSection(BuildSection{Name: ".text", Type: SHTProgbits,
		Flags: SHFAlloc | SHFExecinstr, Addr: 0x1000, Data: make([]byte, 16)})
	img, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	f, err := Parse(img)
	if err != nil {
		t.Fatal(err)
	}
	if err := f.VerifyPIE(); err != ErrNotPIE {
		t.Errorf("VerifyPIE = %v, want ErrNotPIE", err)
	}
}

func TestStrippedBinaryRejected(t *testing.T) {
	var b Builder
	b.Entry = 0x1000
	b.AddSection(BuildSection{Name: ".text", Type: SHTProgbits,
		Flags: SHFAlloc | SHFExecinstr, Addr: 0x1000, Data: make([]byte, 16)})
	img, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	f, err := Parse(img)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Symbols(); err != ErrNoSymtab {
		t.Errorf("Symbols = %v, want ErrNoSymtab", err)
	}
}

func TestDataAt(t *testing.T) {
	text := make([]byte, 64)
	for i := range text {
		text[i] = byte(i)
	}
	img := buildTestPIE(t, text, make([]byte, 16))
	f, err := Parse(img)
	if err != nil {
		t.Fatal(err)
	}
	got, err := f.DataAt(0x1010, 8)
	if err != nil {
		t.Fatalf("DataAt: %v", err)
	}
	if !bytes.Equal(got, text[0x10:0x18]) {
		t.Errorf("DataAt = % x", got)
	}
	if _, err := f.DataAt(0x999999, 1); err == nil {
		t.Error("expected unmapped-address error")
	}
}

func TestPhdrCongruence(t *testing.T) {
	img := buildTestPIE(t, make([]byte, 100), make([]byte, 50))
	f, err := Parse(img)
	if err != nil {
		t.Fatal(err)
	}
	var loads int
	for _, p := range f.Progs {
		if p.Type != PTLoad {
			continue
		}
		loads++
		if p.Off%PageSize != p.Vaddr%PageSize {
			t.Errorf("segment off %#x / vaddr %#x break page congruence", p.Off, p.Vaddr)
		}
		if p.Memsz < p.Filesz {
			t.Errorf("memsz %d < filesz %d", p.Memsz, p.Filesz)
		}
	}
	if loads != 2 {
		t.Errorf("got %d PT_LOAD segments, want 2 (RX + RW)", loads)
	}
	// Exactly one PT_DYNAMIC.
	var dyns int
	for _, p := range f.Progs {
		if p.Type == PTDynamic {
			dyns++
		}
	}
	if dyns != 1 {
		t.Errorf("got %d PT_DYNAMIC, want 1", dyns)
	}
}

// TestQuickWriterReaderIdentity: for random section contents, Build→Parse
// returns identical bytes and addresses.
func TestQuickWriterReaderIdentity(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		text := make([]byte, 1+r.Intn(4096))
		data := make([]byte, 1+r.Intn(2048))
		r.Read(text)
		r.Read(data)

		var b Builder
		b.Entry = 0x1000
		b.AddSection(BuildSection{Name: ".text", Type: SHTProgbits,
			Flags: SHFAlloc | SHFExecinstr, Addr: 0x1000, Data: text, Align: 16})
		dataAddr := uint64(0x1000+len(text)+PageSize) &^ (PageSize - 1)
		b.AddSection(BuildSection{Name: ".data", Type: SHTProgbits,
			Flags: SHFAlloc | SHFWrite, Addr: dataAddr, Data: data, Align: 8})
		img, err := b.Build()
		if err != nil {
			t.Errorf("seed %d: Build: %v", seed, err)
			return false
		}
		pf, err := Parse(img)
		if err != nil {
			t.Errorf("seed %d: Parse: %v", seed, err)
			return false
		}
		ts := pf.Section(".text")
		ds := pf.Section(".data")
		if ts == nil || ds == nil {
			t.Errorf("seed %d: missing sections", seed)
			return false
		}
		if !bytes.Equal(ts.Data, text) || !bytes.Equal(ds.Data, data) {
			t.Errorf("seed %d: content mismatch", seed)
			return false
		}
		if ts.Addr != 0x1000 || ds.Addr != dataAddr {
			t.Errorf("seed %d: address mismatch", seed)
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}
