package loader

import (
	"bytes"
	"encoding/binary"
	"errors"
	"testing"

	"engarde/internal/cycles"
	"engarde/internal/elf64"
	"engarde/internal/toolchain"
)

// memBuf is a flat Memory for tests.
type memBuf struct {
	base uint64
	data []byte
}

func newMemBuf(base uint64, size int) *memBuf {
	return &memBuf{base: base, data: make([]byte, size)}
}

func (m *memBuf) Write(addr uint64, b []byte) error {
	off := addr - m.base
	if off+uint64(len(b)) > uint64(len(m.data)) {
		return errors.New("membuf: out of range")
	}
	copy(m.data[off:], b)
	return nil
}

func (m *memBuf) Read(addr uint64, b []byte) error {
	off := addr - m.base
	if off+uint64(len(b)) > uint64(len(m.data)) {
		return errors.New("membuf: out of range")
	}
	copy(b, m.data[off:])
	return nil
}

func buildBin(t *testing.T) (*toolchain.Binary, *elf64.File) {
	t.Helper()
	bin, err := toolchain.Build(toolchain.Config{
		Name: "ld", Seed: 51, NumFuncs: 6, AvgFuncInsts: 40, NumDataRelocs: 7,
	})
	if err != nil {
		t.Fatal(err)
	}
	f, err := elf64.Parse(bin.Image)
	if err != nil {
		t.Fatal(err)
	}
	return bin, f
}

func TestLoadBasics(t *testing.T) {
	bin, f := buildBin(t)
	mem := newMemBuf(0x200000, 4<<20)
	ctr := cycles.NewCounter(cycles.DefaultModel())
	res, err := Load(f, mem, Config{Base: 0x200000, Counter: ctr})
	if err != nil {
		t.Fatalf("Load: %v", err)
	}
	if res.Entry != 0x200000+f.Header.Entry {
		t.Errorf("entry = %#x", res.Entry)
	}
	if res.RelocsApplied != bin.NumRelocs {
		t.Errorf("relocs applied = %d, want %d", res.RelocsApplied, bin.NumRelocs)
	}
	if len(res.ExecPages) == 0 || len(res.DataPages) == 0 {
		t.Fatal("missing page lists")
	}
	// Text content landed at base+textAddr.
	text := f.Section(".text")
	got := make([]byte, 64)
	if err := mem.Read(0x200000+text.Addr, got); err != nil {
		t.Fatal(err)
	}
	for i := range got {
		if got[i] != text.Data[i] {
			t.Fatalf("text byte %d mismatch", i)
		}
	}
}

func TestLoadAppliesRelocations(t *testing.T) {
	_, f := buildBin(t)
	mem := newMemBuf(0x200000, 4<<20)
	res, err := Load(f, mem, Config{Base: 0x200000})
	if err != nil {
		t.Fatal(err)
	}
	relas, err := f.Relocations()
	if err != nil {
		t.Fatal(err)
	}
	if len(relas) == 0 {
		t.Fatal("test binary has no relocations")
	}
	for _, r := range relas {
		var word [8]byte
		if err := mem.Read(res.Bias+r.Off, word[:]); err != nil {
			t.Fatal(err)
		}
		got := binary.LittleEndian.Uint64(word[:])
		want := res.Bias + uint64(r.Addend)
		if got != want {
			t.Errorf("reloc at %#x = %#x, want %#x", r.Off, got, want)
		}
	}
}

func TestLoadPageDisposition(t *testing.T) {
	_, f := buildBin(t)
	mem := newMemBuf(0x200000, 4<<20)
	res, err := Load(f, mem, Config{Base: 0x200000})
	if err != nil {
		t.Fatal(err)
	}
	// Exec and data page sets must be disjoint (W^X).
	seen := map[uint64]bool{}
	for _, p := range res.ExecPages {
		seen[p] = true
	}
	for _, p := range res.DataPages {
		if seen[p] {
			t.Errorf("page %#x is both executable and writable", p)
		}
	}
	// Text pages all in ExecPages.
	text := f.Section(".text")
	nTextPages := (int(text.Size) + PageSize - 1) / PageSize
	if len(res.ExecPages) < nTextPages {
		t.Errorf("%d exec pages < %d text pages", len(res.ExecPages), nTextPages)
	}
	// Stack is writable and the stack top lies in a data page.
	top := res.StackTop &^ uint64(PageSize-1)
	found := false
	for _, p := range res.DataPages {
		if p == top {
			found = true
		}
	}
	if !found {
		t.Error("stack top not in a writable page")
	}
}

func TestLoadRespectsLimit(t *testing.T) {
	_, f := buildBin(t)
	mem := newMemBuf(0x200000, 4<<20)
	_, err := Load(f, mem, Config{Base: 0x200000, Limit: 2 * PageSize})
	if !errors.Is(err, ErrImageTooLarge) {
		t.Errorf("Load with tiny limit = %v, want ErrImageTooLarge", err)
	}
}

func TestLoadChargesPhases(t *testing.T) {
	bin, f := buildBin(t)
	mem := newMemBuf(0x200000, 4<<20)
	ctr := cycles.NewCounter(cycles.DefaultModel())
	if _, err := Load(f, mem, Config{Base: 0x200000, Counter: ctr}); err != nil {
		t.Fatal(err)
	}
	if got := ctr.Units(cycles.PhaseLoad, cycles.UnitRelocEntry); got != uint64(bin.NumRelocs) {
		t.Errorf("charged %d relocs, want %d", got, bin.NumRelocs)
	}
	// 2 PT_LOAD segments + 1 stack setup.
	if got := ctr.Units(cycles.PhaseLoad, cycles.UnitSegmentMap); got != 3 {
		t.Errorf("charged %d segment maps, want 3", got)
	}
	if ctr.Cycles(cycles.PhaseLoad) == 0 {
		t.Error("no load cycles charged")
	}
}

func TestLoadUnalignedBase(t *testing.T) {
	_, f := buildBin(t)
	mem := newMemBuf(0x200000, 4<<20)
	if _, err := Load(f, mem, Config{Base: 0x200001}); err == nil {
		t.Error("unaligned base must be rejected")
	}
}

// TestLoadRejectsWrappingSegment feeds Load a toolchain-built binary whose
// data PT_LOAD has its Memsz patched so that Vaddr+Memsz wraps uint64 to
// one page. The wrapped end passes a plain Limit comparison, after which
// the bss tail Memsz-Filesz is close to 2^64 bytes. Load must fail closed
// with ErrImageTooLarge, with or without a Limit, and must not panic.
func TestLoadRejectsWrappingSegment(t *testing.T) {
	bin, f := buildBin(t)
	data := -1
	for i, ph := range f.Progs {
		if ph.Type == elf64.PTLoad && ph.Flags&elf64.PFW != 0 {
			data = i
		}
	}
	if data < 0 {
		t.Fatal("binary has no writable PT_LOAD segment")
	}
	img := append([]byte(nil), bin.Image...)
	memsz := PageSize - f.Progs[data].Vaddr // Vaddr+Memsz wraps to PageSize
	phoff := binary.LittleEndian.Uint64(img[32:])
	const memszOff = 40 // p_memsz within an Elf64_Phdr
	binary.LittleEndian.PutUint64(img[phoff+uint64(data)*elf64.PhdrSize+memszOff:], memsz)
	bad, err := elf64.Parse(img)
	if err != nil {
		t.Fatalf("patched image no longer parses: %v", err)
	}
	if got := bad.Progs[data].Memsz; got != memsz {
		t.Fatalf("patch missed: Memsz = %#x, want %#x", got, memsz)
	}
	for _, limit := range []uint64{0, 1 << 20} {
		mem := newMemBuf(0x200000, 4<<20)
		var err error
		func() {
			defer func() {
				if r := recover(); r != nil {
					t.Fatalf("Limit %#x: Load panicked: %v", limit, r)
				}
			}()
			_, err = Load(bad, mem, Config{Base: 0x200000, Limit: limit})
		}()
		if !errors.Is(err, ErrImageTooLarge) {
			t.Errorf("Limit %#x: Load = %v, want ErrImageTooLarge", limit, err)
		}
	}
}

// retargetFirstReloc returns a copy of image whose first RELA entry's
// r_offset is off.
func retargetFirstReloc(t *testing.T, image []byte, f *elf64.File, off uint64) []byte {
	t.Helper()
	rela := f.Section(".rela.dyn")
	if rela == nil || rela.Size < elf64.RelaSize {
		t.Fatal("binary has no relocation entries")
	}
	img := append([]byte(nil), image...)
	binary.LittleEndian.PutUint64(img[rela.Off:], off)
	return img
}

// TestLoadRejectsRelocationIntoText points a relocation at checked code:
// the first RELA entry of a toolchain binary is aimed at .text, so
// applying it would overwrite eight verified bytes with a client-chosen
// addend after the policies ran. Load must refuse with
// ErrRelocOutOfBounds and leave .text as decoded. Relocations straddling
// a segment end or wrapping uint64 are refused the same way.
func TestLoadRejectsRelocationIntoText(t *testing.T) {
	bin, err := toolchain.Build(toolchain.Config{
		Name: "cl", Seed: 61,
		NumFuncs: 8, AvgFuncInsts: 60,
		LibcCallRate: 0.05, NumDataRelocs: 6,
	})
	if err != nil {
		t.Fatal(err)
	}
	f, err := elf64.Parse(bin.Image)
	if err != nil {
		t.Fatal(err)
	}
	text := f.Section(".text")
	var dataEnd uint64
	for _, ph := range f.Progs {
		if ph.Type == elf64.PTLoad && ph.Flags&elf64.PFX == 0 {
			dataEnd = max(dataEnd, ph.Vaddr+ph.Memsz)
		}
	}
	for name, off := range map[string]uint64{
		"text":     text.Addr,
		"straddle": dataEnd - 4,
		"wrap":     ^uint64(3),
	} {
		bad, err := elf64.Parse(retargetFirstReloc(t, bin.Image, f, off))
		if err != nil {
			t.Fatalf("%s: patched image no longer parses: %v", name, err)
		}
		mem := newMemBuf(0x200000, 4<<20)
		if _, err := Load(bad, mem, Config{Base: 0x200000}); !errors.Is(err, ErrRelocOutOfBounds) {
			t.Errorf("%s: Load = %v, want ErrRelocOutOfBounds", name, err)
		}
		if name != "text" {
			continue
		}
		got := make([]byte, 8)
		if err := mem.Read(0x200000+text.Addr, got); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, text.Data[:8]) {
			t.Errorf("loaded .text begins %x, checked bytes %x", got, text.Data[:8])
		}
	}
}
