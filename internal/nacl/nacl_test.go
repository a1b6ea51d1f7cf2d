package nacl

import (
	"errors"
	"slices"
	"testing"

	"engarde/internal/cycles"
	"engarde/internal/elf64"
	"engarde/internal/symtab"
	"engarde/internal/toolchain"
	"engarde/internal/x86"
)

func finish(t *testing.T, a *x86.Assembler) []byte {
	t.Helper()
	code, fixups, err := a.Finish()
	if err != nil {
		t.Fatal(err)
	}
	if len(fixups) != 0 {
		t.Fatalf("unresolved fixups: %v", fixups)
	}
	return code
}

func TestValidateSimpleProgram(t *testing.T) {
	var a x86.Assembler
	a.Label("start")
	a.MovRegImm32(x86.RegAX, 1)
	a.CmpRegImm8(x86.RegAX, 0)
	a.JccLabel(x86.CondNE, "end")
	a.Nop(1)
	a.Label("end")
	a.Ret()
	code := finish(t, &a)
	p, err := Validate(code, 0x1000, 0x1000, nil, nil)
	if err != nil {
		t.Fatalf("Validate: %v", err)
	}
	if len(p.Insts) != 5 {
		t.Errorf("decoded %d instructions", len(p.Insts))
	}
}

func TestValidateRejectsBundleCrossing(t *testing.T) {
	var a x86.Assembler
	// 28 one-byte NOPs, then a 9-byte instruction crossing offset 32.
	for i := 0; i < 28; i++ {
		a.Raw(0x90)
	}
	a.MovRegFS(x86.RegAX, 0x28) // 9 bytes: spans [28, 37)
	a.Ret()
	code := finish(t, &a)
	_, err := Validate(code, 0x1000, 0x1000, nil, nil)
	if !errors.Is(err, ErrBundleCrossing) {
		t.Errorf("Validate = %v, want ErrBundleCrossing", err)
	}
}

func TestValidateRejectsBadBranchTarget(t *testing.T) {
	// jmp into the middle of the mov's immediate bytes.
	var a x86.Assembler
	a.MovRegImm32(x86.RegAX, 0x11223344) // 7 bytes at 0x1000
	a.Ret()
	code := finish(t, &a)
	// Append a hand-crafted jmp rel32 to 0x1003 (inside the mov).
	jmp := []byte{0xE9, 0, 0, 0, 0}
	at := uint64(0x1000 + len(code))
	rel := int32(0x1003 - (at + 5))
	jmp[1] = byte(rel)
	jmp[2] = byte(rel >> 8)
	jmp[3] = byte(rel >> 16)
	jmp[4] = byte(rel >> 24)
	code = append(code, jmp...)

	tab := symtab.New()
	tab.Add(symtab.Entry{Name: "j", Addr: at})
	_, err := Validate(code, 0x1000, 0x1000, tab, nil)
	if !errors.Is(err, ErrBadBranchTarget) {
		t.Errorf("Validate = %v, want ErrBadBranchTarget", err)
	}
}

func TestValidateRejectsOutOfRangeTarget(t *testing.T) {
	var a x86.Assembler
	a.CallSym("far")
	a.Ret()
	code, fixups, err := a.Finish()
	if err != nil {
		t.Fatal(err)
	}
	// Resolve the call to an address beyond the region.
	if len(fixups) != 1 {
		t.Fatal("expected one fixup")
	}
	rel := int32(0x99999)
	code[fixups[0].Off] = byte(rel)
	code[fixups[0].Off+1] = byte(rel >> 8)
	code[fixups[0].Off+2] = byte(rel >> 16)
	code[fixups[0].Off+3] = byte(rel >> 24)
	_, err = Validate(code, 0x1000, 0x1000, nil, nil)
	if !errors.Is(err, ErrBadBranchTarget) {
		t.Errorf("Validate = %v, want ErrBadBranchTarget", err)
	}
}

func TestValidateRejectsMixedCodeData(t *testing.T) {
	var a x86.Assembler
	a.Ret()
	code := finish(t, &a)
	code = append(code, []byte("\x06plain data bytes\xc4\xc5")...)
	_, err := Validate(code, 0x1000, 0x1000, nil, nil)
	if !errors.Is(err, ErrUndecodable) {
		t.Errorf("Validate = %v, want ErrUndecodable", err)
	}
}

func TestValidateRejectsUnreachable(t *testing.T) {
	var a x86.Assembler
	a.Ret()                     // entry returns immediately
	a.MovRegImm32(x86.RegAX, 7) // dead non-NOP code, no symbol
	a.Ret()
	code := finish(t, &a)
	_, err := Validate(code, 0x1000, 0x1000, nil, nil)
	if !errors.Is(err, ErrUnreachable) {
		t.Errorf("Validate = %v, want ErrUnreachable", err)
	}
}

func TestValidateAllowsUnreachablePaddingAndSymbols(t *testing.T) {
	var a x86.Assembler
	a.Ret()  // entry
	a.Nop(9) // padding: allowed unreachable
	fnStart := a.Len()
	a.MovRegImm32(x86.RegAX, 7)
	a.Ret()
	code := finish(t, &a)
	tab := symtab.New()
	tab.Add(symtab.Entry{Name: "helper", Addr: 0x1000 + uint64(fnStart)})
	if _, err := Validate(code, 0x1000, 0x1000, tab, nil); err != nil {
		t.Errorf("Validate: %v", err)
	}
}

func TestValidateChargesDisassembly(t *testing.T) {
	var a x86.Assembler
	a.Nop(1)
	a.Nop(1)
	a.Ret()
	code := finish(t, &a)
	ctr := cycles.NewCounter(cycles.DefaultModel())
	if _, err := Validate(code, 0x1000, 0x1000, nil, ctr); err != nil {
		t.Fatal(err)
	}
	if got := ctr.Units(cycles.PhaseDisasm, cycles.UnitDecodedInst); got != 3 {
		t.Errorf("charged %d decoded instructions, want 3", got)
	}
}

func TestValidateRealToolchainOutput(t *testing.T) {
	// Every binary the synthetic toolchain emits must validate — the
	// by-construction guarantee the whole reproduction rests on.
	for _, variant := range []struct {
		name string
		cfg  toolchain.Config
	}{
		{"plain", toolchain.Config{Name: "v", Seed: 11, NumFuncs: 12, AvgFuncInsts: 80}},
		{"stackprot", toolchain.Config{Name: "v", Seed: 12, NumFuncs: 12, AvgFuncInsts: 80, StackProtector: true}},
		{"ifcc", toolchain.Config{Name: "v", Seed: 13, NumFuncs: 12, AvgFuncInsts: 80, IFCC: true, IndirectRate: 0.02}},
	} {
		t.Run(variant.name, func(t *testing.T) {
			bin, err := toolchain.Build(variant.cfg)
			if err != nil {
				t.Fatal(err)
			}
			f, err := elf64.Parse(bin.Image)
			if err != nil {
				t.Fatal(err)
			}
			tab, err := symtab.FromELF(f)
			if err != nil {
				t.Fatal(err)
			}
			text := f.Section(".text")
			p, err := Validate(text.Data, text.Addr, f.Header.Entry, tab, nil)
			if err != nil {
				t.Fatalf("Validate: %v", err)
			}
			if len(p.Insts) != bin.NumInsts {
				t.Errorf("validated %d instructions, toolchain reported %d", len(p.Insts), bin.NumInsts)
			}
		})
	}
}

// TestReleasedBufferReuse decodes a large image, releases it, then decodes
// a smaller one, which may land in the large one's records: the result
// must be exactly a fresh decode, with none of the large image's records
// left over.
func TestReleasedBufferReuse(t *testing.T) {
	text := func(name string, funcs int) *elf64.Section {
		bin, err := toolchain.Build(toolchain.Config{Name: name, Seed: 7, NumFuncs: funcs, AvgFuncInsts: 80})
		if err != nil {
			t.Fatal(err)
		}
		f, err := elf64.Parse(bin.Image)
		if err != nil {
			t.Fatal(err)
		}
		return f.Section(".text")
	}
	a, b := text("large", 60), text("small", 12)
	want, err := decodeRange(nil, b.Data, b.Addr)
	if err != nil {
		t.Fatal(err)
	}
	for round := 0; round < 5; round++ {
		pa, err := DecodeProgramTraced(a.Data, a.Addr, nil, 1, nil)
		if err != nil {
			t.Fatal(err)
		}
		if len(pa.Insts) <= len(want) {
			t.Fatalf("image A has %d instructions, not more than B's %d", len(pa.Insts), len(want))
		}
		pa.Release()
		if pa.Insts != nil {
			t.Fatalf("Insts after Release: %d records, want nil", len(pa.Insts))
		}
		pa.Release() // a second Release is a no-op

		pb, err := DecodeProgramTraced(b.Data, b.Addr, nil, 1, nil)
		if err != nil {
			t.Fatal(err)
		}
		if !slices.Equal(pb.Insts, want) {
			t.Fatalf("round %d: B decoded into a released buffer differs from a fresh decode", round)
		}
		if pb.Base != b.Addr || pb.End != b.Addr+uint64(len(b.Data)) || &pb.Code[0] != &b.Data[0] {
			t.Fatalf("round %d: B's region is [%#x, %#x), want [%#x, %#x) over its own bytes",
				round, pb.Base, pb.End, b.Addr, b.Addr+uint64(len(b.Data)))
		}
		pb.Release()
	}
}
