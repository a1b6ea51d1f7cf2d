package x86

import (
	"math/rand"
	"testing"
	"testing/quick"
)

// genReg draws a general-purpose register, optionally excluding RSP/RBP
// whose encodings take special ModRM paths.
func genReg(r *rand.Rand, excludeSpecial bool) Reg {
	for {
		reg := Reg(r.Intn(16))
		if excludeSpecial && (reg == RegSP || reg == RegBP || reg == RegR12 || reg == RegR13) {
			continue
		}
		return reg
	}
}

// emitRandomInst appends one random instruction via the assembler and
// returns a closure that checks the decoded form matches.
func emitRandomInst(a *Assembler, r *rand.Rand) func(t *testing.T, in Inst) {
	switch r.Intn(14) {
	case 0:
		dst, src := Reg(r.Intn(16)), Reg(r.Intn(16))
		a.MovRegReg(dst, src)
		return func(t *testing.T, in Inst) {
			if in.Op != OpMov || !in.Arg(0).IsReg(dst) || !in.Arg(1).IsReg(src) {
				t.Errorf("mov %v,%v decoded as %v", src, dst, in.String())
			}
		}
	case 1:
		dst := Reg(r.Intn(16))
		imm := int64(r.Uint64())
		a.MovRegImm64(dst, imm)
		return func(t *testing.T, in Inst) {
			if in.Op != OpMov || in.Imm != imm || !in.Arg(0).IsReg(dst) {
				t.Errorf("movabs decoded as %v imm %#x", in.String(), in.Imm)
			}
		}
	case 2:
		dst, src := Reg(r.Intn(16)), Reg(r.Intn(16))
		a.AddRegReg(dst, src)
		return func(t *testing.T, in Inst) {
			if in.Op != OpAdd || !in.Arg(0).IsReg(dst) || !in.Arg(1).IsReg(src) {
				t.Errorf("add decoded as %v", in.String())
			}
		}
	case 3:
		dst := Reg(r.Intn(16))
		imm := int32(r.Int31())
		a.AndRegImm32(dst, imm)
		return func(t *testing.T, in Inst) {
			if in.Op != OpAnd || in.Imm != int64(imm) || !in.Arg(0).IsReg(dst) {
				t.Errorf("and decoded as %v imm %#x want %#x", in.String(), in.Imm, imm)
			}
		}
	case 4:
		reg := Reg(r.Intn(16))
		a.PushReg(reg)
		return func(t *testing.T, in Inst) {
			if in.Op != OpPush || !in.Arg(0).IsReg(reg) {
				t.Errorf("push decoded as %v", in.String())
			}
		}
	case 5:
		reg := Reg(r.Intn(16))
		a.PopReg(reg)
		return func(t *testing.T, in Inst) {
			if in.Op != OpPop || !in.Arg(0).IsReg(reg) {
				t.Errorf("pop decoded as %v", in.String())
			}
		}
	case 6:
		dst := genReg(r, true)
		base := genReg(r, true)
		disp := int64(int8(r.Intn(256)))
		a.MovRegMem(dst, Mem{Base: base, Index: RegNone, Disp: disp})
		return func(t *testing.T, in Inst) {
			if in.Op != OpMov || !in.Arg(0).IsReg(dst) || !in.Arg(1).IsMemBaseDisp(base, disp) {
				t.Errorf("mov mem decoded as %v, want base %v disp %#x", in.String(), base, disp)
			}
		}
	case 7:
		src := genReg(r, true)
		base := genReg(r, true)
		disp := int64(r.Int31())
		a.MovMemReg(Mem{Base: base, Index: RegNone, Disp: disp}, src)
		return func(t *testing.T, in Inst) {
			if in.Op != OpMov || !in.Arg(0).IsMemBaseDisp(base, disp) || !in.Arg(1).IsReg(src) {
				t.Errorf("mov →mem decoded as %v", in.String())
			}
		}
	case 8:
		reg := Reg(r.Intn(16))
		a.CallReg(reg)
		return func(t *testing.T, in Inst) {
			if !in.IsIndirectCall() || !in.Arg(0).IsReg(reg) {
				t.Errorf("call* decoded as %v", in.String())
			}
		}
	case 9:
		a.Ret()
		return func(t *testing.T, in Inst) {
			if in.Op != OpRet {
				t.Errorf("ret decoded as %v", in.String())
			}
		}
	case 10:
		dst, src := Reg(r.Intn(16)), Reg(r.Intn(16))
		a.XorRegReg(dst, src)
		return func(t *testing.T, in Inst) {
			if in.Op != OpXor {
				t.Errorf("xor decoded as %v", in.String())
			}
		}
	case 11:
		dst := Reg(r.Intn(16))
		imm := int8(r.Intn(128))
		a.SubRegImm8(dst, imm)
		return func(t *testing.T, in Inst) {
			if in.Op != OpSub || in.Imm != int64(imm) {
				t.Errorf("sub imm8 decoded as %v", in.String())
			}
		}
	case 12:
		dst := genReg(r, true)
		base, idx := genReg(r, true), genReg(r, true)
		scale := uint8(1 << r.Intn(4))
		a.LeaMem(dst, Mem{Base: base, Index: idx, Scale: scale, Disp: 0x40})
		return func(t *testing.T, in Inst) {
			if in.Op != OpLea || in.Arg(1).Mem.Index != idx || in.Arg(1).Mem.Scale != scale {
				t.Errorf("lea SIB decoded as %v (want idx %v scale %d)", in.String(), idx, scale)
			}
		}
	default:
		n := 1 + r.Intn(9)
		a.Nop(n)
		return func(t *testing.T, in Inst) {
			if in.Op != OpNop || int(in.Len) != n {
				t.Errorf("nop(%d) decoded as %v len %d", n, in.Op, in.Len)
			}
		}
	}
}

// TestQuickRoundTrip asserts that any program the assembler can emit is
// decoded back instruction-for-instruction — the invariant that makes the
// synthetic toolchain's output disassemblable by EnGarde by construction.
func TestQuickRoundTrip(t *testing.T) {
	f := func(seed int64, n uint8) bool {
		r := rand.New(rand.NewSource(seed))
		count := int(n%32) + 1
		var a Assembler
		checks := make([]func(*testing.T, Inst), 0, count)
		for i := 0; i < count; i++ {
			checks = append(checks, emitRandomInst(&a, r))
		}
		code, fixups, err := a.Finish()
		if err != nil {
			t.Fatalf("Finish: %v", err)
		}
		if len(fixups) != 0 {
			t.Fatalf("unexpected fixups: %v", fixups)
		}
		insts, err := DecodeAll(code, 0x1000)
		if err != nil {
			t.Errorf("seed %d: DecodeAll: %v", seed, err)
			return false
		}
		if len(insts) != count {
			t.Errorf("seed %d: decoded %d instructions, want %d", seed, len(insts), count)
			return false
		}
		for i, check := range checks {
			check(t, insts[i])
		}
		return !t.Failed()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// TestQuickDecodeNeverPanics feeds random bytes to the decoder; it must
// return an Inst or an error but never panic and never report a length
// beyond the input or the architectural limit.
func TestQuickDecodeNeverPanics(t *testing.T) {
	f := func(code []byte) bool {
		in, err := Decode(code, 0x400000)
		if err != nil {
			return true
		}
		if in.Len == 0 || int(in.Len) > len(code) || in.Len > 15 {
			t.Errorf("Decode(% x): bad length %d", code, in.Len)
			return false
		}
		sum := in.NumPrefix + in.NumOpcode + in.NumDisp + in.NumImm
		if in.Has(FlagModRM) {
			sum++
		}
		if in.Has(FlagSIB) {
			sum++
		}
		if sum != in.Len {
			t.Errorf("Decode(% x): layout sum %d != len %d", code[:in.Len], sum, in.Len)
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 5000}); err != nil {
		t.Error(err)
	}
}

func TestLabelBranches(t *testing.T) {
	var a Assembler
	a.Label("top")
	a.Nop(1)
	a.JccLabel(CondNE, "top")
	a.JmpLabel("end")
	a.Nop(5)
	a.Label("end")
	a.Ret()
	code, _, err := a.Finish()
	if err != nil {
		t.Fatal(err)
	}
	insts, err := DecodeAll(code, 0x1000)
	if err != nil {
		t.Fatal(err)
	}
	// insts: nop, jne top, jmp end, nop(5), ret
	if tgt, _ := insts[1].BranchTarget(); tgt != 0x1000 {
		t.Errorf("jne target = %#x, want 0x1000", tgt)
	}
	if tgt, _ := insts[2].BranchTarget(); tgt != 0x1000+uint64(len(code)-1) {
		t.Errorf("jmp target = %#x, want %#x", tgt, 0x1000+len(code)-1)
	}
}

func TestUndefinedLabel(t *testing.T) {
	var a Assembler
	a.JmpLabel("nowhere")
	if _, _, err := a.Finish(); err == nil {
		t.Error("expected undefined-label error")
	}
}
