package x86

import (
	"encoding/binary"
	"fmt"
)

// Fixup is a reference from emitted code to a named symbol, to be resolved
// by the linker (internal/toolchain) once symbol addresses are known. The
// field is a signed 32-bit displacement relative to the end of the 4-byte
// field: a rel32 branch target, or the disp32 of a RIP-relative operand,
// whose base is also the end of the instruction for every form the
// assembler emits.
type Fixup struct {
	Off int    // byte offset of the patch field within the emitted code
	Sym string // target symbol name
}

// Assembler emits x86-64 machine code. It supports local labels (resolved
// when Finish is called) and symbolic fixups (returned unresolved for the
// linker). The zero value is ready to use.
type Assembler struct {
	buf         []byte
	labels      map[string]int
	labelFixups []labelFixup
	fixups      []Fixup
}

type labelFixup struct {
	off   int
	label string
}

// Len returns the number of bytes emitted so far.
func (a *Assembler) Len() int { return len(a.buf) }

// Marks returns the current fixup counts; together with Len it captures a
// rollback point for Truncate.
func (a *Assembler) Marks() (nFixups, nLabelFixups int) {
	return len(a.fixups), len(a.labelFixups)
}

// Truncate rolls the assembler back to a state previously captured with Len
// and Marks. Bundle-aware emitters (internal/toolchain) use it to re-emit
// an instruction after inserting NOP alignment so that no instruction
// crosses a 32-byte boundary, the NaCl constraint EnGarde enforces.
func (a *Assembler) Truncate(n, nFixups, nLabelFixups int) {
	a.buf = a.buf[:n]
	a.fixups = a.fixups[:nFixups]
	a.labelFixups = a.labelFixups[:nLabelFixups]
}

// Raw appends raw bytes verbatim.
func (a *Assembler) Raw(b ...byte) { a.buf = append(a.buf, b...) }

// Label defines a local label at the current position.
func (a *Assembler) Label(name string) {
	if a.labels == nil {
		a.labels = make(map[string]int)
	}
	a.labels[name] = len(a.buf)
}

// Finish resolves local labels and returns the code and the remaining
// symbolic fixups. Symbolic rel32/RIP32 fixups whose symbol happens to be
// defined as a local label are resolved here too (this is how the
// toolchain's musl archive stays internally position-independent);
// absolute fixups and fixups against undefined symbols are returned for
// the linker. The assembler must not be reused afterwards.
func (a *Assembler) Finish() ([]byte, []Fixup, error) {
	patchRel := func(off, target int, what string) error {
		rel := int64(target) - int64(off+4)
		if rel < -1<<31 || rel >= 1<<31 {
			return fmt.Errorf("x86: %s out of rel32 range", what)
		}
		binary.LittleEndian.PutUint32(a.buf[off:], uint32(rel))
		return nil
	}
	for _, lf := range a.labelFixups {
		target, ok := a.labels[lf.label]
		if !ok {
			return nil, nil, fmt.Errorf("x86: undefined label %q", lf.label)
		}
		if err := patchRel(lf.off, target, "label "+lf.label); err != nil {
			return nil, nil, err
		}
	}
	var external []Fixup
	for _, f := range a.fixups {
		target, ok := a.labels[f.Sym]
		if !ok {
			external = append(external, f)
			continue
		}
		if err := patchRel(f.Off, target, "symbol "+f.Sym); err != nil {
			return nil, nil, err
		}
	}
	return a.buf, external, nil
}

func (a *Assembler) imm32(v int32) {
	var b [4]byte
	binary.LittleEndian.PutUint32(b[:], uint32(v))
	a.buf = append(a.buf, b[:]...)
}

func (a *Assembler) imm64(v int64) {
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], uint64(v))
	a.buf = append(a.buf, b[:]...)
}

// rex emits a REX prefix if needed. w selects 64-bit operand size; r, x, b
// are the register numbers whose high bits extend ModRM.reg, SIB.index and
// ModRM.rm/SIB.base respectively (pass 0 when unused).
func (a *Assembler) rex(w bool, r, x, b Reg) {
	v := byte(0x40)
	if w {
		v |= 8
	}
	if r >= 8 {
		v |= 4
	}
	if x >= 8 {
		v |= 2
	}
	if b >= 8 {
		v |= 1
	}
	if v != 0x40 || w {
		a.buf = append(a.buf, v)
	}
}

var segPrefix = map[Seg]byte{SegES: 0x26, SegCS: 0x2E, SegSS: 0x36, SegDS: 0x3E, SegFS: 0x64, SegGS: 0x65}

// modRM emits segment prefix, REX, opcode bytes and a full ModRM/SIB/disp
// sequence addressing mem, with reg in the ModRM.reg field. If mem has
// Base == RegRIP the displacement is either mem.Disp or, when ripSym is
// non-empty, a fixup against that symbol.
func (a *Assembler) memForm(w bool, opcode []byte, reg Reg, mem Mem, ripSym string) {
	if p, ok := segPrefix[mem.Seg]; ok && mem.Seg != SegNone {
		a.buf = append(a.buf, p)
	}
	switch {
	case mem.Base == RegRIP:
		a.rex(w, reg, 0, 0)
		a.buf = append(a.buf, opcode...)
		a.buf = append(a.buf, byte(reg&7)<<3|0x05) // mod=00 rm=101
		if ripSym != "" {
			a.fixups = append(a.fixups, Fixup{Off: len(a.buf), Sym: ripSym})
			a.imm32(0)
		} else {
			a.imm32(int32(mem.Disp))
		}
	case mem.Base == RegNone && mem.Index == RegNone:
		// Absolute: mod=00 rm=100, SIB base=101 index=100, disp32.
		a.rex(w, reg, 0, 0)
		a.buf = append(a.buf, opcode...)
		a.buf = append(a.buf, byte(reg&7)<<3|0x04, 0x25)
		a.imm32(int32(mem.Disp))
	case mem.Base == RegNone:
		// Index-only addressing: SIB with base=101, mod=00, disp32.
		idx := mem.Index
		a.rex(w, reg, idx, 0)
		a.buf = append(a.buf, opcode...)
		a.buf = append(a.buf, byte(reg&7)<<3|0x04)
		var scaleBits byte
		switch mem.Scale {
		case 2:
			scaleBits = 1
		case 4:
			scaleBits = 2
		case 8:
			scaleBits = 3
		}
		a.buf = append(a.buf, scaleBits<<6|byte(idx&7)<<3|0x05)
		a.imm32(int32(mem.Disp))
	default:
		base := mem.Base
		idx := mem.Index
		rexX := Reg(0)
		if idx != RegNone {
			rexX = idx
		}
		a.rex(w, reg, rexX, base)
		a.buf = append(a.buf, opcode...)
		needSIB := idx != RegNone || base&7 == RegSP&7
		var mod byte
		var dispSize int
		switch {
		case mem.Disp == 0 && base&7 != RegBP&7:
			mod, dispSize = 0, 0
		case mem.Disp >= -128 && mem.Disp <= 127:
			mod, dispSize = 1, 1
		default:
			mod, dispSize = 2, 4
		}
		if needSIB {
			a.buf = append(a.buf, mod<<6|byte(reg&7)<<3|0x04)
			sibIdx := byte(0x04) // none
			if idx != RegNone {
				sibIdx = byte(idx & 7)
			}
			var scaleBits byte
			switch mem.Scale {
			case 0, 1:
				scaleBits = 0
			case 2:
				scaleBits = 1
			case 4:
				scaleBits = 2
			case 8:
				scaleBits = 3
			}
			a.buf = append(a.buf, scaleBits<<6|sibIdx<<3|byte(base&7))
		} else {
			a.buf = append(a.buf, mod<<6|byte(reg&7)<<3|byte(base&7))
		}
		switch dispSize {
		case 1:
			a.buf = append(a.buf, byte(mem.Disp))
		case 4:
			a.imm32(int32(mem.Disp))
		}
	}
}

// regForm emits REX + opcode + a mod=11 ModRM byte (register-register).
func (a *Assembler) regForm(w bool, opcode []byte, reg, rm Reg) {
	a.rex(w, reg, 0, rm)
	a.buf = append(a.buf, opcode...)
	a.buf = append(a.buf, 0xC0|byte(reg&7)<<3|byte(rm&7))
}

//
// MOV family
//

// MovRegReg emits mov %src, %dst (64-bit).
func (a *Assembler) MovRegReg(dst, src Reg) { a.regForm(true, []byte{0x89}, src, dst) }

// MovRegReg32 emits the 32-bit form mov %srcd, %dstd.
func (a *Assembler) MovRegReg32(dst, src Reg) { a.regForm(false, []byte{0x89}, src, dst) }

// MovRegImm32 emits mov $imm, %dstd (C7 /0, sign-extended to 64 bits when
// REX.W; here the 32-bit form that zero-extends).
func (a *Assembler) MovRegImm32(dst Reg, imm int32) {
	a.rex(false, 0, 0, dst)
	a.buf = append(a.buf, 0xC7, 0xC0|byte(dst&7))
	a.imm32(imm)
}

// MovRegImm64 emits movabs $imm, %dst (B8+r io).
func (a *Assembler) MovRegImm64(dst Reg, imm int64) {
	a.rex(true, 0, 0, dst)
	a.buf = append(a.buf, 0xB8+byte(dst&7))
	a.imm64(imm)
}

// MovMemReg emits mov %src, mem (89 /r, 64-bit).
func (a *Assembler) MovMemReg(mem Mem, src Reg) { a.memForm(true, []byte{0x89}, src, mem, "") }

// MovRegMem emits mov mem, %dst (8B /r, 64-bit).
func (a *Assembler) MovRegMem(dst Reg, mem Mem) { a.memForm(true, []byte{0x8B}, dst, mem, "") }

// MovRegFS emits mov %fs:disp, %dst — the stack-protector canary load.
func (a *Assembler) MovRegFS(dst Reg, disp int32) {
	a.memForm(true, []byte{0x8B}, dst, Mem{Seg: SegFS, Base: RegNone, Index: RegNone, Disp: int64(disp)}, "")
}

//
// LEA
//

// LeaRIP emits lea disp(%rip), %dst with a symbolic fixup.
func (a *Assembler) LeaRIP(dst Reg, sym string) {
	a.memForm(true, []byte{0x8D}, dst, Mem{Base: RegRIP}, sym)
}

// LeaMem emits lea mem, %dst.
func (a *Assembler) LeaMem(dst Reg, mem Mem) { a.memForm(true, []byte{0x8D}, dst, mem, "") }

//
// Arithmetic and logic
//

// AddRegReg emits add %src, %dst (01 /r).
func (a *Assembler) AddRegReg(dst, src Reg) { a.regForm(true, []byte{0x01}, src, dst) }

// SubRegReg32 emits the 32-bit form sub %srcd, %dstd, as in IFCC's
// "sub %eax, %ecx" guard step.
func (a *Assembler) SubRegReg32(dst, src Reg) { a.regForm(false, []byte{0x29}, src, dst) }

// AndRegImm32 emits and $imm, %dst (81 /4 id, 64-bit).
func (a *Assembler) AndRegImm32(dst Reg, imm int32) {
	a.rex(true, 4, 0, dst)
	a.buf = append(a.buf, 0x81, 0xC0|4<<3|byte(dst&7))
	a.imm32(imm)
}

// AddRegImm8 emits add $imm8, %dst (83 /0 ib).
func (a *Assembler) AddRegImm8(dst Reg, imm int8) {
	a.rex(true, 0, 0, dst)
	a.buf = append(a.buf, 0x83, 0xC0|byte(dst&7), byte(imm))
}

// SubRegImm8 emits sub $imm8, %dst (83 /5 ib).
func (a *Assembler) SubRegImm8(dst Reg, imm int8) {
	a.rex(true, 5, 0, dst)
	a.buf = append(a.buf, 0x83, 0xC0|5<<3|byte(dst&7), byte(imm))
}

// XorRegReg emits xor %src, %dst (31 /r).
func (a *Assembler) XorRegReg(dst, src Reg) { a.regForm(true, []byte{0x31}, src, dst) }

// TestRegReg emits test %src, %dst (85 /r).
func (a *Assembler) TestRegReg(dst, src Reg) { a.regForm(true, []byte{0x85}, src, dst) }

// CmpRegReg emits cmp %src, %dst (39 /r).
func (a *Assembler) CmpRegReg(dst, src Reg) { a.regForm(true, []byte{0x39}, src, dst) }

// CmpRegMem emits cmp mem, %dst (3B /r) — e.g. cmp (%rsp), %rax.
func (a *Assembler) CmpRegMem(dst Reg, mem Mem) { a.memForm(true, []byte{0x3B}, dst, mem, "") }

// CmpRegImm8 emits cmp $imm8, %dst (83 /7 ib).
func (a *Assembler) CmpRegImm8(dst Reg, imm int8) {
	a.rex(true, 7, 0, dst)
	a.buf = append(a.buf, 0x83, 0xC0|7<<3|byte(dst&7), byte(imm))
}

// CmpMem8Imm8 emits cmpb $imm, mem (80 /7 ib) — the shadow-byte test of
// AddressSanitizer-style instrumentation.
func (a *Assembler) CmpMem8Imm8(mem Mem, imm int8) {
	a.memForm(false, []byte{0x80}, 7, mem, "")
	a.buf = append(a.buf, byte(imm))
}

// ImulRegReg emits imul %src, %dst (0F AF /r).
func (a *Assembler) ImulRegReg(dst, src Reg) { a.regForm(true, []byte{0x0F, 0xAF}, dst, src) }

// ShlRegImm8 emits shl $imm, %dst (C1 /4 ib).
func (a *Assembler) ShlRegImm8(dst Reg, imm int8) {
	a.rex(true, 4, 0, dst)
	a.buf = append(a.buf, 0xC1, 0xC0|4<<3|byte(dst&7), byte(imm))
}

// ShrRegImm8 emits shr $imm, %dst (C1 /5 ib).
func (a *Assembler) ShrRegImm8(dst Reg, imm int8) {
	a.rex(true, 5, 0, dst)
	a.buf = append(a.buf, 0xC1, 0xC0|5<<3|byte(dst&7), byte(imm))
}

//
// Stack
//

// PushReg emits push %r.
func (a *Assembler) PushReg(r Reg) {
	a.rex(false, 0, 0, r)
	a.buf = append(a.buf, 0x50+byte(r&7))
}

// PopReg emits pop %r.
func (a *Assembler) PopReg(r Reg) {
	a.rex(false, 0, 0, r)
	a.buf = append(a.buf, 0x58+byte(r&7))
}

//
// Control transfer
//

// CallSym emits call rel32 against a symbol.
func (a *Assembler) CallSym(sym string) {
	a.buf = append(a.buf, 0xE8)
	a.fixups = append(a.fixups, Fixup{Off: len(a.buf), Sym: sym})
	a.imm32(0)
}

// CallReg emits call *%r (FF /2).
func (a *Assembler) CallReg(r Reg) {
	a.rex(false, 2, 0, r)
	a.buf = append(a.buf, 0xFF, 0xC0|2<<3|byte(r&7))
}

// JmpSym emits jmp rel32 against a symbol.
func (a *Assembler) JmpSym(sym string) {
	a.buf = append(a.buf, 0xE9)
	a.fixups = append(a.fixups, Fixup{Off: len(a.buf), Sym: sym})
	a.imm32(0)
}

// JmpLabel emits jmp rel32 to a local label.
func (a *Assembler) JmpLabel(label string) {
	a.buf = append(a.buf, 0xE9)
	a.labelFixups = append(a.labelFixups, labelFixup{off: len(a.buf), label: label})
	a.imm32(0)
}

// JccLabel emits a conditional jump (rel32 form) to a local label.
func (a *Assembler) JccLabel(c Cond, label string) {
	a.buf = append(a.buf, 0x0F, 0x80+byte(c))
	a.labelFixups = append(a.labelFixups, labelFixup{off: len(a.buf), label: label})
	a.imm32(0)
}

// Ret emits ret.
func (a *Assembler) Ret() { a.buf = append(a.buf, 0xC3) }

// Syscall emits syscall (0F 05).
func (a *Assembler) Syscall() { a.buf = append(a.buf, 0x0F, 0x05) }

// Ud2 emits ud2.
func (a *Assembler) Ud2() { a.buf = append(a.buf, 0x0F, 0x0B) }

//
// Padding
//

// nopSeqs are the canonical Intel-recommended multi-byte NOP encodings.
var nopSeqs = [...][]byte{
	1: {0x90},
	2: {0x66, 0x90},
	3: {0x0F, 0x1F, 0x00},
	4: {0x0F, 0x1F, 0x40, 0x00},
	5: {0x0F, 0x1F, 0x44, 0x00, 0x00},
	6: {0x66, 0x0F, 0x1F, 0x44, 0x00, 0x00},
	7: {0x0F, 0x1F, 0x80, 0x00, 0x00, 0x00, 0x00},
	8: {0x0F, 0x1F, 0x84, 0x00, 0x00, 0x00, 0x00, 0x00},
	9: {0x66, 0x0F, 0x1F, 0x84, 0x00, 0x00, 0x00, 0x00, 0x00},
}

// Nop emits n bytes of NOP padding using the canonical multi-byte forms.
func (a *Assembler) Nop(n int) {
	for n > 0 {
		k := n
		if k > 9 {
			k = 9
		}
		a.buf = append(a.buf, nopSeqs[k]...)
		n -= k
	}
}

// NopModRM emits the 3-byte "nopl (%rax)" used as a jump-table entry filler
// in LLVM's IFCC jump tables.
func (a *Assembler) NopModRM() { a.buf = append(a.buf, 0x0F, 0x1F, 0x00) }
