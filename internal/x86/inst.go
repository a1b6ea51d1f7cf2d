package x86

import (
	"fmt"
	"strings"
)

// Inst is a single decoded x86-64 instruction. Besides the mnemonic it
// records the byte-level layout metadata that NaCl's disassembler tracks
// (number of prefix, opcode, displacement and immediate bytes), which
// EnGarde exposes to its policy modules (paper §4).
//
// Inst is a 40-byte record with no pointers: a decoded program is one flat
// allocation the garbage collector never scans. It keeps the encoding's
// fields, not its interpretation. The encoded bytes are not stored (a
// Program serves them from its code buffer), and the operands are derived
// on demand by Arg and NArgs from ModRM, SIB, REX, the opcode byte and the
// operand recipe the decoder resolved.
type Inst struct {
	Addr uint64 // virtual address of the first byte
	Imm  int64  // sign-extended primary immediate (also branch displacement)
	Disp int32  // sign-extended ModRM/SIB displacement

	Op   Op
	Len  uint8 // total encoded length in bytes (at most 15)
	Cond Cond  // condition code for Jcc/SETcc/CMOVcc

	// Byte-layout metadata (NaCl-style).
	NumPrefix uint8 // legacy + REX prefix bytes
	NumOpcode uint8 // opcode bytes (1-3)
	NumDisp   uint8 // displacement bytes
	NumImm    uint8 // immediate bytes

	REX   byte // REX prefix value, 0 if absent
	ModRM byte // valid when Has(FlagModRM)
	SIB   byte // valid when Has(FlagSIB)
	Seg   Seg  // segment-override prefix, SegNone if absent
	Flags Flags
	Imm2  uint8 // second immediate (ENTER only)

	// form packs the operand recipe (an argsKind resolved through any
	// opcode group) with formByte for byte-sized forms.
	form   uint8
	opcode byte // last opcode byte: opcode-encoded registers, movzx/movsx and moffs forms
}

// Inst.form layout: the recipe in the low nibble, formByte for byte forms.
const (
	formArgs = 0x0F
	formByte = 0x80
)

// Flags holds an instruction's presence bits and legacy prefixes.
type Flags uint8

// Flag bits.
const (
	FlagModRM    Flags = 1 << iota // a ModRM byte follows the opcode
	FlagSIB                        // a SIB byte follows ModRM
	FlagLock                       // F0 prefix
	FlagRepF2                      // F2 prefix
	FlagRepF3                      // F3 prefix
	FlagOpSize16                   // 66 prefix
	FlagAddr32                     // 67 prefix
)

// Has reports whether every bit of f is set on the instruction.
func (in *Inst) Has(f Flags) bool { return in.Flags&f == f }

func (in *Inst) args() argsKind { return argsKind(in.form & formArgs) }

// width returns the operand width in bytes of the instruction's form:
// 1 for byte forms, else as implied by REX.W, the 66 prefix, and the
// 64-bit default of push, pop and the indirect branches.
func (in *Inst) width() uint8 {
	switch {
	case in.form&formByte != 0:
		return 1
	case in.REX&0x08 != 0:
		return 8
	case in.Has(FlagOpSize16):
		return 2
	}
	switch in.Op {
	case OpPush, OpPop, OpCallInd, OpJmpInd:
		return 8
	}
	return 4
}

// argSrc names where one operand of a recipe comes from.
type argSrc uint8

const (
	srcNone  argSrc = iota
	srcReg          // ModRM.reg, extended by REX.R
	srcRM           // ModRM.rm: a register or a memory reference
	srcAcc          // the accumulator
	srcOpReg        // the opcode's low three bits, extended by REX.B
	srcImm          // the primary immediate
	srcOne          // the constant 1 (shift by one)
	srcCL           // %cl (shift by CL)
	srcMoffs        // a moffs direct address
)

// recipes maps each operand recipe to its destination and source. It has
// an entry for every value of the form's recipe nibble.
var recipes = [formArgs + 1][2]argSrc{
	argsRMtoR:    {srcReg, srcRM},
	argsRtoRM:    {srcRM, srcReg},
	argsAccImm:   {srcAcc, srcImm},
	argsRMImm:    {srcRM, srcImm},
	argsRM:       {srcRM},
	argsOpReg:    {srcOpReg},
	argsOpRegImm: {srcOpReg, srcImm},
	argsRel:      {},
	argsRRMImm:   {srcReg, srcRM},
	argsRMOne:    {srcRM, srcOne},
	argsRMCl:     {srcRM, srcCL},
	argsMoffs:    {srcAcc, srcMoffs}, // A0/A1 load; A2/A3 store swap them
	argsXchgAcc:  {srcAcc, srcOpReg},
	argsImmOnly:  {},
}

// NArgs returns how many operands Arg serves. Operands are stored
// destination first, the order the policy matchers reason in.
func (in *Inst) NArgs() int {
	r := &recipes[in.args()]
	switch {
	case r[1] != srcNone:
		return 2
	case r[0] != srcNone:
		return 1
	}
	return 0
}

// Arg derives operand i (0 is the destination, 1 the source). It returns
// the zero Operand when i >= NArgs(). Branches, PUSH imm, RET imm16 and
// the other immediate-only forms have no operands: their immediate is
// Inst.Imm.
func (in *Inst) Arg(i int) Operand {
	if uint(i) > 1 {
		return Operand{}
	}
	args := in.args()
	if args == argsMoffs && in.opcode > 0xA1 {
		i ^= 1
	}
	switch recipes[args][i] {
	case srcReg:
		return in.gpr(Reg((in.ModRM>>3)&7)|in.rexR(), in.width())
	case srcRM:
		w := in.width()
		if args == argsRMtoR && i == 1 {
			// movzx/movsx/movsxd read a narrower source.
			switch in.Op {
			case OpMovzx, OpMovsx:
				w = 2
				if in.opcode == 0xB6 || in.opcode == 0xBE {
					w = 1
				}
			case OpMovsxd:
				w = 4
			}
		}
		return in.rmOperand(w)
	case srcAcc:
		return in.gpr(RegAX, in.width())
	case srcOpReg:
		return in.gpr(Reg(in.opcode&7)|in.rexB(), in.width())
	case srcImm:
		return Operand{Kind: KindImm, Imm: in.Imm}
	case srcOne:
		return Operand{Kind: KindImm, Imm: 1}
	case srcCL:
		return in.gpr(RegCX, 1)
	case srcMoffs:
		return Operand{Kind: KindMem, Width: in.width(), Mem: Mem{
			Seg: in.Seg, Base: RegNone, Index: RegNone, Scale: 1,
			Disp: in.Imm, Direct: true,
		}}
	}
	return Operand{}
}

// rexR, rexX, rexB extract the register-extension bits of the REX prefix,
// already shifted into bit 3 of a register number.
func (in *Inst) rexR() Reg { return Reg((in.REX>>2)&1) << 3 }
func (in *Inst) rexX() Reg { return Reg((in.REX>>1)&1) << 3 }
func (in *Inst) rexB() Reg { return Reg(in.REX&1) << 3 }

// gpr builds a register operand, honouring the legacy AH/CH/DH/BH encodings
// when no REX prefix is present on a byte-sized operand.
func (in *Inst) gpr(r Reg, width uint8) Operand {
	if width == 1 && in.REX == 0 && r >= 4 && r <= 7 {
		return Operand{Kind: KindReg, Reg: r, Width: 1, High8: true}
	}
	return Operand{Kind: KindReg, Reg: r, Width: width}
}

func (in *Inst) rmOperand(width uint8) Operand {
	mod := in.ModRM >> 6
	rm := Reg(in.ModRM & 7)
	if mod == 3 {
		return in.gpr(rm|in.rexB(), width)
	}
	m := Mem{Seg: in.Seg, Base: RegNone, Index: RegNone, Scale: 1, Disp: int64(in.Disp)}
	switch {
	case rm == 4: // SIB
		sib := in.SIB
		idx := Reg((sib>>3)&7) | in.rexX()
		m.Scale = 1 << (sib >> 6)
		// index=100b without REX.X means "no index"; with REX.X the same
		// bits name R12, which idx already reflects.
		if idx != RegSP {
			m.Index = idx
		}
		if sib&7 != 5 || mod != 0 { // else no base register, disp32 only
			m.Base = Reg(sib&7) | in.rexB()
		}
	case rm == 5 && mod == 0: // RIP-relative
		m.Base = RegRIP
	default:
		m.Base = rm | in.rexB()
	}
	return Operand{Kind: KindMem, Width: width, Mem: m}
}

// BranchTarget returns the absolute target of a direct (relative) control
// transfer, and whether the instruction has one.
func (in *Inst) BranchTarget() (uint64, bool) {
	switch in.Op {
	case OpCall, OpJmp, OpJcc, OpLoop, OpJrcxz:
		if in.NumImm > 0 {
			return in.Addr + uint64(in.Len) + uint64(in.Imm), true
		}
	}
	return 0, false
}

// IsDirectCall reports whether the instruction is a near direct call.
func (in *Inst) IsDirectCall() bool { return in.Op == OpCall }

// IsIndirectCall reports whether the instruction is an indirect call
// through a register or memory operand (FF /2).
func (in *Inst) IsIndirectCall() bool { return in.Op == OpCallInd }

// RIPTarget returns the absolute address referenced by a RIP-relative
// memory operand, and whether the instruction has one. Only a ModRM r/m
// operand with mod=00, rm=101 is RIP-relative.
func (in *Inst) RIPTarget() (uint64, bool) {
	r := &recipes[in.args()]
	if (r[0] == srcRM || r[1] == srcRM) && in.ModRM&0xC7 == 0x05 {
		return in.Addr + uint64(in.Len) + uint64(int64(in.Disp)), true
	}
	return 0, false
}

// String renders the instruction in a compact AT&T-flavoured syntax,
// operands printed src,dst like GNU as.
func (in *Inst) String() string {
	var b strings.Builder
	b.WriteString(in.mnemonic())
	if n := in.NArgs(); n > 0 {
		b.WriteByte(' ')
		// AT&T prints source first: reverse our dst-first order.
		for i := n - 1; i >= 0; i-- {
			b.WriteString(formatOperand(in.Arg(i)))
			if i > 0 {
				b.WriteString(", ")
			}
		}
	} else if in.NumImm > 0 {
		if t, ok := in.BranchTarget(); ok {
			fmt.Fprintf(&b, " 0x%x", t)
		} else {
			fmt.Fprintf(&b, " $0x%x", in.Imm)
		}
	}
	return b.String()
}

func (in *Inst) mnemonic() string {
	switch in.Op {
	case OpJcc:
		return "j" + in.Cond.String()
	case OpSetcc:
		return "set" + in.Cond.String()
	case OpCmovcc:
		return "cmov" + in.Cond.String()
	default:
		return in.Op.String()
	}
}

func formatOperand(o Operand) string {
	switch o.Kind {
	case KindReg:
		if o.High8 {
			return "%" + [4]string{"ah", "ch", "dh", "bh"}[o.Reg-4]
		}
		return "%" + o.Reg.Name(int(o.Width))
	case KindImm:
		return fmt.Sprintf("$0x%x", o.Imm)
	case KindMem:
		var b strings.Builder
		if o.Mem.Seg != SegNone {
			fmt.Fprintf(&b, "%%%s:", o.Mem.Seg)
		}
		if o.Mem.Disp != 0 || (o.Mem.Base == RegNone && o.Mem.Index == RegNone) {
			fmt.Fprintf(&b, "0x%x", o.Mem.Disp)
		}
		if o.Mem.Base != RegNone || o.Mem.Index != RegNone {
			b.WriteByte('(')
			if o.Mem.Base != RegNone {
				b.WriteString("%" + o.Mem.Base.Name(8))
			}
			if o.Mem.Index != RegNone {
				fmt.Fprintf(&b, ",%%%s,%d", o.Mem.Index.Name(8), o.Mem.Scale)
			}
			b.WriteByte(')')
		}
		return b.String()
	default:
		return "?"
	}
}
