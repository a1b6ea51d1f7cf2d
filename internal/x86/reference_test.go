package x86

// This file keeps the decoder as it stood before the compact instruction
// record: a 208-byte Inst carrying a Raw slice and eagerly decoded operands.
// It is the oracle of the differential tests (differential_test.go and
// FuzzDecode). Apart from the ref prefix on its identifiers it is verbatim;
// it shares only the opcode tables and the operand types with the decoder
// under test.

import (
	"fmt"
	"strings"
)

// refDecode decodes the instruction starting at code[0], assumed to reside at
// virtual address addr. The returned refInst aliases code for its Raw field.
func refDecode(code []byte, addr uint64) (refInst, error) {
	var d refDecoder
	d.code = code
	d.inst.Addr = addr
	if err := d.run(); err != nil {
		return refInst{}, err
	}
	return d.inst, nil
}

// refDecodeAll decodes a contiguous code region into a slice of instructions.
// Decoding stops at the first error, which is returned along with the
// instructions decoded so far and the offset at which the error occurred.
func refDecodeAll(code []byte, addr uint64) ([]refInst, error) {
	insts := make([]refInst, 0, len(code)/4)
	off := 0
	for off < len(code) {
		in, err := refDecode(code[off:], addr+uint64(off))
		if err != nil {
			return insts, fmt.Errorf("at 0x%x: %w", addr+uint64(off), err)
		}
		insts = append(insts, in)
		off += in.Len
	}
	return insts, nil
}

type refDecoder struct {
	code []byte
	pos  int
	inst refInst

	rexPresent bool
	opcodeByte byte // last opcode byte, for opcode-encoded registers
}

func (d *refDecoder) byteAt(i int) (byte, error) {
	if i >= len(d.code) {
		return 0, ErrTruncated
	}
	if i >= maxInstLen {
		return 0, ErrTooLong
	}
	return d.code[i], nil
}

func (d *refDecoder) next() (byte, error) {
	b, err := d.byteAt(d.pos)
	if err != nil {
		return 0, err
	}
	d.pos++
	return b, nil
}

func (d *refDecoder) run() error {
	if err := d.prefixes(); err != nil {
		return err
	}
	ent, err := d.opcode()
	if err != nil {
		return err
	}
	if !ent.valid {
		return fmt.Errorf("%w: %#02x map bytes %v", ErrInvalidOpcode, d.code[:min(d.pos, len(d.code))], d.inst.NumOpcode)
	}
	if ent.modrm {
		if err := d.modrm(); err != nil {
			return err
		}
	}
	// Resolve group opcodes now that ModRM.reg is known.
	if ent.grp != groupNone {
		var gerr error
		ent, gerr = d.resolveGroup(ent)
		if gerr != nil {
			return gerr
		}
	}
	d.inst.Op = ent.op
	if err := d.immediates(ent); err != nil {
		return err
	}
	d.operands(ent)
	d.inst.Len = d.pos
	d.inst.Raw = d.code[:d.pos]
	return nil
}

// prefixes consumes legacy prefixes followed by an optional REX prefix.
func (d *refDecoder) prefixes() error {
	for {
		b, err := d.byteAt(d.pos)
		if err != nil {
			return err
		}
		switch b {
		case 0xF0:
			d.inst.Lock = true
		case 0xF2:
			d.inst.RepF2 = true
		case 0xF3:
			d.inst.RepF3 = true
		case 0x66:
			d.inst.OpSize16 = true
		case 0x67:
			d.inst.Addr32 = true
		case 0x26:
			d.inst.Seg = SegES
		case 0x2E:
			d.inst.Seg = SegCS
		case 0x36:
			d.inst.Seg = SegSS
		case 0x3E:
			d.inst.Seg = SegDS
		case 0x64:
			d.inst.Seg = SegFS
		case 0x65:
			d.inst.Seg = SegGS
		default:
			if b&0xF0 == 0x40 { // REX: must immediately precede the opcode
				d.inst.REX = b
				d.rexPresent = true
				d.pos++
				d.inst.NumPrefix = d.pos
				return nil
			}
			d.inst.NumPrefix = d.pos
			return nil
		}
		d.pos++
	}
}

// refInvalid64 marks one-byte opcodes that #UD in 64-bit mode.
var refInvalid64 = map[byte]bool{
	0x06: true, 0x07: true, 0x0E: true, 0x16: true, 0x17: true,
	0x1E: true, 0x1F: true, 0x27: true, 0x2F: true, 0x37: true,
	0x3F: true, 0x60: true, 0x61: true, 0x62: true, 0x82: true,
	0x9A: true, 0xC4: true, 0xC5: true, 0xD4: true, 0xD5: true,
	0xD6: true, 0xEA: true,
}

func (d *refDecoder) opcode() (entry, error) {
	b, err := d.next()
	if err != nil {
		return entry{}, err
	}
	if b != 0x0F {
		if refInvalid64[b] {
			return entry{}, fmt.Errorf("%w: opcode %#02x is undefined in 64-bit mode", ErrInvalidOpcode, b)
		}
		d.inst.NumOpcode = 1
		ent := oneByte[b]
		d.deriveCond(b, ent)
		d.opcodeByte = b
		return ent, nil
	}
	b2, err := d.next()
	if err != nil {
		return entry{}, err
	}
	switch b2 {
	case 0x38: // three-byte map: ModRM, no immediate
		b3, err := d.next()
		if err != nil {
			return entry{}, err
		}
		_ = b3
		d.inst.NumOpcode = 3
		d.opcodeByte = b3
		return e(OpSSE, argsRM, immNone, true), nil
	case 0x3A: // three-byte map: ModRM + imm8
		b3, err := d.next()
		if err != nil {
			return entry{}, err
		}
		_ = b3
		d.inst.NumOpcode = 3
		d.opcodeByte = b3
		return e(OpSSE, argsRM, imm8, true), nil
	default:
		d.inst.NumOpcode = 2
		ent := twoByte[b2]
		d.deriveCond(b2, ent)
		d.opcodeByte = b2
		return ent, nil
	}
}

func (d *refDecoder) deriveCond(opcodeByte byte, ent entry) {
	switch ent.op {
	case OpJcc, OpSetcc, OpCmovcc:
		d.inst.Cond = Cond(opcodeByte & 0x0F)
	}
}

func (d *refDecoder) resolveGroup(ent entry) (entry, error) {
	reg := (d.inst.ModRM >> 3) & 7
	switch ent.grp {
	case group1:
		ent.op = group1Ops[reg]
		ent.args = argsRMImm
	case group1A:
		if reg != 0 {
			return entry{}, fmt.Errorf("%w: 8F /%d", ErrInvalidOpcode, reg)
		}
		ent.op = OpPop
	case group2:
		ent.op = group2Ops[reg]
		if ent.args == argsRM && ent.imm != immNone {
			ent.args = argsRMImm
		}
	case group3:
		ent.op = group3Ops[reg]
		if reg <= 1 { // TEST r/m, imm
			ent.args = argsRMImm
			if ent.width8 {
				ent.imm = imm8
			} else {
				ent.imm = immZ
			}
		}
	case group4:
		ent.op = group4Ops[reg]
	case group5:
		ent.op = group5Ops[reg]
	case group8:
		ent.op = group8Ops[reg]
		ent.args = argsRMImm
	case group9:
		ent.op = OpCmpxchg // cmpxchg8b/16b; rdrand/rdseed share the cell
		if (d.inst.ModRM>>6)&3 == 3 {
			ent.op = OpOther
		}
	case group15:
		ent.op = OpFence
	}
	if ent.op == OpInvalid {
		return entry{}, fmt.Errorf("%w: group opcode with /%d", ErrInvalidOpcode, reg)
	}
	return ent, nil
}

func (d *refDecoder) modrm() error {
	m, err := d.next()
	if err != nil {
		return err
	}
	d.inst.HasModRM = true
	d.inst.ModRM = m
	mod := m >> 6
	rm := m & 7

	if mod == 3 {
		return nil // register operand, no SIB/disp
	}

	dispSize := 0
	switch mod {
	case 0:
		if rm == 5 { // RIP-relative
			dispSize = 4
		}
	case 1:
		dispSize = 1
	case 2:
		dispSize = 4
	}

	if rm == 4 { // SIB byte
		sib, err := d.next()
		if err != nil {
			return err
		}
		d.inst.HasSIB = true
		d.inst.SIB = sib
		if mod == 0 && sib&7 == 5 { // no base, disp32
			dispSize = 4
		}
	}

	if dispSize > 0 {
		v, err := d.readLE(dispSize)
		if err != nil {
			return err
		}
		d.inst.Disp = refSignExtend(v, dispSize)
		d.inst.NumDisp = dispSize
	}
	return nil
}

func (d *refDecoder) readLE(n int) (uint64, error) {
	var v uint64
	for i := 0; i < n; i++ {
		b, err := d.next()
		if err != nil {
			return 0, err
		}
		v |= uint64(b) << (8 * i)
	}
	return v, nil
}

func refSignExtend(v uint64, n int) int64 {
	shift := uint(64 - 8*n)
	return int64(v<<shift) >> shift
}

func (d *refDecoder) immediates(ent entry) error {
	size := 0
	switch ent.imm {
	case immNone:
		return nil
	case imm8, immRel8:
		size = 1
	case imm16:
		size = 2
	case immZ, immRelZ:
		if d.inst.OpSize16 && ent.imm == immZ {
			size = 2
		} else {
			size = 4
		}
	case immV:
		switch {
		case d.inst.REX&0x08 != 0:
			size = 8
		case d.inst.OpSize16:
			size = 2
		default:
			size = 4
		}
	case immEnter:
		v, err := d.readLE(2)
		if err != nil {
			return err
		}
		d.inst.Imm = int64(v)
		v2, err := d.readLE(1)
		if err != nil {
			return err
		}
		d.inst.Imm2 = int64(v2)
		d.inst.NumImm = 3
		return nil
	case immMoffs:
		size = 8
		if d.inst.Addr32 {
			size = 4
		}
	}
	v, err := d.readLE(size)
	if err != nil {
		return err
	}
	d.inst.Imm = refSignExtend(v, size)
	d.inst.NumImm = size
	return nil
}

// rexR, rexX, rexB extract the register-extension bits of the REX prefix,
// already shifted into bit 3 of a register number.
func (d *refDecoder) rexR() Reg { return Reg((d.inst.REX>>2)&1) << 3 }
func (d *refDecoder) rexX() Reg { return Reg((d.inst.REX>>1)&1) << 3 }
func (d *refDecoder) rexB() Reg { return Reg(d.inst.REX&1) << 3 }

func (d *refDecoder) regOperand(width uint8) Operand {
	r := Reg((d.inst.ModRM>>3)&7) | d.rexR()
	return d.gpr(r, width)
}

// gpr builds a register operand, honouring the legacy AH/CH/DH/BH encodings
// when no REX prefix is present on a byte-sized operand.
func (d *refDecoder) gpr(r Reg, width uint8) Operand {
	if width == 1 && !d.rexPresent && r >= 4 && r <= 7 {
		return Operand{Kind: KindReg, Reg: r, Width: 1, High8: true}
	}
	return Operand{Kind: KindReg, Reg: r, Width: width}
}

func (d *refDecoder) rmOperand(width uint8) Operand {
	mod := d.inst.ModRM >> 6
	rm := Reg(d.inst.ModRM & 7)
	if mod == 3 {
		return d.gpr(rm|d.rexB(), width)
	}
	m := Mem{Seg: d.inst.Seg, Base: RegNone, Index: RegNone, Scale: 1, Disp: d.inst.Disp}
	switch {
	case rm == 4: // SIB
		sib := d.inst.SIB
		base := Reg(sib&7) | d.rexB()
		idx := Reg((sib>>3)&7) | d.rexX()
		m.Scale = 1 << (sib >> 6)
		// index=100b without REX.X means "no index"; with REX.X the same
		// bits name R12, which idx already reflects.
		if idx != RegSP {
			m.Index = idx
		}
		if sib&7 == 5 && mod == 0 {
			// no base register, disp32 only
		} else {
			m.Base = base
		}
	case rm == 5 && mod == 0: // RIP-relative
		m.Base = RegRIP
	default:
		m.Base = rm | d.rexB()
	}
	return Operand{Kind: KindMem, Width: width, Mem: m}
}

func (d *refDecoder) operands(ent entry) {
	width := uint8(0)
	if ent.width8 {
		width = 1
	} else {
		def64 := false
		switch ent.op {
		case OpPush, OpPop, OpCallInd, OpJmpInd:
			def64 = true
		}
		width = d.inst.width(def64)
	}

	set2 := func(dst, src Operand) {
		d.inst.Args[0] = dst
		d.inst.Args[1] = src
		d.inst.NArgs = 2
	}
	set1 := func(o Operand) {
		d.inst.Args[0] = o
		d.inst.NArgs = 1
	}

	switch ent.args {
	case argsRMtoR:
		srcW := width
		// movzx/movsx/movsxd read a narrower source.
		switch {
		case d.inst.Op == OpMovzx || d.inst.Op == OpMovsx:
			if d.opcodeByte == 0xB6 || d.opcodeByte == 0xBE {
				srcW = 1
			} else {
				srcW = 2
			}
		case d.inst.Op == OpMovsxd:
			srcW = 4
		}
		set2(d.regOperand(width), d.rmOperand(srcW))
	case argsRtoRM:
		set2(d.rmOperand(width), d.regOperand(width))
	case argsAccImm:
		set2(d.gpr(RegAX, width), Operand{Kind: KindImm, Imm: d.inst.Imm})
	case argsRMImm:
		set2(d.rmOperand(width), Operand{Kind: KindImm, Imm: d.inst.Imm})
	case argsRM:
		set1(d.rmOperand(width))
	case argsOpReg:
		r := Reg(d.opcodeByte&7) | d.rexB()
		set1(d.gpr(r, width))
	case argsOpRegImm:
		r := Reg(d.opcodeByte&7) | d.rexB()
		set2(d.gpr(r, width), Operand{Kind: KindImm, Imm: d.inst.Imm})
	case argsRRMImm:
		set2(d.regOperand(width), d.rmOperand(width))
	case argsRMOne:
		set2(d.rmOperand(width), Operand{Kind: KindImm, Imm: 1})
	case argsRMCl:
		set2(d.rmOperand(width), d.gpr(RegCX, 1))
	case argsMoffs:
		memOp := Operand{Kind: KindMem, Width: width, Mem: Mem{
			Seg: d.inst.Seg, Base: RegNone, Index: RegNone, Scale: 1,
			Disp: d.inst.Imm, Direct: true,
		}}
		acc := d.gpr(RegAX, width)
		if d.opcodeByte <= 0xA1 { // A0/A1: load
			set2(acc, memOp)
		} else { // A2/A3: store
			set2(memOp, acc)
		}
	case argsXchgAcc:
		r := Reg(d.opcodeByte&7) | d.rexB()
		set2(d.gpr(RegAX, width), d.gpr(r, width))
	case argsRel, argsImmOnly, argsNone:
		// no register/memory operands; immediate lives in refInst.Imm
	}
}

// refInst is a single decoded x86-64 instruction. Besides the mnemonic and
// operands it records the byte-level layout metadata that NaCl's
// disassembler tracks (number of prefix, opcode, displacement and immediate
// bytes), which EnGarde exposes to its policy modules (paper §4).
type refInst struct {
	Addr uint64 // virtual address of the first byte
	Len  int    // total encoded length in bytes

	Op   Op
	Cond Cond // condition code for Jcc/SETcc/CMOVcc

	// Byte-layout metadata (NaCl-style).
	NumPrefix int // legacy + REX prefix bytes
	NumOpcode int // opcode bytes (1-3)
	NumDisp   int // displacement bytes
	NumImm    int // immediate bytes

	REX      byte // REX prefix value, 0 if absent
	HasModRM bool
	ModRM    byte
	HasSIB   bool
	SIB      byte

	Seg      Seg  // segment-override prefix, SegNone if absent
	Lock     bool // F0 prefix
	RepF2    bool // F2 prefix
	RepF3    bool // F3 prefix
	OpSize16 bool // 66 prefix
	Addr32   bool // 67 prefix

	Disp int64 // sign-extended ModRM/SIB displacement
	Imm  int64 // sign-extended primary immediate (also branch displacement)
	Imm2 int64 // second immediate (ENTER only)

	// Operands in AT&T order would be src,dst; we store dst-first because
	// that is the order the policy matchers reason in. NArgs says how many
	// entries of Args are valid.
	Args  [2]Operand
	NArgs int

	// Raw is a view of the encoded bytes (aliasing the decode input).
	Raw []byte
}

// Width returns the operand width in bytes implied by the instruction's
// prefixes for a non-byte instruction form.
func (in *refInst) width(defaultTo64 bool) uint8 {
	switch {
	case in.REX&0x08 != 0:
		return 8
	case in.OpSize16:
		return 2
	case defaultTo64:
		return 8
	default:
		return 4
	}
}

// BranchTarget returns the absolute target of a direct (relative) control
// transfer, and whether the instruction has one.
func (in *refInst) BranchTarget() (uint64, bool) {
	switch in.Op {
	case OpCall, OpJmp, OpJcc, OpLoop, OpJrcxz:
		if in.NumImm > 0 {
			return in.Addr + uint64(in.Len) + uint64(in.Imm), true
		}
	}
	return 0, false
}

// IsDirectCall reports whether the instruction is a near direct call.
func (in *refInst) IsDirectCall() bool { return in.Op == OpCall }

// IsIndirectCall reports whether the instruction is an indirect call
// through a register or memory operand (FF /2).
func (in *refInst) IsIndirectCall() bool { return in.Op == OpCallInd }

// RIPTarget returns the absolute address referenced by a RIP-relative
// memory operand, and whether the instruction has one.
func (in *refInst) RIPTarget() (uint64, bool) {
	for i := 0; i < in.NArgs; i++ {
		a := in.Args[i]
		if a.Kind == KindMem && a.Mem.IsRIPRel() {
			return in.Addr + uint64(in.Len) + uint64(a.Mem.Disp), true
		}
	}
	return 0, false
}

// String renders the instruction in a compact AT&T-flavoured syntax,
// operands printed src,dst like GNU as.
func (in *refInst) String() string {
	var b strings.Builder
	b.WriteString(in.mnemonic())
	if in.NArgs > 0 {
		b.WriteByte(' ')
		// AT&T prints source first: reverse our dst-first storage.
		for i := in.NArgs - 1; i >= 0; i-- {
			b.WriteString(refFormatOperand(in, in.Args[i]))
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

func (in *refInst) mnemonic() string {
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

func refFormatOperand(in *refInst, o Operand) string {
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

// refEncode reconstructs the byte encoding of a decoded instruction from its
// layout metadata, in canonical form: each active legacy prefix exactly
// once, in a fixed order, followed by the REX prefix (if any), opcode
// bytes, ModRM/SIB, displacement and immediates. For input without
// redundant prefixes refEncode(refDecode(b)) == b; input carrying duplicate or
// oddly-ordered prefixes canonicalizes to a shorter equivalent encoding
// that decodes to the same instruction (modulo Len/NumPrefix/Raw).
//
// refEncode is the inverse half of the refDecoder's round-trip property and
// exists for FuzzDecode; it is not an assembler (see Assembler for that).
func refEncode(in *refInst) ([]byte, error) {
	if in.NumOpcode < 1 || in.NumOpcode > 3 {
		return nil, fmt.Errorf("x86: encode: opcode byte count %d out of range", in.NumOpcode)
	}
	if in.NumPrefix < 0 || in.NumPrefix+in.NumOpcode > len(in.Raw) {
		return nil, fmt.Errorf("x86: encode: layout (%d prefix + %d opcode bytes) exceeds %d raw bytes",
			in.NumPrefix, in.NumOpcode, len(in.Raw))
	}
	out := make([]byte, 0, maxInstLen)
	if in.Lock {
		out = append(out, 0xF0)
	}
	if in.RepF2 {
		out = append(out, 0xF2)
	}
	if in.RepF3 {
		out = append(out, 0xF3)
	}
	if in.OpSize16 {
		out = append(out, 0x66)
	}
	if in.Addr32 {
		out = append(out, 0x67)
	}
	if in.Seg != SegNone {
		p, ok := segPrefix[in.Seg]
		if !ok {
			return nil, fmt.Errorf("x86: encode: unknown segment override %v", in.Seg)
		}
		out = append(out, p)
	}
	if in.REX != 0 {
		if in.REX&0xF0 != 0x40 {
			return nil, fmt.Errorf("x86: encode: REX byte %#02x out of range", in.REX)
		}
		out = append(out, in.REX)
	}
	out = append(out, in.Raw[in.NumPrefix:in.NumPrefix+in.NumOpcode]...)
	if in.HasModRM {
		out = append(out, in.ModRM)
	}
	if in.HasSIB {
		out = append(out, in.SIB)
	}
	out = refAppendLEBytes(out, uint64(in.Disp), in.NumDisp)
	if in.NumImm == 3 {
		// ENTER's imm16,imm8 pair (the only 3-byte immediate form).
		out = refAppendLEBytes(out, uint64(in.Imm), 2)
		out = refAppendLEBytes(out, uint64(in.Imm2), 1)
	} else {
		out = refAppendLEBytes(out, uint64(in.Imm), in.NumImm)
	}
	return out, nil
}

func refAppendLEBytes(out []byte, v uint64, n int) []byte {
	for i := 0; i < n; i++ {
		out = append(out, byte(v>>(8*i)))
	}
	return out
}
