package x86

import (
	"encoding/binary"
	"errors"
	"fmt"
)

// Decode errors.
var (
	// ErrTruncated is returned when the byte stream ends mid-instruction.
	ErrTruncated = errors.New("x86: truncated instruction")
	// ErrInvalidOpcode is returned for opcodes that are undefined or that
	// the disassembler refuses to accept (VEX, far branches, #UD forms).
	ErrInvalidOpcode = errors.New("x86: invalid opcode")
	// ErrTooLong is returned when prefixes push the instruction past the
	// architectural 15-byte limit.
	ErrTooLong = errors.New("x86: instruction exceeds 15 bytes")
)

// maxInstLen is the architectural instruction-length limit.
const maxInstLen = 15

// Decode decodes the instruction starting at code[0], assumed to reside at
// virtual address addr. The encoded bytes are code[:Len].
func Decode(code []byte, addr uint64) (Inst, error) {
	var in Inst
	if err := DecodeInto(&in, code, addr); err != nil {
		return Inst{}, err
	}
	return in, nil
}

// DecodeAll decodes a contiguous code region into a slice of instructions.
// Decoding stops at the first error, which is returned along with the
// instructions decoded so far and the offset at which the error occurred.
func DecodeAll(code []byte, addr uint64) ([]Inst, error) {
	insts := make([]Inst, 0, len(code)/4)
	off := 0
	for off < len(code) {
		insts = append(insts, Inst{})
		in := &insts[len(insts)-1]
		if err := DecodeInto(in, code[off:], addr+uint64(off)); err != nil {
			return insts[:len(insts)-1], fmt.Errorf("at 0x%x: %w", addr+uint64(off), err)
		}
		off += int(in.Len)
	}
	return insts, nil
}

// DecodeInto decodes the instruction starting at code[0], assumed to reside
// at virtual address addr, into *dst, overwriting all of it. On error the
// contents of *dst are unspecified.
//
// The decoder reads each byte once, front to back. Only the encoding is
// recorded; operands are derived later, on demand (Inst.Arg).
func DecodeInto(dst *Inst, code []byte, addr uint64) error {
	*dst = Inst{Addr: addr}
	// Every read is checked against limit alone. The first index that
	// fails is always limit itself, so which error it is (the input ran
	// out, or the 15-byte limit did) follows from limit.
	limit := min(len(code), maxInstLen)
	pos := 0

	// Legacy prefixes, then an optional REX prefix, which must immediately
	// precede the opcode.
prefixes:
	for {
		if pos >= limit {
			return boundErr(code)
		}
		switch b := code[pos]; b {
		case 0xF0:
			dst.Flags |= FlagLock
		case 0xF2:
			dst.Flags |= FlagRepF2
		case 0xF3:
			dst.Flags |= FlagRepF3
		case 0x66:
			dst.Flags |= FlagOpSize16
		case 0x67:
			dst.Flags |= FlagAddr32
		case 0x26:
			dst.Seg = SegES
		case 0x2E:
			dst.Seg = SegCS
		case 0x36:
			dst.Seg = SegSS
		case 0x3E:
			dst.Seg = SegDS
		case 0x64:
			dst.Seg = SegFS
		case 0x65:
			dst.Seg = SegGS
		default:
			if b&0xF0 == 0x40 {
				dst.REX = b
				pos++
			}
			break prefixes
		}
		pos++
	}
	dst.NumPrefix = uint8(pos)

	// Opcode: one byte, 0F plus one, or 0F 38/3A plus one.
	if pos >= limit {
		return boundErr(code)
	}
	var ent entry
	op := code[pos]
	pos++
	if op != 0x0F {
		if invalid64[op] {
			return fmt.Errorf("%w: opcode %#02x is undefined in 64-bit mode", ErrInvalidOpcode, op)
		}
		dst.NumOpcode = 1
		ent = oneByte[op]
	} else {
		if pos >= limit {
			return boundErr(code)
		}
		op = code[pos]
		pos++
		switch op {
		case 0x38, 0x3A: // three-byte maps: ModRM, and imm8 for 0F 3A
			if pos >= limit {
				return boundErr(code)
			}
			imm := immNone
			if op == 0x3A {
				imm = imm8
			}
			op = code[pos]
			pos++
			dst.NumOpcode = 3
			ent = e(OpSSE, argsRM, imm, true)
		default:
			dst.NumOpcode = 2
			ent = twoByte[op]
		}
	}
	if !ent.valid {
		opcodes := code[dst.NumPrefix:pos]
		return fmt.Errorf("%w: opcode bytes % x (%s opcode map)", ErrInvalidOpcode, opcodes, opcodeMapName[len(opcodes)])
	}
	dst.opcode = op
	switch ent.op {
	case OpJcc, OpSetcc, OpCmovcc:
		dst.Cond = Cond(op & 0x0F)
	}

	if ent.modrm {
		if pos >= limit {
			return boundErr(code)
		}
		m := code[pos]
		pos++
		dst.Flags |= FlagModRM
		dst.ModRM = m
		mod, rm := m>>6, m&7
		if mod != 3 {
			dispSize := 0
			switch {
			case mod == 1:
				dispSize = 1
			case mod == 2, rm == 5: // mod=0, rm=5 is RIP-relative
				dispSize = 4
			}
			if rm == 4 { // SIB byte
				if pos >= limit {
					return boundErr(code)
				}
				sib := code[pos]
				pos++
				dst.Flags |= FlagSIB
				dst.SIB = sib
				if mod == 0 && sib&7 == 5 { // no base, disp32
					dispSize = 4
				}
			}
			if dispSize > 0 {
				if pos+dispSize > limit {
					return boundErr(code)
				}
				if dispSize == 1 {
					dst.Disp = int32(int8(code[pos]))
				} else {
					dst.Disp = int32(binary.LittleEndian.Uint32(code[pos:]))
				}
				pos += dispSize
				dst.NumDisp = uint8(dispSize)
			}
		}
		// Resolve group opcodes now that ModRM.reg is known.
		if ent.grp != groupNone {
			var err error
			if ent, err = resolveGroup(ent, m); err != nil {
				return err
			}
		}
	}
	dst.Op = ent.op

	size := immSize(ent.imm, dst)
	if size > 0 {
		if pos+size > limit {
			return boundErr(code)
		}
		imm := code[pos:]
		switch size {
		case 1:
			dst.Imm = int64(int8(imm[0]))
		case 2:
			dst.Imm = int64(int16(binary.LittleEndian.Uint16(imm)))
		case 3: // ENTER: iw (zero-extended), then ib
			dst.Imm = int64(binary.LittleEndian.Uint16(imm))
			dst.Imm2 = imm[2]
		case 4:
			dst.Imm = int64(int32(binary.LittleEndian.Uint32(imm)))
		case 8:
			dst.Imm = int64(binary.LittleEndian.Uint64(imm))
		}
		pos += size
		dst.NumImm = uint8(size)
	}

	dst.form = uint8(ent.args)
	if ent.width8 {
		dst.form |= formByte
	}
	dst.Len = uint8(pos)
	return nil
}

// boundErr is the error for a read that ran past min(len(code), 15).
func boundErr(code []byte) error {
	if len(code) > maxInstLen {
		return ErrTooLong
	}
	return ErrTruncated
}

// opcodeMapName names the opcode map by its opcode byte count.
var opcodeMapName = [3]string{1: "one-byte", 2: "two-byte 0F"}

// invalid64 marks one-byte opcodes that #UD in 64-bit mode.
var invalid64 = [256]bool{
	0x06: true, 0x07: true, 0x0E: true, 0x16: true, 0x17: true,
	0x1E: true, 0x1F: true, 0x27: true, 0x2F: true, 0x37: true,
	0x3F: true, 0x60: true, 0x61: true, 0x62: true, 0x82: true,
	0x9A: true, 0xC4: true, 0xC5: true, 0xD4: true, 0xD5: true,
	0xD6: true, 0xEA: true,
}

// resolveGroup selects a group opcode's mnemonic (and, for some groups,
// its operand recipe and immediate) by ModRM.reg.
func resolveGroup(ent entry, modrm byte) (entry, error) {
	reg := (modrm >> 3) & 7
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
		if modrm>>6 == 3 {
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

// immSize returns the number of immediate bytes an opcode's immediate
// kind takes under the instruction's prefixes.
func immSize(k immKind, in *Inst) int {
	switch k {
	case imm8, immRel8:
		return 1
	case imm16:
		return 2
	case immZ:
		if in.Has(FlagOpSize16) {
			return 2
		}
		return 4
	case immRelZ:
		return 4
	case immV:
		switch {
		case in.REX&0x08 != 0:
			return 8
		case in.Has(FlagOpSize16):
			return 2
		}
		return 4
	case immEnter:
		return 3
	case immMoffs:
		if in.Has(FlagAddr32) {
			return 4
		}
		return 8
	}
	return 0
}
