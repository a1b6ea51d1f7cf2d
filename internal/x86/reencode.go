package x86

import "fmt"

// Encode reconstructs the byte encoding of a decoded instruction from its
// layout metadata, in canonical form: each active legacy prefix exactly
// once, in a fixed order, followed by the REX prefix (if any), opcode
// bytes, ModRM/SIB, displacement and immediates. For input without
// redundant prefixes Encode(Decode(b)) == b; input carrying duplicate or
// oddly-ordered prefixes canonicalizes to a shorter equivalent encoding
// that decodes to the same instruction (modulo Len/NumPrefix).
//
// raw is the instruction's encoded bytes; Encode copies the opcode bytes
// from it, since the record keeps only the last one.
//
// Encode is the inverse half of the decoder's round-trip property and
// exists for FuzzDecode; it is not an assembler (see Assembler for that).
func Encode(in *Inst, raw []byte) ([]byte, error) {
	if in.NumOpcode < 1 || in.NumOpcode > 3 {
		return nil, fmt.Errorf("x86: encode: opcode byte count %d out of range", in.NumOpcode)
	}
	if int(in.NumPrefix)+int(in.NumOpcode) > len(raw) {
		return nil, fmt.Errorf("x86: encode: layout (%d prefix + %d opcode bytes) exceeds %d raw bytes",
			in.NumPrefix, in.NumOpcode, len(raw))
	}
	out := make([]byte, 0, maxInstLen)
	for _, p := range [...]struct {
		f Flags
		b byte
	}{{FlagLock, 0xF0}, {FlagRepF2, 0xF2}, {FlagRepF3, 0xF3}, {FlagOpSize16, 0x66}, {FlagAddr32, 0x67}} {
		if in.Has(p.f) {
			out = append(out, p.b)
		}
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
	out = append(out, raw[in.NumPrefix:in.NumPrefix+in.NumOpcode]...)
	if in.Has(FlagModRM) {
		out = append(out, in.ModRM)
	}
	if in.Has(FlagSIB) {
		out = append(out, in.SIB)
	}
	out = appendLEBytes(out, uint64(in.Disp), int(in.NumDisp))
	if in.NumImm == 3 {
		// ENTER's imm16,imm8 pair (the only 3-byte immediate form).
		out = appendLEBytes(out, uint64(in.Imm), 2)
		out = appendLEBytes(out, uint64(in.Imm2), 1)
	} else {
		out = appendLEBytes(out, uint64(in.Imm), int(in.NumImm))
	}
	return out, nil
}

func appendLEBytes(out []byte, v uint64, n int) []byte {
	for i := 0; i < n; i++ {
		out = append(out, byte(v>>(8*i)))
	}
	return out
}
