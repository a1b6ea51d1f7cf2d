package x86

import (
	"bytes"
	"testing"
)

// fuzzSeeds are hand-picked encodings covering every structural corner of
// the decoder: prefixes (legacy, REX, segment, duplicated), all immediate
// forms (imm8/16/Z/V, ENTER's pair, moffs), ModRM modes with and without
// SIB, RIP-relative addressing, two- and three-byte opcode maps, groups,
// and bytes that must be rejected.
var fuzzSeeds = [][]byte{
	{0x90},             // nop
	{0xC3},             // ret
	{0xCC},             // int3
	{0x48, 0x89, 0xE5}, // mov %rsp, %rbp
	{0x48, 0xC7, 0xC0, 0x01, 0x00, 0x00, 0x00},             // mov $1, %rax
	{0x48, 0xB8, 1, 2, 3, 4, 5, 6, 7, 8},                   // movabs (immV, 8-byte)
	{0x66, 0xB8, 0x34, 0x12},                               // mov $0x1234, %ax (immZ@16)
	{0xB0, 0x7F},                                           // mov $0x7f, %al (imm8)
	{0xC8, 0x20, 0x00, 0x01},                               // enter $0x20, $1 (immEnter)
	{0xA1, 1, 2, 3, 4, 5, 6, 7, 8},                         // mov moffs64, %eax
	{0x67, 0xA1, 1, 2, 3, 4},                               // mov moffs32, %eax (addr32)
	{0x64, 0x48, 0x8B, 0x04, 0x25, 0x28, 0x00, 0x00, 0x00}, // mov %fs:0x28, %rax
	{0x48, 0x8B, 0x05, 0x10, 0x00, 0x00, 0x00},             // mov 0x10(%rip), %rax
	{0x42, 0x8B, 0x44, 0x9D, 0x08},                         // mov 8(%rbp,%r11,4), %eax (REX.X + SIB)
	{0x0F, 0x84, 0x00, 0x01, 0x00, 0x00},                   // je rel32
	{0x74, 0xFE},                                           // je rel8 (self)
	{0xE8, 0x00, 0x00, 0x00, 0x00},                         // call rel32
	{0xFF, 0xD0},                                           // call *%rax (group 5)
	{0xFF, 0x25, 0, 0, 0, 0},                               // jmp *0(%rip)
	{0xF0, 0x48, 0x0F, 0xB1, 0x0B},                         // lock cmpxchg %rcx,(%rbx)
	{0xF3, 0x0F, 0x1E, 0xFA},                               // endbr64 (F3 two-byte)
	{0x0F, 0x38, 0x00, 0xC1},                               // three-byte map 0F38
	{0x0F, 0x3A, 0x0F, 0xC1, 0x08},                         // three-byte map 0F3A + imm8
	{0x80, 0x7C, 0x24, 0x10, 0x00},                         // cmpb $0,0x10(%rsp) (group 1)
	{0xC1, 0xE0, 0x04},                                     // shl $4, %eax (group 2)
	{0xF7, 0xD8},                                           // neg %eax (group 3)
	{0xD1, 0xF8},                                           // sar %eax (RMOne)
	{0xD3, 0xE0},                                           // shl %cl, %eax (RMCl)
	{0x86, 0xE0},                                           // xchg %ah, %al (High8)
	{0x66, 0x66, 0x90},                                     // duplicated 66 prefix
	{0x2E, 0x3E, 0x90},                                     // overriding segment prefixes
	{0x06},                                                 // invalid in 64-bit mode
	{0xC4, 0x01, 0x00},                                     // VEX (rejected)
	{0x0F, 0x0B},                                           // ud2
	{0xF0},                                                 // lone prefix (truncated)
	{0x48},                                                 // lone REX (truncated)
	{0x66, 0x67, 0xF2, 0xF3, 0xF0, 0x2E, 0x36, 0x3E, 0x26, 0x64, 0x65, 0x48, 0x90, 0x90, 0x90, 0x90}, // prefix soup past 15 bytes
}

// instEq compares every field of two decoded instructions except Len and
// NumPrefix, which legitimately differ when Encode canonicalizes
// redundant prefixes away.
func instEq(a, b *Inst) bool {
	x, y := *a, *b
	x.Len, x.NumPrefix, y.Len, y.NumPrefix = 0, 0, 0, 0
	return x == y
}

// checkLayout asserts the NaCl layout invariant: the recorded byte-layout
// fields tile the instruction exactly.
func checkLayout(t *testing.T, in *Inst, input []byte) {
	t.Helper()
	if in.Len == 0 || in.Len > maxInstLen || int(in.Len) > len(input) {
		t.Fatalf("Len %d out of range for %d input bytes", in.Len, len(input))
	}
	sum := in.NumPrefix + in.NumOpcode + in.NumDisp + in.NumImm
	if in.Has(FlagModRM) {
		sum++
	}
	if in.Has(FlagSIB) {
		sum++
	}
	if sum != in.Len {
		t.Fatalf("layout sum %d != Len %d for % x", sum, in.Len, input[:in.Len])
	}
}

// FuzzDecode asserts the decoder's trust-boundary properties on arbitrary
// bytes: it agrees with the reference decoder field for field (or rejects
// with the same error class), it never panics, accepted instructions
// satisfy the layout invariant, and decode→encode→decode is a fixed point
// — the re-encoded bytes decode to the identical instruction (modulo
// prefix canonicalization) and re-encode to the identical bytes.
func FuzzDecode(f *testing.F) {
	for _, seed := range fuzzSeeds {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		const addr = 0x401000
		i1, err := Decode(data, addr)
		if d := diffDecode(&i1, err, data, addr); d != nil {
			t.Fatal(d)
		}
		if err != nil {
			return // rejection is a valid outcome; panics/hangs are not
		}
		checkLayout(t, &i1, data)
		raw := data[:i1.Len]

		e1, err := Encode(&i1, raw)
		if err != nil {
			t.Fatalf("Encode rejected a decoded instruction %s (% x): %v", i1.String(), raw, err)
		}
		if len(e1) > len(raw) {
			t.Fatalf("canonical encoding % x longer than accepted raw % x", e1, raw)
		}

		i2, err := Decode(e1, addr)
		if err != nil {
			t.Fatalf("re-decode of canonical encoding % x failed: %v (from %s, raw % x)", e1, err, i1.String(), raw)
		}
		if !instEq(&i1, &i2) {
			t.Fatalf("round-trip mismatch:\n raw % x -> %s\n enc % x -> %s", raw, i1.String(), e1, i2.String())
		}
		if int(i2.Len) != len(e1) {
			t.Fatalf("re-decode consumed %d of %d canonical bytes", i2.Len, len(e1))
		}

		e2, err := Encode(&i2, e1)
		if err != nil || !bytes.Equal(e1, e2) {
			t.Fatalf("encode not idempotent: % x vs % x (err %v)", e1, e2, err)
		}
	})
}
