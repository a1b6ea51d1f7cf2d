package nacl

import (
	"reflect"
	"testing"

	"engarde/internal/x86"
)

// fuzzValidateSeeds builds seed inputs: valid assembler-emitted programs
// (so the fuzzer starts from accepting paths, not just rejections) plus
// raw byte patterns hitting each rejection rule.
func fuzzValidateSeeds() [][]byte {
	var seeds [][]byte

	var a x86.Assembler
	a.MovRegImm32(x86.RegAX, 1)
	a.CmpRegImm8(x86.RegAX, 0)
	a.JccLabel(x86.CondNE, "end")
	a.Nop(1)
	a.Label("end")
	a.Ret()
	if code, fixups, err := a.Finish(); err == nil && len(fixups) == 0 {
		seeds = append(seeds, code)
	}

	var b x86.Assembler
	b.Nop(3)
	b.MovRegFS(x86.RegAX, 0x28)
	b.Ret()
	if code, fixups, err := b.Finish(); err == nil && len(fixups) == 0 {
		seeds = append(seeds, code)
	}

	seeds = append(seeds,
		[]byte{0xC3},                               // minimal accept
		[]byte{0x90, 0x90, 0xC3},                   // NOP padding
		[]byte{0xE9, 0xFB, 0xFF, 0xFF, 0xFF},       // jmp self
		[]byte{0xE9, 0x01, 0x00, 0x00, 0x00, 0xC3}, // jmp into immediate
		[]byte{0xC3, 0x06, 0x07},                   // undecodable tail
		append(make([]byte, 0, 40), []byte{
			0x90, 0x90, 0x90, 0x90, 0x90, 0x90, 0x90, 0x90,
			0x90, 0x90, 0x90, 0x90, 0x90, 0x90, 0x90, 0x90,
			0x90, 0x90, 0x90, 0x90, 0x90, 0x90, 0x90, 0x90,
			0x90, 0x90, 0x90, 0x90, // 28 NOPs, then a bundle-crossing mov
			0x64, 0x48, 0x8B, 0x04, 0x25, 0x28, 0x00, 0x00, 0x00, 0xC3,
		}...),
	)
	return seeds
}

// FuzzValidate asserts the validator's trust-boundary properties on
// arbitrary code regions: it never panics; every instruction start of an
// accepted Program re-decodes, in isolation, to the identical instruction
// (the self-consistency NaCl's reliable-disassembly argument rests on);
// and consecutive instructions tile the region exactly.
func FuzzValidate(f *testing.F) {
	for _, seed := range fuzzValidateSeeds() {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, code []byte) {
		const base = 0x1000 // bundle-aligned, as loaded text always is

		p, err := Validate(code, base, base, nil, nil)
		if err != nil {
			return // rejection is a valid outcome; panics/hangs are not
		}

		// Accepted ⇒ instruction starts tile the region and re-decode
		// identically in isolation.
		next := uint64(base)
		for i := range p.Insts {
			in := &p.Insts[i]
			if in.Addr != next {
				t.Fatalf("instruction %d at %#x, expected %#x (overlap or gap)", i, in.Addr, next)
			}
			re, err := x86.Decode(code[in.Addr-base:], in.Addr)
			if err != nil {
				t.Fatalf("accepted instruction at %#x does not re-decode: %v", in.Addr, err)
			}
			if !reflect.DeepEqual(*in, re) {
				t.Fatalf("accepted instruction at %#x re-decodes differently:\n  got  %s\n  want %s",
					in.Addr, re.String(), in.String())
			}
			idx, ok := p.InstAt(in.Addr)
			if !ok || idx != i {
				t.Fatalf("InstAt(%#x) = %d,%v, want %d,true", in.Addr, idx, ok, i)
			}
			next = in.Addr + uint64(in.Len)
		}
		if next != base+uint64(len(code)) {
			t.Fatalf("instructions end at %#x, region at %#x", next, base+uint64(len(code)))
		}
	})
}
