package x86_test

import (
	"bytes"
	"errors"
	"fmt"
	"testing"

	"engarde/internal/elf64"
	"engarde/internal/nacl"
	"engarde/internal/toolchain"
	"engarde/internal/workload"
	"engarde/internal/x86"
)

// validateSeeds are FuzzValidate's seed regions (internal/nacl), rebuilt
// here: whole programs plus one region per rejection rule.
func validateSeeds(t *testing.T) [][]byte {
	var a x86.Assembler
	a.MovRegImm32(x86.RegAX, 1)
	a.CmpRegImm8(x86.RegAX, 0)
	a.JccLabel(x86.CondNE, "end")
	a.Nop(1)
	a.Label("end")
	a.Ret()
	var b x86.Assembler
	b.Nop(3)
	b.MovRegFS(x86.RegAX, 0x28)
	b.Ret()
	var seeds [][]byte
	for _, asm := range []*x86.Assembler{&a, &b} {
		code, _, err := asm.Finish()
		if err != nil {
			t.Fatal(err)
		}
		seeds = append(seeds, code)
	}
	return append(seeds,
		[]byte{0xC3},
		[]byte{0x90, 0x90, 0xC3},
		[]byte{0xE9, 0xFB, 0xFF, 0xFF, 0xFF},
		[]byte{0xE9, 0x01, 0x00, 0x00, 0x00, 0xC3},
		[]byte{0xC3, 0x06, 0x07},
		append(bytes.Repeat([]byte{0x90}, 28), 0x64, 0x48, 0x8B, 0x04, 0x25, 0x28, 0x00, 0x00, 0x00, 0xC3),
	)
}

// TestProgramsMatchReference decodes whole text sections with the decoder
// and the reference decoder in lockstep (x86.DiffReference), then checks
// that nacl.DecodeProgramTraced yields exactly
// that instruction sequence and serves each instruction's bytes. Inputs:
// the paper's seven benchmarks in all three variants, cold-mixed-shaped
// images (IFCC over the stack-protected musl, and its syscall, no-canary
// and mixed code/data violations), and FuzzValidate's seeds.
func TestProgramsMatchReference(t *testing.T) {
	type region struct {
		name string
		code []byte
		base uint64
	}
	var regions []region
	for i, code := range validateSeeds(t) {
		regions = append(regions, region{fmt.Sprintf("validate seed %d", i), code, 0x1000})
	}

	var cfgs []toolchain.Config
	for _, spec := range workload.Specs() {
		cfg := spec.Base
		cfgs = append(cfgs, cfg)
		cfg.StackProtector = true
		cfgs = append(cfgs, cfg)
		cfg.StackProtector, cfg.IFCC = false, true
		cfgs = append(cfgs, cfg)
	}
	coldMixed := toolchain.Config{
		Seed: 7, NumFuncs: 300, AvgFuncInsts: 250,
		LibcCallRate: 0.05, IFCC: true, IndirectRate: 0.02, StackProtector: true,
	}
	for i, mut := range []func(*toolchain.Config){
		func(*toolchain.Config) {},
		func(c *toolchain.Config) { c.EmitSyscall = true },
		func(c *toolchain.Config) { c.StackProtector = false },
		func(c *toolchain.Config) { c.MixedCodeData = true },
	} {
		cfg := coldMixed
		cfg.Name, cfg.Seed = fmt.Sprintf("cm%d", i), coldMixed.Seed+int64(i)
		mut(&cfg)
		cfgs = append(cfgs, cfg)
	}
	if testing.Short() {
		cfgs = cfgs[len(cfgs)-4:]
	}
	for _, cfg := range cfgs {
		bin, err := toolchain.Build(cfg)
		if err != nil {
			t.Fatal(err)
		}
		f, err := elf64.Parse(bin.Image)
		if err != nil {
			t.Fatal(err)
		}
		text := f.Section(".text")
		name := fmt.Sprintf("%s sp=%v ifcc=%v mixed=%v", cfg.Name, cfg.StackProtector, cfg.IFCC, cfg.MixedCodeData)
		regions = append(regions, region{name, text.Data, text.Addr})
	}

	var rejected int
	for _, r := range regions {
		want, rejOff, rej, diff := x86.DiffReference(r.code, r.base)
		if diff != nil {
			t.Fatalf("%s: %v", r.name, diff)
		}
		p, err := nacl.DecodeProgramTraced(r.code, r.base, nil, 1, nil)
		if rej != nil {
			// Undecodable: the same rejection, named at the same offset.
			at := fmt.Sprintf("at %#x: %v", r.base+uint64(rejOff), rej)
			if !errors.Is(err, nacl.ErrUndecodable) || !bytes.Contains([]byte(err.Error()), []byte(at)) {
				t.Fatalf("%s: error %v, want %v %s", r.name, err, nacl.ErrUndecodable, at)
			}
			rejected++
			continue
		}
		if err != nil {
			continue // decoded, then rejected by the bundle or branch rule
		}
		if len(p.Insts) != len(want) {
			t.Fatalf("%s: %d instructions, reference %d", r.name, len(p.Insts), len(want))
		}
		for i := range want {
			if p.Insts[i] != want[i] {
				t.Fatalf("%s: instruction %d is %+v, want %+v", r.name, i, p.Insts[i], want[i])
			}
			off := want[i].Addr - r.base
			if !bytes.Equal(p.Raw(i), r.code[off:off+uint64(want[i].Len)]) {
				t.Fatalf("%s: Raw(%d) = % x", r.name, i, p.Raw(i))
			}
		}
	}
	if rejected == 0 {
		t.Error("no region was undecodable; the rejection path went uncompared")
	}
}
