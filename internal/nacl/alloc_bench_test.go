package nacl

import (
	"testing"

	"engarde/internal/elf64"
	"engarde/internal/toolchain"
)

// BenchmarkDecodeSharded measures the parallel decode's steady-state
// allocations: the per-chunk speculative buffers come from a pool and the
// merged slice is presized, so allocs/op should stay flat as the decode
// repeats (the dominant remaining allocation is the merged Insts slice
// itself, which escapes into the Program).
func BenchmarkDecodeSharded(b *testing.B) {
	bin, err := toolchain.Build(toolchain.Config{
		Name: "decbench", Seed: 42, NumFuncs: 40, AvgFuncInsts: 120,
	})
	if err != nil {
		b.Fatal(err)
	}
	f, err := elf64.Parse(bin.Image)
	if err != nil {
		b.Fatal(err)
	}
	text := f.Section(".text")
	for _, workers := range []int{1, 4} {
		b.Run(map[int]string{1: "sequential", 4: "workers4"}[workers], func(b *testing.B) {
			b.ReportAllocs()
			b.SetBytes(int64(len(text.Data)))
			for i := 0; i < b.N; i++ {
				if _, err := DecodeProgramTraced(text.Data, text.Addr, nil, workers, nil); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
