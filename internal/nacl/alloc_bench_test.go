package nacl

import (
	"runtime"
	"testing"

	"engarde/internal/elf64"
	"engarde/internal/toolchain"
)

// BenchmarkDecode measures DecodeProgramTraced per call and per decoded
// instruction (ns/inst, B/inst). The dominant allocation is the Insts
// slice itself, which escapes into the Program.
func BenchmarkDecode(b *testing.B) {
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
	b.ReportAllocs()
	b.SetBytes(int64(len(text.Data)))
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := DecodeProgramTraced(text.Data, text.Addr, nil, 1, nil); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	runtime.ReadMemStats(&after)
	insts := float64(b.N) * float64(bin.NumInsts)
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/insts, "ns/inst")
	b.ReportMetric(float64(after.TotalAlloc-before.TotalAlloc)/insts, "B/inst")
}
