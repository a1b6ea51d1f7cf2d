//go:build !race

package nacl

import (
	"testing"

	"engarde/internal/elf64"
	"engarde/internal/toolchain"
)

// decodeMaxAllocs pins DecodeProgramTraced's allocations per call on a
// fixed toolchain image, by worker count. Sequentially they are the record
// slice, the branch-check bitmap, the Program and the two check closures;
// sharding adds the chunk table, the chunks' record slices, the merged
// slice and the goroutines of the decode and of both checks.
var decodeMaxAllocs = map[int]float64{1: 5, 2: 25}

func TestDecodeAllocs(t *testing.T) {
	bin, err := toolchain.Build(toolchain.Config{
		Name: "decallocs", Seed: 42, NumFuncs: 40, AvgFuncInsts: 120,
	})
	if err != nil {
		t.Fatal(err)
	}
	f, err := elf64.Parse(bin.Image)
	if err != nil {
		t.Fatal(err)
	}
	text := f.Section(".text")
	for _, workers := range []int{1, 2} {
		var decErr error
		allocs := testing.AllocsPerRun(20, func() {
			if _, err := DecodeProgramTraced(text.Data, text.Addr, nil, workers, nil); err != nil {
				decErr = err
			}
		})
		if decErr != nil {
			t.Fatal(decErr)
		}
		t.Logf("%d workers: %.0f allocs/op", workers, allocs)
		if allocs > decodeMaxAllocs[workers] {
			t.Errorf("%d workers: %.0f allocs/op, ceiling %.0f", workers, allocs, decodeMaxAllocs[workers])
		}
	}
}
