//go:build !race

package nacl

import (
	"testing"

	"engarde/internal/elf64"
	"engarde/internal/toolchain"
)

// decodeMaxAllocs pins DecodeProgramTraced's allocations per call on a
// fixed toolchain image: the record slice, the branch-check bitmap and the
// Program.
const decodeMaxAllocs = 3

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
	var decErr error
	allocs := testing.AllocsPerRun(20, func() {
		if _, err := DecodeProgramTraced(text.Data, text.Addr, nil, 1, nil); err != nil {
			decErr = err
		}
	})
	if decErr != nil {
		t.Fatal(decErr)
	}
	t.Logf("%.0f allocs/op", allocs)
	if allocs > decodeMaxAllocs {
		t.Errorf("%.0f allocs/op, ceiling %d", allocs, decodeMaxAllocs)
	}
}
