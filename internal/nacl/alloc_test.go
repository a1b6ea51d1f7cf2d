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

// decodeReleaseMaxAllocs pins a decode whose records come back from an
// earlier Release: the branch-check bitmap and the Program, no records.
const decodeReleaseMaxAllocs = 2

func allocsText(t *testing.T) *elf64.Section {
	t.Helper()
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
	return f.Section(".text")
}

func TestDecodeAllocs(t *testing.T) {
	text := allocsText(t)
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

func TestDecodeReleaseAllocs(t *testing.T) {
	text := allocsText(t)
	var decErr error
	allocs := testing.AllocsPerRun(20, func() {
		p, err := DecodeProgramTraced(text.Data, text.Addr, nil, 1, nil)
		if err != nil {
			decErr = err
			return
		}
		p.Release()
	})
	if decErr != nil {
		t.Fatal(decErr)
	}
	t.Logf("decode+release: %.0f allocs/op", allocs)
	if allocs > decodeReleaseMaxAllocs {
		t.Errorf("decode+release: %.0f allocs/op, ceiling %d", allocs, decodeReleaseMaxAllocs)
	}
}
