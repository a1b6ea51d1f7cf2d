// Package loader implements EnGarde's in-enclave loader (paper §4,
// "Loading"): after the executable has been checked and confirmed to follow
// the agreed policies, the loader maps the text, data and bss segments into
// enclave memory — text executable but read-only, data and bss writable but
// non-executable — applies the relocations described by the .dynamic
// section, sets up a call stack, and transfers control to the executable.
package loader

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math/bits"
	"sort"

	"engarde/internal/cycles"
	"engarde/internal/elf64"
)

// PageSize is the mapping granularity.
const PageSize = 4096

// Loader errors.
var (
	// ErrUnsupportedReloc is returned for relocation types other than
	// R_X86_64_RELATIVE (the only kind a static PIE carries).
	ErrUnsupportedReloc = errors.New("loader: unsupported relocation type")
	// ErrImageTooLarge is returned when the image does not fit the region
	// reserved for the client inside the enclave.
	ErrImageTooLarge = errors.New("loader: image exceeds the client region")
	// ErrRelocOutOfBounds is returned for a relocation whose 8-byte target
	// does not lie inside one non-executable PT_LOAD segment: applying it
	// would write into code the policies already checked.
	ErrRelocOutOfBounds = errors.New("loader: relocation target outside the data segments")
)

// Memory is the loader's view of enclave memory (satisfied by
// *sgx.Enclave).
type Memory interface {
	Write(addr uint64, b []byte) error
	Read(addr uint64, b []byte) error
}

// Result describes a completed load.
type Result struct {
	// Bias is the load bias applied to every virtual address of the PIE.
	Bias uint64
	// Entry is the relocated entry point.
	Entry uint64
	// StackTop is the initial stack pointer.
	StackTop uint64
	// TLSBase is a writable thread-local-storage page the loader sets up
	// below the stack; the runtime keeps the stack canary at TLSBase+0x28
	// (%fs:0x28).
	TLSBase uint64
	// GuardPage is the non-writable page between the TLS page and the
	// stack bottom; a stack overflow faults on it instead of silently
	// descending into the image.
	GuardPage uint64
	// ExecPages lists the page-aligned addresses of executable pages —
	// what EnGarde's in-enclave component hands to the host kernel
	// component.
	ExecPages []uint64
	// DataPages lists writable (data/bss/stack) pages.
	DataPages []uint64
	// RelocsApplied counts the dynamic relocations processed.
	RelocsApplied int
}

// Config parametrizes a load.
type Config struct {
	// Base is where in the enclave the client image lands (the PIE's
	// vaddr 0 maps here); must be page-aligned.
	Base uint64
	// Limit is the size in bytes of the client region; 0 means unchecked.
	Limit uint64
	// StackPages is the number of stack pages set up above the image
	// (default 16).
	StackPages int
	// Counter receives loading-phase charges; may be nil.
	Counter *cycles.Counter
}

// Load maps the parsed executable into mem.
func Load(f *elf64.File, mem Memory, cfg Config) (*Result, error) {
	if cfg.Base%PageSize != 0 {
		return nil, fmt.Errorf("loader: base %#x not page-aligned", cfg.Base)
	}
	if cfg.StackPages == 0 {
		cfg.StackPages = 16
	}
	charge := func(u cycles.Unit, n uint64) {
		if cfg.Counter != nil {
			cfg.Counter.Charge(cycles.PhaseLoad, u, n)
		}
	}

	res := &Result{Bias: cfg.Base}
	execSet := map[uint64]bool{}
	dataSet := map[uint64]bool{}
	var maxEnd uint64
	var dataSegs [][2]uint64 // [vaddr, end) of each non-exec PT_LOAD

	// Map PT_LOAD segments: copy file content, zero the bss tail.
	for _, ph := range f.Progs {
		if ph.Type != elf64.PTLoad {
			continue
		}
		charge(cycles.UnitSegmentMap, 1)
		// Vaddr and Memsz are client-supplied: a sum that wraps would pass
		// the Limit check and then size the bss below at nearly 2^64.
		end, wrapEnd := bits.Add64(ph.Vaddr, ph.Memsz, 0)
		_, wrapBase := bits.Add64(cfg.Base, end, 0)
		if wrapEnd|wrapBase != 0 || cfg.Limit > 0 && end > cfg.Limit {
			return nil, fmt.Errorf("%w: segment %#x+%#x > limit %#x",
				ErrImageTooLarge, ph.Vaddr, ph.Memsz, cfg.Limit)
		}
		start := cfg.Base + ph.Vaddr
		if ph.Filesz > 0 {
			src, err := f.DataAt(ph.Vaddr, ph.Filesz)
			if err != nil {
				return nil, fmt.Errorf("loader: segment at %#x: %w", ph.Vaddr, err)
			}
			if err := mem.Write(start, src); err != nil {
				return nil, fmt.Errorf("loader: writing segment at %#x: %w", start, err)
			}
			charge(cycles.UnitCopiedByte, ph.Filesz)
		}
		if ph.Memsz > ph.Filesz { // zero bss
			zero := make([]byte, ph.Memsz-ph.Filesz)
			if err := mem.Write(start+ph.Filesz, zero); err != nil {
				return nil, fmt.Errorf("loader: zeroing bss at %#x: %w", start+ph.Filesz, err)
			}
			charge(cycles.UnitCopiedByte, uint64(len(zero)))
		}
		if ph.Flags&elf64.PFX == 0 {
			dataSegs = append(dataSegs, [2]uint64{ph.Vaddr, end})
		}
		// Record page dispositions; an empty segment covers no page.
		if ph.Memsz > 0 {
			first := start &^ uint64(PageSize-1)
			last := (cfg.Base + end - 1) &^ uint64(PageSize-1)
			for page := first; page <= last; page += PageSize {
				if ph.Flags&elf64.PFX != 0 {
					execSet[page] = true
				} else {
					dataSet[page] = true
				}
			}
		}
		maxEnd = max(maxEnd, end)
	}

	// Apply relocations from the .dynamic section's RELA table.
	relas, err := f.Relocations()
	if err != nil {
		return nil, fmt.Errorf("loader: %w", err)
	}
	for _, r := range relas {
		if r.RelaType() != elf64.RX8664Relative {
			return nil, fmt.Errorf("%w: %d at %#x", ErrUnsupportedReloc, r.RelaType(), r.Off)
		}
		if !inDataSegment(dataSegs, r.Off) {
			return nil, fmt.Errorf("%w: %#x", ErrRelocOutOfBounds, r.Off)
		}
		var word [8]byte
		binary.LittleEndian.PutUint64(word[:], cfg.Base+uint64(r.Addend))
		if err := mem.Write(cfg.Base+r.Off, word[:]); err != nil {
			return nil, fmt.Errorf("loader: applying relocation at %#x: %w", r.Off, err)
		}
		charge(cycles.UnitRelocEntry, 1)
		res.RelocsApplied++
	}

	// Set up the call stack above the image: an empty frame whose return
	// address is 0 (so a returning _start traps), stack pages writable.
	// One TLS page (canary home), a guard gap, then the stack.
	tlsBase := (cfg.Base + maxEnd + PageSize - 1) &^ uint64(PageSize-1)
	tlsBase += PageSize
	stackBase := tlsBase + 2*PageSize // TLS page + guard gap
	stackEnd := stackBase + uint64(cfg.StackPages)*PageSize
	if cfg.Limit > 0 && stackEnd > cfg.Base+cfg.Limit {
		return nil, fmt.Errorf("%w: stack end %#x > limit", ErrImageTooLarge, stackEnd)
	}
	dataSet[tlsBase] = true
	res.TLSBase = tlsBase
	res.GuardPage = tlsBase + PageSize
	for i := 0; i < cfg.StackPages; i++ {
		dataSet[stackBase+uint64(i)*PageSize] = true
	}
	res.StackTop = stackBase + uint64(cfg.StackPages)*PageSize - 16
	var zeroFrame [16]byte
	if err := mem.Write(res.StackTop, zeroFrame[:]); err != nil {
		return nil, fmt.Errorf("loader: initializing stack: %w", err)
	}
	charge(cycles.UnitSegmentMap, 1) // stack setup

	res.Entry = cfg.Base + f.Header.Entry
	res.ExecPages = sortedKeys(execSet)
	res.DataPages = sortedKeys(dataSet)
	return res, nil
}

// inDataSegment reports whether the 8-byte word at off lies inside one
// non-executable segment. off is client-supplied, so the end is a checked
// add.
func inDataSegment(segs [][2]uint64, off uint64) bool {
	end, carry := bits.Add64(off, 8, 0)
	if carry != 0 {
		return false
	}
	for _, s := range segs {
		if off >= s[0] && end <= s[1] {
			return true
		}
	}
	return false
}

func sortedKeys(set map[uint64]bool) []uint64 {
	out := make([]uint64, 0, len(set))
	for k := range set {
		out = append(out, k)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}
