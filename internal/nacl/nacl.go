// Package nacl implements the Native-Client-style disassembly validation
// EnGarde performs before any policy runs (paper §3): "NaCl makes a number
// of assumptions to ensure clean, unambiguous disassembly. For example, it
// requires no instructions to overlap a 32-byte boundary, that all
// control-transfers target valid instructions, and that all valid
// instructions are reachable from the start address."
//
// Validate decodes an entire text region and enforces those three
// constraints. The reachability rule is applied from the entry point plus
// every function symbol (functions are entered via calls whose targets the
// second rule already validates); NOP padding between functions is exempt,
// since bundle alignment necessarily produces unreachable NOPs.
//
// Each pass is one sequential walk over the region; a server gets its
// parallelism from running sessions side by side, not from splitting one.
package nacl

import (
	"errors"
	"fmt"
	"slices"
	"sort"
	"sync"

	"engarde/internal/cycles"
	"engarde/internal/obs"
	"engarde/internal/symtab"
	"engarde/internal/x86"
)

// BundleSize is the NaCl bundle granularity.
const BundleSize = 32

// Validation errors.
var (
	// ErrBundleCrossing is returned when an instruction overlaps a 32-byte
	// boundary.
	ErrBundleCrossing = errors.New("nacl: instruction crosses bundle boundary")
	// ErrBadBranchTarget is returned when a direct control transfer does
	// not target a valid instruction start.
	ErrBadBranchTarget = errors.New("nacl: control transfer to invalid target")
	// ErrUnreachable is returned when a non-padding instruction is not
	// reachable from the entry point or any function start.
	ErrUnreachable = errors.New("nacl: unreachable instruction")
	// ErrUndecodable wraps decode failures — the symptom of mixed
	// code/data pages, which EnGarde rejects.
	ErrUndecodable = errors.New("nacl: undecodable byte sequence")
)

// Program is a validated instruction buffer. Unlike NaCl's sliding window,
// EnGarde retains every decoded instruction so policy modules can random-
// access the buffer (paper §4). Instruction starts are looked up by binary
// search over the address-ordered Insts slice, so a Program needs no side
// index and is immutable (and therefore freely shared) once built.
type Program struct {
	// Insts is the full decoded instruction sequence in address order.
	// The records hold no bytes: Raw serves them from Code.
	Insts []x86.Inst
	// Code is the validated text region, Code[0] at Base. It aliases the
	// buffer the Program was decoded from.
	Code []byte
	// Base and End delimit the validated text region.
	Base, End uint64

	// buf is the reuse-pool box Insts was taken from, if any; Release
	// returns Insts in it.
	buf *[]x86.Inst
}

// instPool holds instruction-record buffers given back by Release, so a
// server decoding one image after another reuses them instead of
// allocating megabytes of records per session. The boxes are pointers so
// that Put allocates nothing once a box is in circulation.
var instPool sync.Pool

// Release gives p's instruction records back for reuse by a later decode
// and sets Insts to nil. The caller must hold no view of Insts, and must
// not use p's instruction accessors, afterwards. A Program that is never
// released is simply collected.
func (p *Program) Release() {
	if p.Insts == nil {
		return
	}
	if p.buf == nil {
		p.buf = new([]x86.Inst)
	}
	*p.buf = p.Insts[:0]
	instPool.Put(p.buf)
	p.buf, p.Insts = nil, nil
}

// Raw returns the encoded bytes of instruction i, a view of Code.
func (p *Program) Raw(i int) []byte {
	in := &p.Insts[i]
	return p.Code[in.Addr-p.Base:][:in.Len]
}

// Span returns the encoded bytes of instructions [lo, hi), a view of Code:
// decoded instructions tile the region, so their bytes are contiguous.
func (p *Program) Span(lo, hi int) []byte {
	if lo >= hi {
		return nil
	}
	last := &p.Insts[hi-1]
	return p.Code[p.Insts[lo].Addr-p.Base : last.Addr+uint64(last.Len)-p.Base]
}

// InstAt returns the index of the instruction starting exactly at addr.
func (p *Program) InstAt(addr uint64) (int, bool) {
	i := sort.Search(len(p.Insts), func(i int) bool { return p.Insts[i].Addr >= addr })
	if i < len(p.Insts) && p.Insts[i].Addr == addr {
		return i, true
	}
	return 0, false
}

// IsInstStart reports whether addr is a decoded instruction boundary.
func (p *Program) IsInstStart(addr uint64) bool {
	_, ok := p.InstAt(addr)
	return ok
}

// Contains reports whether addr falls inside the validated region.
func (p *Program) Contains(addr uint64) bool {
	return addr >= p.Base && addr < p.End
}

// Validate decodes and validates the text region starting at base. entry
// is the program entry point; tab supplies function starts for the
// reachability rule (it may be nil, in which case only entry seeds the
// reachability walk). Decoding work is charged to the disassembly phase of
// counter when non-nil.
func Validate(code []byte, base, entry uint64, tab *symtab.Table, counter *cycles.Counter) (*Program, error) {
	p, err := DecodeProgramTraced(code, base, counter, 1, nil)
	if err != nil {
		return nil, err
	}
	if err := p.CheckReachability(entry, tab); err != nil {
		return nil, err
	}
	return p, nil
}

// DecodeProgramTraced performs the first three validation rules (full
// decode, bundle discipline, branch-target validity) without the
// reachability walk. Callers recovering function boundaries from stripped
// binaries (internal/funcid) decode first, recover, then run
// CheckReachability with the recovered table. workers is ignored: every
// pass is sequential. It stays in the signature for existing callers. One
// wall-clock span per validation pass is recorded on tr (nil tr is a
// no-op); cycle attribution stays with the caller's enclosing disassembly
// phase span, so the pass spans are timing-only.
func DecodeProgramTraced(code []byte, base uint64, counter *cycles.Counter, workers int, tr *obs.Trace) (*Program, error) {
	// Pass 1: full decode (rejects mixed code/data).
	sp := tr.StartSpan("disasm:decode")
	p := &Program{Code: code, Base: base, End: base + uint64(len(code))}
	if p.buf, _ = instPool.Get().(*[]x86.Inst); p.buf != nil {
		p.Insts = *p.buf
	}
	var err error
	p.Insts, err = decodeRange(p.Insts, code, base)
	sp.End()
	if err != nil {
		return nil, err
	}
	if counter != nil {
		counter.Charge(cycles.PhaseDisasm, cycles.UnitDecodedInst, uint64(len(p.Insts)))
	}

	// Pass 2: bundle rule.
	sp = tr.StartSpan("disasm:bundle-check")
	for i := range p.Insts {
		in := &p.Insts[i]
		if in.Addr/BundleSize != (in.Addr+uint64(in.Len)-1)/BundleSize {
			sp.End()
			return nil, fmt.Errorf("%w: %s at %#x (%d bytes)", ErrBundleCrossing, in.String(), in.Addr, in.Len)
		}
	}
	sp.End()

	// Pass 3: control-transfer targets. Targets outside the region (e.g.
	// into a runtime the enclave doesn't have) are invalid too. A bitmap
	// of instruction starts answers each target in O(1).
	sp = tr.StartSpan("disasm:branch-check")
	defer sp.End()
	starts := make([]uint64, (len(code)+63)/64)
	for k := range p.Insts {
		off := p.Insts[k].Addr - base
		starts[off/64] |= 1 << (off % 64)
	}
	for i := range p.Insts {
		in := &p.Insts[i]
		tgt, ok := in.BranchTarget()
		if !ok {
			continue
		}
		if off := tgt - base; !p.Contains(tgt) || starts[off/64]&(1<<(off%64)) == 0 {
			return nil, fmt.Errorf("%w: %s at %#x targets %#x", ErrBadBranchTarget, in.String(), in.Addr, tgt)
		}
	}
	return p, nil
}

// decodeRange decodes the whole of code into its instruction sequence,
// appending to insts (empty, possibly with spare capacity). The records
// are reserved up front for one instruction per four bytes: synthetic-
// toolchain instructions average ~4.6 bytes, so this usually avoids every
// regrow.
func decodeRange(insts []x86.Inst, code []byte, base uint64) ([]x86.Inst, error) {
	insts = slices.Grow(insts, len(code)/4+1)
	for off := 0; off < len(code); {
		insts = slices.Grow(insts, 1)
		insts = insts[:len(insts)+1]
		in := &insts[len(insts)-1]
		addr := base + uint64(off)
		if err := x86.DecodeInto(in, code[off:], addr); err != nil {
			return nil, fmt.Errorf("%w: at %#x: %v", ErrUndecodable, addr, err)
		}
		off += int(in.Len)
	}
	return insts, nil
}

// CheckReachability enforces the fourth rule: every non-padding
// instruction must be reachable from the entry point or a function start.
func (p *Program) CheckReachability(entry uint64, tab *symtab.Table) error {
	reached := make([]uint64, (len(p.Insts)+63)/64) // bitmap over Insts
	var stack []int
	mark := func(i int) {
		if reached[i/64]&(1<<(i%64)) == 0 {
			reached[i/64] |= 1 << (i % 64)
			stack = append(stack, i)
		}
	}
	push := func(addr uint64) {
		if i, ok := p.InstAt(addr); ok {
			mark(i)
		}
	}
	push(entry)
	if tab != nil {
		for _, fn := range tab.Functions() {
			push(fn.Addr)
		}
	}
	for len(stack) > 0 {
		i := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		in := &p.Insts[i]
		// Branch edge.
		if tgt, ok := in.BranchTarget(); ok {
			push(tgt)
		}
		// Fall-through edge; ret and unconditional jmp do not fall
		// through. Indirect jumps don't either, but their targets are
		// function starts already seeded. Decoded instructions tile the
		// region, so the next one is almost always i+1; the search is
		// only the fallback.
		switch in.Op {
		case x86.OpRet, x86.OpJmp, x86.OpJmpInd, x86.OpUd2, x86.OpHlt:
		default:
			next := in.Addr + uint64(in.Len)
			if i+1 < len(p.Insts) && p.Insts[i+1].Addr == next {
				mark(i + 1)
			} else {
				push(next)
			}
		}
	}
	for i := range p.Insts {
		if reached[i/64]&(1<<(i%64)) == 0 && p.Insts[i].Op != x86.OpNop {
			return fmt.Errorf("%w: %s at %#x", ErrUnreachable, p.Insts[i].String(), p.Insts[i].Addr)
		}
	}
	return nil
}
