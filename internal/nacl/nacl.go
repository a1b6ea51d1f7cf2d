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
// Decoding can be sharded across workers: the region is split into chunks
// that are decoded speculatively in parallel and then reconciled at the
// seams. x86 decoding self-synchronizes, so a speculative chunk almost
// always rejoins the true instruction stream; where it does not, the seam
// is re-decoded serially. The result is bit-identical to the sequential
// pass, including cycle charges.
package nacl

import (
	"errors"
	"fmt"
	"runtime"
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

// minChunkBytes bounds sharding overhead: a region is never split into
// chunks smaller than this, so tiny inputs decode sequentially.
const minChunkBytes = 2048

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

// Validate decodes and validates the text region starting at base,
// sequentially. entry is the program entry point; tab supplies function
// starts for the reachability rule (it may be nil, in which case only entry
// seeds the reachability walk). Decoding work is charged to the disassembly
// phase of counter when non-nil.
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
// reachability walk, sharded across workers (<= 0 means GOMAXPROCS; 1 is
// the sequential decoder). Callers recovering function boundaries from
// stripped binaries (internal/funcid) decode first, recover, then run
// CheckReachability with the recovered table. The produced Program is
// bit-identical for any worker count and charges the same cycle totals:
// speculative decode work thrown away at seam reconciliation is never
// charged. One wall-clock span per validation pass is recorded on tr (nil
// tr is a no-op); the passes run sequentially, but cycle attribution stays
// with the caller's enclosing disassembly phase span, so the pass spans
// are timing-only.
func DecodeProgramTraced(code []byte, base uint64, counter *cycles.Counter, workers int, tr *obs.Trace) (*Program, error) {
	// Pass 1: full decode (rejects mixed code/data).
	sp := tr.StartSpan("disasm:decode")
	insts, err := decodeSharded(code, base, normalizeWorkers(workers, len(code)))
	sp.End()
	if err != nil {
		return nil, err
	}
	return finishProgram(insts, code, base, counter, workers, tr)
}

// finishProgram runs everything downstream of the raw decode — the decoded-
// instruction cycle charge and validation passes 2 and 3 — shared between
// DecodeProgramTraced above and StreamDecoder.Finish, so both produce
// identical Programs, rejections, and charges by construction.
func finishProgram(insts []x86.Inst, code []byte, base uint64, counter *cycles.Counter, workers int, tr *obs.Trace) (*Program, error) {
	p := &Program{Insts: insts, Code: code, Base: base, End: base + uint64(len(code))}
	if counter != nil {
		counter.Charge(cycles.PhaseDisasm, cycles.UnitDecodedInst, uint64(len(p.Insts)))
	}

	// Pass 2: bundle rule.
	sp := tr.StartSpan("disasm:bundle-check")
	i := firstIndex(len(p.Insts), workers, func(i int) bool {
		in := &p.Insts[i]
		return in.Addr/BundleSize != (in.Addr+uint64(in.Len)-1)/BundleSize
	})
	sp.End()
	if i >= 0 {
		in := &p.Insts[i]
		return nil, fmt.Errorf("%w: %s at %#x (%d bytes)", ErrBundleCrossing, in.String(), in.Addr, in.Len)
	}

	// Pass 3: control-transfer targets. Targets outside the region (e.g.
	// into a runtime the enclave doesn't have) are invalid too. A bitmap
	// of instruction starts answers each target in O(1).
	sp = tr.StartSpan("disasm:branch-check")
	starts := make([]uint64, (len(code)+63)/64)
	for k := range p.Insts {
		off := p.Insts[k].Addr - base
		starts[off/64] |= 1 << (off % 64)
	}
	i = firstIndex(len(p.Insts), workers, func(i int) bool {
		tgt, ok := p.Insts[i].BranchTarget()
		if !ok {
			return false
		}
		off := tgt - base
		return !p.Contains(tgt) || starts[off/64]&(1<<(off%64)) == 0
	})
	sp.End()
	if i >= 0 {
		in := &p.Insts[i]
		tgt, _ := in.BranchTarget()
		return nil, fmt.Errorf("%w: %s at %#x targets %#x", ErrBadBranchTarget, in.String(), in.Addr, tgt)
	}

	return p, nil
}

// normalizeWorkers resolves the requested worker count against the input
// size: <= 0 means GOMAXPROCS, and the region is never cut into chunks
// smaller than minChunkBytes.
func normalizeWorkers(workers, size int) int {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if max := size / minChunkBytes; workers > max {
		workers = max
	}
	if workers < 1 {
		workers = 1
	}
	return workers
}

// chunkDecode is one worker's speculative decode of [start, spill).
type chunkDecode struct {
	insts  []x86.Inst
	spill  int   // offset where decoding stopped (first offset NOT consumed)
	err    error // decode failure, if any
	errOff int   // offset of the failure
}

// decodeSharded decodes code into its instruction sequence. With one
// worker it is the plain sequential loop; with more, chunks are decoded
// speculatively in parallel and reconciled in address order.
func decodeSharded(code []byte, base uint64, workers int) ([]x86.Inst, error) {
	if workers <= 1 || len(code) < workers {
		return decodeRange(code, base, 0, len(code))
	}

	chunkSize := (len(code) + workers - 1) / workers
	numChunks := (len(code) + chunkSize - 1) / chunkSize
	chunks := make([]chunkDecode, numChunks)
	var wg sync.WaitGroup
	for k := 0; k < numChunks; k++ {
		wg.Add(1)
		go func(k int) {
			defer wg.Done()
			start := k * chunkSize
			end := start + chunkSize
			if end > len(code) {
				end = len(code)
			}
			decodeChunk(&chunks[k], code, base, start, end, len(code))
		}(k)
	}
	wg.Wait()
	return mergeChunks(code, base, chunks, chunkSize)
}

// decodeChunk is one worker's speculative decode of code offsets
// [start, end): decoding continues past end into the following chunk until
// an instruction boundary lands at or beyond it (spill). The chunk's
// result depends only on code[start : min(end+14, len(code))] — an
// instruction is at most 15 bytes, so the last decode started before end
// never reads further — which is what lets the streaming decoder launch a
// chunk before the whole region has arrived. Chunk 0 reserves room for the
// whole size-byte region: its slice becomes the merged program.
func decodeChunk(c *chunkDecode, code []byte, base uint64, start, end, size int) {
	n := end - start
	if start == 0 {
		n = size
	}
	insts := make([]x86.Inst, 0, presize(n))
	off := start
	for off < end {
		var in *x86.Inst
		insts, in = grow1(insts)
		if err := x86.DecodeInto(in, code[off:], base+uint64(off)); err != nil {
			insts = insts[:len(insts)-1]
			c.err, c.errOff = err, off
			break
		}
		off += int(in.Len)
	}
	c.insts, c.spill = insts, off
}

// presize is the record capacity reserved for n code bytes. Synthetic-
// toolchain instructions average ~4.6 bytes, so this usually avoids every
// regrow.
func presize(n int) int { return n/4 + 1 }

// grow1 extends insts by one record, in place when capacity allows, and
// returns the new record for x86.DecodeInto to fill.
func grow1(insts []x86.Inst) ([]x86.Inst, *x86.Inst) {
	insts = slices.Grow(insts, 1)
	insts = insts[:len(insts)+1]
	return insts, &insts[len(insts)-1]
}

// mergeChunks performs seam reconciliation: walk the region in address
// order. Whenever the true decode position coincides with an instruction
// start some chunk decoded speculatively, that chunk's tail is adopted
// wholesale (its decode from that offset is, by determinism, exactly what a
// serial pass would produce); otherwise a single instruction is re-decoded
// serially and the test repeats. Chunk 0 always starts aligned, so the
// prefix is adopted immediately.
func mergeChunks(code []byte, base uint64, chunks []chunkDecode, chunkSize int) ([]x86.Inst, error) {
	var insts []x86.Inst
	pos := 0
	for pos < len(code) {
		c := &chunks[pos/chunkSize]
		if i, ok := seekChunk(c, base+uint64(pos)); ok {
			if len(insts) == 0 {
				// Chunk 0, adopted in place: it reserved room for the
				// whole program, so the later chunks append without a
				// regrow.
				insts = c.insts[i:]
			} else {
				insts = append(insts, c.insts[i:]...)
			}
			if c.err != nil {
				return nil, undecodable(base+uint64(c.errOff), c.err)
			}
			pos = c.spill
			continue
		}
		var in *x86.Inst
		insts, in = grow1(insts)
		addr := base + uint64(pos)
		if err := x86.DecodeInto(in, code[pos:], addr); err != nil {
			return nil, undecodable(addr, err)
		}
		pos += int(in.Len)
	}
	return insts, nil
}

// seekChunk finds the index in c.insts of the instruction starting at
// addr, if the chunk's speculative decode visited that start.
func seekChunk(c *chunkDecode, addr uint64) (int, bool) {
	i := sort.Search(len(c.insts), func(i int) bool { return c.insts[i].Addr >= addr })
	if i < len(c.insts) && c.insts[i].Addr == addr {
		return i, true
	}
	return 0, false
}

// decodeRange is the sequential decode loop over code[start:end).
func decodeRange(code []byte, base uint64, start, end int) ([]x86.Inst, error) {
	insts := make([]x86.Inst, 0, presize(end-start))
	off := start
	for off < end {
		var in *x86.Inst
		insts, in = grow1(insts)
		addr := base + uint64(off)
		if err := x86.DecodeInto(in, code[off:], addr); err != nil {
			return nil, undecodable(addr, err)
		}
		off += int(in.Len)
	}
	return insts, nil
}

func undecodable(addr uint64, err error) error {
	return fmt.Errorf("%w: at %#x: %v", ErrUndecodable, addr, err)
}

// firstIndex returns the lowest i in [0, n) for which bad(i) holds, or -1.
// The scan is sharded across workers; the result is deterministic because
// shards are contiguous and merged in order.
func firstIndex(n, workers int, bad func(i int) bool) int {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	const minShard = 4096
	if shards := n / minShard; workers > shards {
		workers = shards
	}
	if workers <= 1 {
		for i := 0; i < n; i++ {
			if bad(i) {
				return i
			}
		}
		return -1
	}
	shardSize := (n + workers - 1) / workers
	numShards := (n + shardSize - 1) / shardSize
	hits := make([]int, numShards)
	var wg sync.WaitGroup
	for s := 0; s < numShards; s++ {
		wg.Add(1)
		go func(s int) {
			defer wg.Done()
			lo, hi := s*shardSize, (s+1)*shardSize
			if hi > n {
				hi = n
			}
			hits[s] = -1
			for i := lo; i < hi; i++ {
				if bad(i) {
					hits[s] = i
					return
				}
			}
		}(s)
	}
	wg.Wait()
	for _, h := range hits {
		if h >= 0 {
			return h
		}
	}
	return -1
}

// CheckReachability enforces the fourth rule: every non-padding
// instruction must be reachable from the entry point or a function start.
func (p *Program) CheckReachability(entry uint64, tab *symtab.Table) error {
	reached := make([]bool, len(p.Insts))
	var stack []int
	mark := func(i int) {
		if !reached[i] {
			reached[i] = true
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
		if !reached[i] && p.Insts[i].Op != x86.OpNop {
			return fmt.Errorf("%w: %s at %#x", ErrUnreachable, p.Insts[i].String(), p.Insts[i].Addr)
		}
	}
	return nil
}
