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
	Insts []x86.Inst
	// Base and End delimit the validated text region.
	Base, End uint64
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
	return finishProgram(insts, base, uint64(len(code)), counter, workers, tr)
}

// finishProgram runs everything downstream of the raw decode — the decoded-
// instruction cycle charge and validation passes 2 and 3 — shared between
// DecodeProgramTraced above and StreamDecoder.Finish, so both produce
// identical Programs, rejections, and charges by construction.
func finishProgram(insts []x86.Inst, base, size uint64, counter *cycles.Counter, workers int, tr *obs.Trace) (*Program, error) {
	p := &Program{Insts: insts, Base: base, End: base + size}
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
	// into a runtime the enclave doesn't have) are invalid too.
	sp = tr.StartSpan("disasm:branch-check")
	i = firstIndex(len(p.Insts), workers, func(i int) bool {
		tgt, ok := p.Insts[i].BranchTarget()
		return ok && (!p.Contains(tgt) || !p.IsInstStart(tgt))
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

// chunkInstPool recycles the per-chunk speculative decode buffers across
// provisioning sessions. Safe because seam reconciliation copies adopted
// instruction values into the merged slice — no chunk backing array
// outlives decodeSharded.
var chunkInstPool = sync.Pool{
	New: func() any {
		s := make([]x86.Inst, 0, 1024)
		return &s
	},
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
	defer func() {
		for k := range chunks {
			if chunks[k].insts == nil {
				continue
			}
			s := chunks[k].insts[:0]
			chunkInstPool.Put(&s)
		}
	}()
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
			decodeChunk(&chunks[k], code, base, start, end)
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
// chunk before the whole region has arrived.
func decodeChunk(c *chunkDecode, code []byte, base uint64, start, end int) {
	c.insts = (*chunkInstPool.Get().(*[]x86.Inst))[:0]
	off := start
	for off < end {
		addr := base + uint64(off)
		in, err := x86.Decode(code[off:], addr)
		if err != nil {
			c.err, c.errOff = err, off
			break
		}
		c.insts = append(c.insts, in)
		off += in.Len
	}
	c.spill = off
}

// mergeChunks performs seam reconciliation: walk the region in address
// order. Whenever the true decode position coincides with an instruction
// start some chunk decoded speculatively, that chunk's tail is adopted
// wholesale (its decode from that offset is, by determinism, exactly what a
// serial pass would produce); otherwise a single instruction is re-decoded
// serially and the test repeats. Chunk 0 always starts aligned, so the
// prefix is adopted immediately.
func mergeChunks(code []byte, base uint64, chunks []chunkDecode, chunkSize int) ([]x86.Inst, error) {
	// The merged slice is presized from the speculative totals: the true
	// sequence has at most a handful more instructions than the chunks'
	// sum (seam re-decodes), so one allocation nearly always suffices.
	var est int
	for k := range chunks {
		est += len(chunks[k].insts)
	}
	insts := make([]x86.Inst, 0, est)
	pos := 0
	for pos < len(code) {
		c := &chunks[pos/chunkSize]
		if i, ok := seekChunk(c, base+uint64(pos)); ok {
			insts = append(insts, c.insts[i:]...)
			if c.err != nil {
				return nil, undecodable(base+uint64(c.errOff), c.err)
			}
			pos = c.spill
			continue
		}
		addr := base + uint64(pos)
		in, err := x86.Decode(code[pos:], addr)
		if err != nil {
			return nil, undecodable(addr, err)
		}
		insts = append(insts, in)
		pos += in.Len
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
	// Synthetic-toolchain instructions average ~4 bytes, so this presize
	// usually avoids every append regrow.
	insts := make([]x86.Inst, 0, (end-start)/4+1)
	off := start
	for off < end {
		addr := base + uint64(off)
		in, err := x86.Decode(code[off:], addr)
		if err != nil {
			return nil, undecodable(addr, err)
		}
		insts = append(insts, in)
		off += in.Len
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
