// Package stackprot implements the stack-protection compliance policy of
// the paper's evaluation (§5, Figure 4): it verifies that every function of
// the executable carries Clang's -fstack-protector(-all) canary
// instrumentation:
//
//	mov %fs:0x28, %rax        ; prologue: load canary
//	mov %rax, (%rsp)          ; prologue: store canary
//	...
//	mov %fs:0x28, %rax        ; epilogue: reload canary
//	cmp (%rsp), %rax          ; epilogue: compare
//	jne <fail>                ;
//	<fail>: callq __stack_chk_fail
//
// Following the paper's algorithm: within each function the module looks
// for instructions that affect the stack's variables (stores through %rsp);
// for each candidate it identifies the source operand, checks that the
// preceding instruction computes it from %fs:0x28, then searches the
// function for a cmp against the same stack slot whose own source was
// freshly reloaded from %fs:0x28, followed by a jne whose target is a call
// to __stack_chk_fail.
//
// In the paper every stack-affecting store triggers a fresh search, so the
// check is superlinear in function size — which is why 401.bzip2 (few
// gigantic functions) costs more than Nginx (thousands of small ones)
// despite having an order of magnitude fewer instructions. Here that search
// is the cycle model's charge, not the wall clock's: one pass indexes each
// stack slot's first compare, each candidate looks its slot up, and the
// model is charged in closed form exactly what the search would have
// visited. Figure 4's shape comes out of the charges unchanged while the
// check itself runs in time linear in the function (plus a sort of its
// compares).
package stackprot

import (
	"cmp"
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"slices"

	"engarde/internal/policy"
	"engarde/internal/symtab"
	"engarde/internal/x86"
)

// CanaryTLSOffset is the %fs-relative canary location Clang uses on
// x86-64 Linux.
const CanaryTLSOffset = 0x28

// FailFunc is the runtime helper invoked on canary mismatch.
const FailFunc = "__stack_chk_fail"

// Module is the stack-protection policy module.
type Module struct {
	// EarlyExit stops scanning a function at the first complete canary
	// chain. The paper's implementation visits every stack-affecting
	// instruction ("continues with the next iteration until it reaches the
	// end of the instruction buffer") and searches the function for each,
	// which is what makes its cost superlinear in function size — the
	// mechanism behind Figure 4's bzip2-costs-more-than-Nginx inversion.
	// The module charges that search in the cycle model but runs it as an
	// index lookup, so EarlyExit mostly saves charged cycles, not wall
	// clock; BenchmarkAblationStackprotEarlyExit quantifies it.
	EarlyExit bool
}

// New returns the module in its paper-faithful (exhaustive) configuration.
func New() *Module { return &Module{} }

// Name implements policy.Module.
func (m *Module) Name() string { return "stack-protector" }

// Check implements policy.Module.
func (m *Module) Check(ctx *policy.Context) error {
	return policy.RunSharded(ctx, m)
}

// memoVersion tags the revalidation-payload format: a signed varint of
// (jne-target address − function address), or empty for a trivial thunk.
// Bump it whenever the encoding or its interpretation changes.
const memoVersion = "stackprot/1"

// MemoFingerprint implements policy.Memoizable. EarlyExit changes only
// charge accounting, never the verdict, but memoized outcomes skip the
// charges too — so it is part of the identity to keep warm-path accounting
// consistent per configuration.
func (m *Module) MemoFingerprint() [sha256.Size]byte {
	v := memoVersion
	if m.EarlyExit {
		v += "+early-exit"
	}
	return policy.MemoKeyFP(m, v)
}

// BeginShards implements policy.Sharded. The check is function-granular:
// a function (and all its charges) is owned by the span whose address
// interval contains the function's start, so span cuts never split or
// double-count a function.
func (m *Module) BeginShards(ctx *policy.Context) (policy.SpanChecker, error) {
	c := &checker{m: m, funcs: ctx.Symbols.Functions()}
	if ctx.Memo != nil {
		c.memo = true
		c.fp = m.MemoFingerprint()
	}
	return c, nil
}

type checker struct {
	m     *Module
	funcs []symtab.Entry
	memo  bool
	fp    [sha256.Size]byte
}

// CheckSpan verifies every function owned by the index span [lo, hi).
func (c *checker) CheckSpan(ctx *policy.Context, lo, hi int) error {
	m := c.m
	p := ctx.Program
	// Spans run concurrently on one checker, so the scratch index is
	// per call; its backing array is reused across the span's functions.
	var idx slotIndex
	for _, fn := range policy.FuncsInSpan(p, c.funcs, lo, hi) {
		startIdx, ok := p.InstAt(fn.Addr)
		if !ok {
			return &policy.Violation{
				Module: m.Name(), Addr: fn.Addr,
				Reason: fmt.Sprintf("function %s does not start at an instruction", fn.Name),
			}
		}
		ctx.ChargeLookup(1)
		endIdx := len(p.Insts)
		if next, ok := ctx.Symbols.NextFuncAfter(fn.Addr); ok {
			if i, ok := p.InstAt(next); ok {
				endIdx = i
			}
		}
		if c.memo {
			if done, err := c.checkMemo(ctx, &idx, fn, startIdx, endIdx); done {
				if err != nil {
					return err
				}
				continue
			}
		}
		if m.isTrivialThunk(p.Insts[startIdx:endIdx]) {
			// Jump-table entries and pure-padding spans have no stack
			// frame to protect; Clang does not instrument them either.
			continue
		}
		if _, err := m.checkFunction(ctx, &idx, fn.Name, startIdx, endIdx); err != nil {
			return err
		}
	}
	return nil
}

// Finish implements policy.SpanChecker; there is no epilogue.
func (c *checker) Finish(ctx *policy.Context) error { return nil }

// checkMemo runs one function through the memo cache: revalidated hit →
// skip, otherwise full check with the passing outcome recorded. done is
// false when the function is memo-ineligible — its boundary per
// NextFuncAfter disagrees with the digest span's, so the memoized bytes
// would not be the bytes this module inspects — and the caller must take
// the cold path.
func (c *checker) checkMemo(ctx *policy.Context, idx *slotIndex, fn symtab.Entry, startIdx, endIdx int) (done bool, err error) {
	m := c.m
	sp, ok := ctx.Memo.Span(fn.Addr)
	if !ok || sp.StartIdx != startIdx || sp.EndIdx != endIdx {
		return false, nil
	}
	if payload, hit := ctx.Memo.Hit(c.fp, fn.Addr); hit && m.revalidate(ctx, payload, fn.Addr) {
		ctx.Memo.CountReuse(1)
		return true, nil
	}
	p := ctx.Program
	if m.isTrivialThunk(p.Insts[startIdx:endIdx]) {
		ctx.Memo.Record(c.fp, fn.Addr, nil)
		return true, nil
	}
	witness, err := m.checkFunction(ctx, idx, fn.Name, startIdx, endIdx)
	if err != nil {
		return true, err
	}
	rel := int64(witness) - int64(p.Insts[startIdx].Addr)
	ctx.Memo.Record(c.fp, fn.Addr, binary.AppendVarint(nil, rel))
	return true, nil
}

// revalidate re-executes the cross-function tail of a memoized canary
// chain: the payload's jne target (function-relative) must still lead —
// possibly through alignment NOPs — to a direct call resolving to
// __stack_chk_fail in *this* image's symbol table. An empty payload marks
// a trivial thunk, a pure function of the digest-pinned bytes.
func (m *Module) revalidate(ctx *policy.Context, payload []byte, fnAddr uint64) bool {
	if len(payload) == 0 {
		return true
	}
	rel, n := binary.Varint(payload)
	if n != len(payload) {
		return false
	}
	p := ctx.Program
	ti, ok := p.InstAt(fnAddr + uint64(rel))
	if !ok {
		return false
	}
	for ti < len(p.Insts) && p.Insts[ti].Op == x86.OpNop {
		ti++
	}
	if ti >= len(p.Insts) || !p.Insts[ti].IsDirectCall() {
		return false
	}
	callTgt, ok := p.Insts[ti].BranchTarget()
	if !ok {
		return false
	}
	ctx.ChargeLookup(1)
	fname, ok := ctx.Symbols.NameAt(callTgt)
	return ok && fname == FailFunc
}

// isTrivialThunk reports whether the body is only jumps/nops (IFCC
// jump-table slots).
func (m *Module) isTrivialThunk(insts []x86.Inst) bool {
	for i := range insts {
		switch insts[i].Op {
		case x86.OpJmp, x86.OpNop, x86.OpUd2:
		default:
			return false
		}
	}
	return true
}

// prevNonNop steps backwards over NaCl alignment NOPs, which are
// transparent to the instrumentation pattern.
func prevNonNop(insts []x86.Inst, i int) int {
	i--
	for i >= 0 && insts[i].Op == x86.OpNop {
		i--
	}
	return i
}

// nextNonNop steps forward over alignment NOPs.
func nextNonNop(insts []x86.Inst, i int) int {
	i++
	for i < len(insts) && insts[i].Op == x86.OpNop {
		i++
	}
	return i
}

// checkFunction verifies the canary chain within one function. On success
// it returns the jne target of the first complete chain: the witness that
// checkMemo encodes as the memo revalidation payload. idx is the caller's
// scratch index, rebuilt here for this function.
//
// The paper's algorithm searches the whole function for a matching cmp on
// every candidate store. The result of that search depends only on the
// slot, so one pass indexes each slot's first compare and every candidate
// becomes a lookup. The cycle model still charges the search: j+1 visits
// when the slot's first compare sits at index j, the function length when
// there is none, one ScanInst and two PatternSteps per visit.
func (m *Module) checkFunction(ctx *policy.Context, idx *slotIndex, name string, start, end int) (uint64, error) {
	p := ctx.Program
	insts := p.Insts[start:end]
	n := uint64(len(insts))
	idx.build(insts)
	var t policy.Tally
	protected := false
	var witness uint64 // jne target of the first complete chain

	for i := range insts {
		t.Scan++
		in := &insts[i]
		// Candidate: a store that affects the stack's variables.
		slot, srcReg, ok := stackStore(in)
		if !ok {
			continue
		}
		t.Pattern += 2
		// The containment search for a cmp against the same stack slot,
		// charged as if it had been run.
		site, found := idx.first(slot)
		visits := n
		if found {
			visits = uint64(site.j) + 1
		}
		t.Scan += visits
		t.Pattern += 2 * visits // opcode + both operands inspected per visit
		if !found {
			continue
		}
		// Provenance of the stored value: the instruction preceding the
		// store must compute it from %fs:0x28 ...
		pi := prevNonNop(insts, i)
		if pi < 0 || !canaryLoad(&insts[pi], srcReg) {
			continue
		}
		t.Pattern++
		// ... and the rest of the verification chain must hang off the cmp.
		if tgt, ok := m.verifyChain(ctx, &t, insts, site.j, site.reg); ok {
			if !protected {
				protected = true
				witness = tgt
			}
			if m.EarlyExit {
				break
			}
		}
	}
	t.Flush(ctx)
	if !protected {
		return 0, &policy.Violation{
			Module: m.Name(), Addr: insts[0].Addr,
			Reason: fmt.Sprintf("function %s lacks -fstack-protector instrumentation", name),
		}
	}
	return witness, nil
}

// cmpSite is the first "cmp slot(%rsp), REG" against one stack slot, at
// function-relative index j.
type cmpSite struct {
	slot int64
	j    int
	reg  x86.Reg
}

// slotIndex maps each stack slot of one function to its first canary
// compare. It is a sorted slice rather than a map: the client controls how
// many distinct slots a function has, a lookup stays O(log k) either way,
// and reusing the slice across functions costs no clearing.
type slotIndex struct {
	sites []cmpSite
}

// build indexes insts. Sites are appended in index order and sorted by
// (slot, j), so each slot's first compare leads its run.
func (x *slotIndex) build(insts []x86.Inst) {
	x.sites = x.sites[:0]
	for j := range insts {
		if slot, reg, ok := canaryCompare(&insts[j]); ok {
			x.sites = append(x.sites, cmpSite{slot: slot, j: j, reg: reg})
		}
	}
	slices.SortFunc(x.sites, func(a, b cmpSite) int {
		if c := cmp.Compare(a.slot, b.slot); c != 0 {
			return c
		}
		return cmp.Compare(a.j, b.j)
	})
}

// first returns the slot's first compare, as the paper's linear search
// from the top of the function would find it.
func (x *slotIndex) first(slot int64) (cmpSite, bool) {
	i, found := slices.BinarySearchFunc(x.sites, slot, func(s cmpSite, slot int64) int {
		return cmp.Compare(s.slot, slot)
	})
	if !found {
		return cmpSite{}, false
	}
	return x.sites[i], true
}

// verifyChain checks the epilogue chain hanging off the cmp at index j:
// a canary reload just before it, a jne just after, and a jne target that
// is (or falls through NOPs to) callq __stack_chk_fail. On success it
// returns the jne target — the memo payload's witness. Its charges go to t.
func (m *Module) verifyChain(ctx *policy.Context, t *policy.Tally, insts []x86.Inst, j int, cmpReg x86.Reg) (uint64, bool) {
	p := ctx.Program
	t.Pattern += 3
	pj := prevNonNop(insts, j)
	if pj < 0 || !canaryLoad(&insts[pj], cmpReg) {
		return 0, false
	}
	nj := nextNonNop(insts, j)
	if nj >= len(insts) {
		return 0, false
	}
	jne := &insts[nj]
	if jne.Op != x86.OpJcc || jne.Cond != x86.CondNE {
		return 0, false
	}
	target, ok := jne.BranchTarget()
	if !ok {
		return 0, false
	}
	ti, ok := p.InstAt(target)
	if !ok {
		return 0, false
	}
	for ti < len(p.Insts) && p.Insts[ti].Op == x86.OpNop {
		ti++
	}
	if ti >= len(p.Insts) || !p.Insts[ti].IsDirectCall() {
		return 0, false
	}
	callTgt, ok := p.Insts[ti].BranchTarget()
	if !ok {
		return 0, false
	}
	t.Lookup++
	fname, ok := ctx.Symbols.NameAt(callTgt)
	if !ok || fname != FailFunc {
		return 0, false
	}
	return target, true
}

// stackStore matches "mov REG, disp(%rsp)" and returns the slot and source
// register.
func stackStore(in *x86.Inst) (slot int64, src x86.Reg, ok bool) {
	if in.Op != x86.OpMov || in.NArgs != 2 {
		return 0, 0, false
	}
	dst, s := in.Args[0], in.Args[1]
	if s.Kind != x86.KindReg || dst.Kind != x86.KindMem {
		return 0, 0, false
	}
	mem := dst.Mem
	if mem.Base != x86.RegSP || mem.Index != x86.RegNone || mem.Seg != x86.SegNone {
		return 0, 0, false
	}
	return mem.Disp, s.Reg, true
}

// canaryLoad matches "mov %fs:0x28, REG".
func canaryLoad(in *x86.Inst, reg x86.Reg) bool {
	return in.Op == x86.OpMov && in.NArgs == 2 &&
		in.Args[0].IsReg(reg) && in.Args[1].IsSegDisp(x86.SegFS, CanaryTLSOffset)
}

// canaryCompare matches "cmp slot(%rsp), REG" and returns the slot and
// REG.
func canaryCompare(in *x86.Inst) (slot int64, reg x86.Reg, ok bool) {
	if in.Op != x86.OpCmp || in.NArgs != 2 || in.Args[0].Kind != x86.KindReg {
		return 0, 0, false
	}
	mem := in.Args[1]
	if !mem.IsMemBaseDisp(x86.RegSP, mem.Mem.Disp) {
		return 0, 0, false
	}
	return mem.Mem.Disp, in.Args[0].Reg, true
}
