package stackprot

// The stack-protection checker as it was before the slot index, kept
// verbatim (renamed only) as the reference the differential tests hold the
// indexed checker to: same verdicts, violations, memo payloads and charged
// cycle units.

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"

	"engarde/internal/policy"
	"engarde/internal/symtab"
	"engarde/internal/x86"
)

// refModule is the stack-protection module as it was before the slot
// index: every candidate store runs the full containment search.
type refModule struct {
	// EarlyExit stops scanning a function at the first complete canary
	// chain. The paper's implementation visits every stack-affecting
	// instruction ("continues with the next iteration until it reaches the
	// end of the instruction buffer"), which is what makes the check
	// superlinear in function size — the mechanism behind Figure 4's
	// bzip2-costs-more-than-Nginx inversion. EarlyExit is the obvious
	// optimization; BenchmarkAblationStackprotEarlyExit quantifies it.
	EarlyExit bool
}

// Name implements policy.Module.
func (m *refModule) Name() string { return "stack-protector" }

// MemoFingerprint implements policy.Memoizable. EarlyExit changes only
// charge accounting, never the verdict, but memoized outcomes skip the
// charges too — so it is part of the identity to keep warm-path accounting
// consistent per configuration.
func (m *refModule) MemoFingerprint() [sha256.Size]byte {
	v := memoVersion
	if m.EarlyExit {
		v += "+early-exit"
	}
	return policy.MemoKeyFP(m, v)
}

// Check implements policy.Module: every function in the symbol table is
// checked in address order, through the memo cache when a memo session is
// active.
func (m *refModule) Check(ctx *policy.Context) error {
	var fp [sha256.Size]byte
	if ctx.Memo != nil {
		fp = m.MemoFingerprint()
	}
	p := ctx.Program
	for _, fn := range ctx.Symbols.Functions() {
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
		if ctx.Memo != nil {
			if done, err := m.checkMemo(ctx, fp, fn, startIdx, endIdx); done {
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
		if _, err := m.checkFunction(ctx, fn.Name, startIdx, endIdx); err != nil {
			return err
		}
	}
	return nil
}

// checkMemo runs one function through the memo cache: revalidated hit →
// skip, otherwise full check with the passing outcome recorded. done is
// false when the function is memo-ineligible — its boundary per
// NextFuncAfter disagrees with the digest span's, so the memoized bytes
// would not be the bytes this module inspects — and the caller must take
// the cold path.
func (m *refModule) checkMemo(ctx *policy.Context, fp [sha256.Size]byte, fn symtab.Entry, startIdx, endIdx int) (done bool, err error) {
	sp, ok := ctx.Memo.Span(fn.Addr)
	if !ok || sp.StartIdx != startIdx || sp.EndIdx != endIdx {
		return false, nil
	}
	if payload, hit := ctx.Memo.Hit(fp, fn.Addr); hit && m.revalidate(ctx, payload, fn.Addr) {
		ctx.Memo.CountReuse(1)
		return true, nil
	}
	p := ctx.Program
	if m.isTrivialThunk(p.Insts[startIdx:endIdx]) {
		ctx.Memo.Record(fp, fn.Addr, nil)
		return true, nil
	}
	payload, err := m.checkFunction(ctx, fn.Name, startIdx, endIdx)
	if err != nil {
		return true, err
	}
	ctx.Memo.Record(fp, fn.Addr, payload)
	return true, nil
}

// revalidate re-executes the cross-function tail of a memoized canary
// chain: the payload's jne target (function-relative) must still lead —
// possibly through alignment NOPs — to a direct call resolving to
// __stack_chk_fail in *this* image's symbol table. An empty payload marks
// a trivial thunk, a pure function of the digest-pinned bytes.
func (m *refModule) revalidate(ctx *policy.Context, payload []byte, fnAddr uint64) bool {
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
func (m *refModule) isTrivialThunk(insts []x86.Inst) bool {
	for i := range insts {
		switch insts[i].Op {
		case x86.OpJmp, x86.OpNop, x86.OpUd2:
		default:
			return false
		}
	}
	return true
}

// checkFunction verifies the canary chain within one function. On success
// it returns the memo revalidation payload: the first complete chain's jne
// target, encoded function-relative.
func (m *refModule) checkFunction(ctx *policy.Context, name string, start, end int) ([]byte, error) {
	p := ctx.Program
	insts := p.Insts[start:end]
	protected := false
	var witness uint64 // jne target of the first complete chain

	for i := range insts {
		ctx.ChargeScan(1)
		in := &insts[i]
		// Candidate: a store that affects the stack's variables.
		slot, srcReg, ok := stackStore(in)
		if !ok {
			continue
		}
		ctx.ChargePattern(2)
		// Search the function for a cmp against the same stack slot; the
		// paper performs this containment search for every candidate.
		j, cmpReg, found := m.findCanaryCompare(ctx, insts, slot)
		if !found {
			continue
		}
		// Provenance of the stored value: the instruction preceding the
		// store must compute it from %fs:0x28 ...
		pi := prevNonNop(insts, i)
		if pi < 0 || !canaryLoad(&insts[pi], srcReg) {
			continue
		}
		ctx.ChargePattern(1)
		// ... and the rest of the verification chain must hang off the cmp.
		if tgt, ok := m.verifyChain(ctx, insts, j, cmpReg); ok {
			if !protected {
				protected = true
				witness = tgt
			}
			if m.EarlyExit {
				break
			}
		}
	}
	if !protected {
		return nil, &policy.Violation{
			Module: m.Name(), Addr: insts[0].Addr,
			Reason: fmt.Sprintf("function %s lacks -fstack-protector instrumentation", name),
		}
	}
	return binary.AppendVarint(nil, int64(witness)-int64(insts[0].Addr)), nil
}

// findCanaryCompare scans the whole function for "cmp slot(%rsp), REG",
// charging per instruction visited — the containment search the paper
// performs per candidate store.
func (m *refModule) findCanaryCompare(ctx *policy.Context, insts []x86.Inst, slot int64) (int, x86.Reg, bool) {
	for j := range insts {
		ctx.ChargeScan(1)
		ctx.ChargePattern(2) // opcode + both operands inspected per visit
		if reg, ok := refCanaryCompare(&insts[j], slot); ok {
			return j, reg, true
		}
	}
	return 0, 0, false
}

// verifyChain checks the epilogue chain hanging off the cmp at index j:
// a canary reload just before it, a jne just after, and a jne target that
// is (or falls through NOPs to) callq __stack_chk_fail. On success it
// returns the jne target — the memo payload's witness.
func (m *refModule) verifyChain(ctx *policy.Context, insts []x86.Inst, j int, cmpReg x86.Reg) (uint64, bool) {
	p := ctx.Program
	ctx.ChargePattern(3)
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
	ctx.ChargeLookup(1)
	fname, ok := ctx.Symbols.NameAt(callTgt)
	if !ok || fname != FailFunc {
		return 0, false
	}
	return target, true
}

// refCanaryCompare matches "cmp slot(%rsp), REG" and returns REG.
func refCanaryCompare(in *x86.Inst, slot int64) (x86.Reg, bool) {
	if in.Op != x86.OpCmp || in.NArgs() != 2 {
		return 0, false
	}
	if in.Arg(0).Kind != x86.KindReg || !in.Arg(1).IsMemBaseDisp(x86.RegSP, slot) {
		return 0, false
	}
	return in.Arg(0).Reg, true
}
