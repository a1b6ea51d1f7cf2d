// Package asan implements an AddressSanitizer-compliance policy module.
// The paper notes that its stack-protection check "can easily be
// customized to check stack protection instrumentation inserted by other
// tools, such as Google's AddressSanitizer, LLVM SoftBound, etc." (§5) —
// this module is that customization for the simplified ASan scheme the
// synthetic toolchain emits: every store to a stack frame slot must be
// preceded by a shadow-byte check,
//
//	lea   slot(%rsp), R       ; the address being stored to
//	shr   $3, R               ; shadow index
//	and   $(shadowSize-1), R  ; masked into the shadow region
//	lea   <shadow>(%rip), S
//	add   S, R
//	cmpb  $0, (R)
//	je    <the store>
//	call  __asan_report
//
// with data dependence between the registers, the je landing exactly on
// the guarded store, and the call targeting the sanitizer's report
// function. The canary slot at (%rsp) is exempt (compiler-generated, as in
// real ASan).
package asan

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"sort"

	"engarde/internal/policy"
	"engarde/internal/x86"
)

// ReportFunc is the sanitizer runtime entry the guard must call.
const ReportFunc = "__asan_report"

// Module is the sanitizer-compliance policy module.
type Module struct {
	// ExemptFuncs names functions whose instrumentation this module does
	// not demand — typically the approved library's functions, whose
	// exact bytes the library-linking policy already pins, plus the
	// sanitizer runtime itself.
	ExemptFuncs map[string]bool
}

// New returns the module with the given exempt function names.
func New(exempt ...string) *Module {
	m := &Module{ExemptFuncs: make(map[string]bool, len(exempt)+1)}
	m.ExemptFuncs[ReportFunc] = true
	for _, name := range exempt {
		m.ExemptFuncs[name] = true
	}
	return m
}

// Name implements policy.Module.
func (m *Module) Name() string { return "address-sanitizer" }

// Fingerprint implements policy.Fingerprinter: the exempt-function list is
// the module's entire configuration, folded in sorted order.
func (m *Module) Fingerprint() []byte {
	names := make([]string, 0, len(m.ExemptFuncs))
	for name := range m.ExemptFuncs {
		names = append(names, name)
	}
	sort.Strings(names)
	h := sha256.New()
	for _, name := range names {
		fmt.Fprintf(h, "%d:%s", len(name), name)
	}
	return h.Sum(nil)
}

// memoVersion tags the revalidation-payload format: deduplicated signed
// varints of (report-call target − function address). Bump on any change
// to the encoding or its interpretation.
const memoVersion = "asan/1"

// MemoFingerprint implements policy.Memoizable.
func (m *Module) MemoFingerprint() [sha256.Size]byte {
	return policy.MemoKeyFP(m, memoVersion)
}

// Check implements policy.Module: every non-exempt function in the symbol
// table is checked in address order, through the function-result cache
// when a memo session is active.
func (m *Module) Check(ctx *policy.Context) error {
	var fp [sha256.Size]byte
	if ctx.Memo != nil {
		fp = m.MemoFingerprint()
	}
	p := ctx.Program
	for _, fn := range ctx.Symbols.Functions() {
		ctx.ChargeLookup(1)
		if m.ExemptFuncs[fn.Name] {
			continue
		}
		start, ok := p.InstAt(fn.Addr)
		if !ok {
			continue
		}
		end := len(p.Insts)
		if next, ok := ctx.Symbols.NextFuncAfter(fn.Addr); ok {
			if ni, ok := p.InstAt(next); ok {
				end = ni
			}
		}
		if ctx.Memo != nil {
			// Memo path, guarded on the digest span agreeing with this
			// module's function boundary (otherwise the memoized bytes are
			// not the bytes inspected here).
			if sp, ok := ctx.Memo.Span(fn.Addr); ok && sp.StartIdx == start && sp.EndIdx == end {
				if payload, hit := ctx.Memo.Hit(fp, fn.Addr); hit && m.revalidate(ctx, payload, fn.Addr) {
					ctx.Memo.CountReuse(1)
					continue
				}
				payload, eligible, err := m.checkFunction(ctx, start, end)
				if err != nil {
					return err
				}
				if eligible {
					ctx.Memo.Record(fp, fn.Addr, payload)
				}
				continue
			}
		}
		if _, _, err := m.checkFunction(ctx, start, end); err != nil {
			return err
		}
	}
	return nil
}

// checkFunction scans one function's instructions [start, end) for guarded
// frame stores. On pass it returns the memo payload (function-relative
// report-call targets, deduplicated) and whether the outcome is memoizable
// — a guard chain that reads instructions below the function start depends
// on bytes the function digest does not pin, so it is not.
func (m *Module) checkFunction(ctx *policy.Context, start, end int) (payload []byte, eligible bool, err error) {
	p := ctx.Program
	fnAddr := p.Insts[start].Addr
	eligible = true
	var seen map[int64]bool
	for i := start; i < end; i++ {
		ctx.ChargeScan(1)
		in := &p.Insts[i]
		slot, ok := frameStore(in)
		if !ok || slot == 0 {
			// Not a frame store, or the canary slot (exempt).
			continue
		}
		ctx.ChargePattern(2)
		tgt, minIdx, err := m.checkGuard(ctx, i, slot)
		if err != nil {
			return nil, false, err
		}
		if minIdx < start {
			eligible = false
			continue
		}
		rel := int64(tgt) - int64(fnAddr)
		if !seen[rel] {
			if seen == nil {
				seen = make(map[int64]bool)
			}
			seen[rel] = true
			payload = binary.AppendVarint(payload, rel)
		}
	}
	if !eligible {
		return nil, false, nil
	}
	return payload, true, nil
}

// revalidate checks a memoized function's cross-function conditions: every
// report-call target in the payload must still resolve to __asan_report in
// *this* image's symbol table. An empty payload (no guarded stores) is a
// pure function of the digest-pinned bytes.
func (m *Module) revalidate(ctx *policy.Context, payload []byte, fnAddr uint64) bool {
	for len(payload) > 0 {
		rel, n := binary.Varint(payload)
		if n <= 0 {
			return false
		}
		payload = payload[n:]
		ctx.ChargeLookup(1)
		if name, ok := ctx.Symbols.NameAt(fnAddr + uint64(rel)); !ok || name != ReportFunc {
			return false
		}
	}
	return true
}

// checkGuard validates the shadow-check chain preceding the store at
// index si. On success it returns the report call's target and the lowest
// instruction index the backward walk visited (the chain's head), which
// decides memo eligibility.
func (m *Module) checkGuard(ctx *policy.Context, si int, slot int64) (reportTgt uint64, minIdx int, err error) {
	p := ctx.Program
	store := &p.Insts[si]
	prev := func(i int) int {
		i--
		for i >= 0 && p.Insts[i].Op == x86.OpNop {
			ctx.ChargeScan(1)
			i--
		}
		return i
	}
	fail := func(step string) (uint64, int, error) {
		return 0, 0, &policy.Violation{
			Module: m.Name(), Addr: store.Addr,
			Reason: fmt.Sprintf("store to %d(%%rsp) lacks sanitizer guard (%s)", slot, step),
		}
	}

	// call __asan_report (the poisoned path, jumped over by je).
	ci := prev(si)
	ctx.ChargePattern(2)
	if ci < 0 || !p.Insts[ci].IsDirectCall() {
		return fail("missing report call")
	}
	tgt, _ := p.Insts[ci].BranchTarget()
	ctx.ChargeLookup(1)
	if name, ok := ctx.Symbols.NameAt(tgt); !ok || name != ReportFunc {
		return fail("report call targets the wrong function")
	}

	// je <store>.
	ji := prev(ci)
	ctx.ChargePattern(2)
	if ji < 0 || p.Insts[ji].Op != x86.OpJcc || p.Insts[ji].Cond != x86.CondE {
		return fail("missing je")
	}
	if jt, ok := p.Insts[ji].BranchTarget(); !ok || jt != store.Addr {
		return fail("je does not guard the store")
	}

	// cmpb $0, (R).
	cmpi := prev(ji)
	ctx.ChargePattern(2)
	if cmpi < 0 {
		return fail("missing shadow compare")
	}
	cmp := &p.Insts[cmpi]
	if cmp.Op != x86.OpCmp || cmp.NArgs() != 2 ||
		cmp.Arg(0).Kind != x86.KindMem || cmp.Arg(0).Width != 1 ||
		cmp.Arg(1).Kind != x86.KindImm || cmp.Arg(1).Imm != 0 {
		return fail("shadow compare malformed")
	}
	shadowReg := cmp.Arg(0).Mem.Base

	// add S, R.
	ai := prev(cmpi)
	ctx.ChargePattern(2)
	if ai < 0 || p.Insts[ai].Op != x86.OpAdd || !p.Insts[ai].Arg(0).IsReg(shadowReg) ||
		p.Insts[ai].Arg(1).Kind != x86.KindReg {
		return fail("missing shadow rebase")
	}
	baseReg := p.Insts[ai].Arg(1).Reg

	// lea <shadow>(%rip), S.
	li := prev(ai)
	ctx.ChargePattern(2)
	if li < 0 || p.Insts[li].Op != x86.OpLea || !p.Insts[li].Arg(0).IsReg(baseReg) {
		return fail("missing shadow base load")
	}
	if _, ok := p.Insts[li].RIPTarget(); !ok {
		return fail("shadow base is not RIP-relative")
	}

	// and $(size-1), R — the mask keeping the index inside the shadow.
	ni := prev(li)
	ctx.ChargePattern(2)
	if ni < 0 || p.Insts[ni].Op != x86.OpAnd || !p.Insts[ni].Arg(0).IsReg(shadowReg) {
		return fail("missing index mask")
	}
	mask := uint64(p.Insts[ni].Imm)
	if mask == 0 || (mask+1)&mask != 0 {
		return fail("mask is not 2^n-1")
	}

	// shr $3, R — ASan's 8-bytes-per-shadow-byte scaling.
	sh := prev(ni)
	ctx.ChargePattern(2)
	if sh < 0 || p.Insts[sh].Op != x86.OpShr || !p.Insts[sh].Arg(0).IsReg(shadowReg) ||
		p.Insts[sh].Imm != 3 {
		return fail("missing shadow scaling")
	}

	// lea slot(%rsp), R — the guarded address must be the stored one.
	le := prev(sh)
	ctx.ChargePattern(2)
	if le < 0 || p.Insts[le].Op != x86.OpLea || !p.Insts[le].Arg(0).IsReg(shadowReg) {
		return fail("missing address computation")
	}
	leaMem := p.Insts[le].Arg(1).Mem
	if leaMem.Base != x86.RegSP || leaMem.Disp != slot {
		return fail("guard checks a different address than the store")
	}
	// The walk descends monotonically, so the address computation at le is
	// the lowest index visited.
	return tgt, le, nil
}

// frameStore matches "mov REG, disp(%rsp)" and returns the slot.
func frameStore(in *x86.Inst) (int64, bool) {
	if in.Op != x86.OpMov || in.NArgs() != 2 {
		return 0, false
	}
	dst, src := in.Arg(0), in.Arg(1)
	if src.Kind != x86.KindReg || dst.Kind != x86.KindMem {
		return 0, false
	}
	mem := dst.Mem
	if mem.Base != x86.RegSP || mem.Index != x86.RegNone || mem.Seg != x86.SegNone {
		return 0, false
	}
	return mem.Disp, true
}
