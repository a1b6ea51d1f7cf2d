// Package funcid recovers function boundaries in stripped binaries.
//
// EnGarde auto-rejects binaries without symbol tables because its policy
// modules need function boundaries and names (paper §6). The same section
// points at binary-analysis research (Rosenblum et al., Shin et al.) and
// notes that "as these techniques develop and improve in their accuracy
// and performance, EnGarde can be enhanced to even consider stripped
// binaries as enclave code". This package is that enhancement in its
// simplest reliable form: a static heuristic that recovers function starts
// from a validated, fully decoded instruction buffer. Policies that need
// only *boundaries* (forbidden-instruction scanning, NaCl reachability)
// work on the recovered table; policies that need *names* (library
// linking) still require real symbols and keep rejecting.
//
// The heuristic marks an address as a function start when it is
//
//   - the program entry point, or
//   - the target of a direct call, or
//   - the target of a jump-table jmpq slot, or
//   - bundle-aligned code that begins a frame-setup instruction and is
//     preceded only by padding/terminators (the "orphan prologue" rule
//     catching functions only ever called indirectly).
package funcid

import (
	"fmt"
	"sort"

	"engarde/internal/nacl"
	"engarde/internal/symtab"
	"engarde/internal/x86"
)

// bundleSize mirrors the NaCl bundle granularity; recovered starts are
// expected on these boundaries for NaCl-constrained code.
const bundleSize = 32

// Recover builds a synthetic symbol table for a validated program whose
// real symbols are missing. Recovered functions are named fn_<hexaddr>.
func Recover(p *nacl.Program, entry uint64) *symtab.Table {
	starts := make(map[uint64]bool)
	starts[entry] = true

	// Pass 1: direct call targets, and jump-table style jmpq slots.
	for i := range p.Insts {
		in := &p.Insts[i]
		switch in.Op {
		case x86.OpCall:
			if tgt, ok := in.BranchTarget(); ok && p.IsInstStart(tgt) {
				starts[tgt] = true
			}
		case x86.OpJmp:
			// A jmp followed by a short nop filler in an 8-byte stride is
			// a jump-table slot: both its target (the dispatched function)
			// and the slot itself (an indirect-call entry point, a
			// function symbol in LLVM's IFCC output) are starts.
			if tgt, ok := in.BranchTarget(); ok && p.IsInstStart(tgt) && isSlotJmp(p, i) {
				starts[tgt] = true
				starts[in.Addr] = true
			}
		}
	}

	// Pass 2: orphan prologues — bundle-aligned frame setups reachable
	// only through indirect calls.
	for i := range p.Insts {
		in := &p.Insts[i]
		if in.Addr%bundleSize != 0 || !isProloguish(in) {
			continue
		}
		if i == 0 || terminatesFlow(p, i-1) {
			starts[in.Addr] = true
		}
	}

	addrs := make([]uint64, 0, len(starts))
	for a := range starts {
		addrs = append(addrs, a)
	}
	sort.Slice(addrs, func(i, j int) bool { return addrs[i] < addrs[j] })

	// Sizes: from each start to the next (or the region end).
	tab := symtab.New()
	for i, a := range addrs {
		end := p.End
		if i+1 < len(addrs) {
			end = addrs[i+1]
		}
		tab.Add(symtab.Entry{
			Name: fmt.Sprintf("fn_%x", a),
			Addr: a,
			Size: end - a,
		})
	}
	return tab
}

// isProloguish reports whether the instruction looks like the first
// instruction of a function body: stack-frame reservation or a
// callee-saved push.
func isProloguish(in *x86.Inst) bool {
	switch in.Op {
	case x86.OpSub:
		// sub $imm, %rsp
		return in.NArgs() == 2 && in.Arg(0).IsReg(x86.RegSP) && in.Arg(1).Kind == x86.KindImm
	case x86.OpPush:
		return in.NArgs() == 1 && in.Arg(0).Kind == x86.KindReg
	case x86.OpMov:
		// mov %rsp, %rbp style
		return in.NArgs() == 2 && in.Arg(0).IsReg(x86.RegBP) && in.Arg(1).IsReg(x86.RegSP)
	}
	return false
}

// terminatesFlow reports whether instruction j ends a function's
// fall-through (ret/jmp/trap) or is alignment padding whose predecessors
// terminate.
func terminatesFlow(p *nacl.Program, j int) bool {
	for j >= 0 && p.Insts[j].Op == x86.OpNop {
		j--
	}
	if j < 0 {
		return true
	}
	switch p.Insts[j].Op {
	case x86.OpRet, x86.OpJmp, x86.OpJmpInd, x86.OpUd2, x86.OpHlt, x86.OpInt3:
		return true
	}
	return false
}

// isSlotJmp reports whether the jmp at index i is immediately followed by
// a short nop (the 8-byte jump-table slot format).
func isSlotJmp(p *nacl.Program, i int) bool {
	if i+1 >= len(p.Insts) {
		return false
	}
	next := &p.Insts[i+1]
	return next.Op == x86.OpNop && p.Insts[i].Len+next.Len == 8
}
