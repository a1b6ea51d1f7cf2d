// Package ifcc implements the indirect function-call compliance policy of
// the paper's evaluation (§5, Figure 5): it verifies that the executable
// was compiled with LLVM's indirect function-call checks (IFCC, Tice et
// al.), i.e. that every indirect call site carries the guard sequence
//
//	lea   <jump-table>(%rip), %rax
//	sub   %eax, %ecx
//	and   $<mask>, %rcx
//	add   %rax, %rcx
//	callq *%rcx
//
// with data dependence between the registers, and that the masked target
// necessarily lands inside the jump table, whose entries all have the form
//
//	jmpq <function> ; nopl (%rax)
//
// Following the paper's algorithm: the module first figures out the range
// of the jump table (via the __llvm_jump_instr_table symbols and the
// entry-format invariant), then iterates through the instruction buffer
// looking for indirect calls and pattern-matching the guard before each.
package ifcc

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"strings"

	"engarde/internal/policy"
	"engarde/internal/symtab"
	"engarde/internal/x86"
)

// TableSymbolPrefix is the LLVM jump-table symbol prefix.
const TableSymbolPrefix = "__llvm_jump_instr_table_"

// slotSize is the jump-table entry stride (jmpq rel32 + nopl = 8 bytes).
const slotSize = 8

// Module is the IFCC policy module.
type Module struct{}

// New returns the module.
func New() *Module { return &Module{} }

// Name implements policy.Module.
func (m *Module) Name() string { return "ifcc" }

// table describes a discovered jump table.
type table struct {
	base uint64
	size uint64 // bytes; power of two × slotSize
}

// memoVersion tags the revalidation-payload format: empty for a function
// with no indirect calls, else uvarint(mask) + signed-varint(table base −
// function address). Bump on any change to the encoding.
const memoVersion = "ifcc/1"

// MemoFingerprint implements policy.Memoizable.
func (m *Module) MemoFingerprint() [sha256.Size]byte {
	return policy.MemoKeyFP(m, memoVersion)
}

// Check implements policy.Module. Jump-table discovery is the prologue
// (it can itself report a Violation); then one scan of the instruction
// buffer verifies the guard before every indirect call, hopping memoized
// functions when a memo session is active.
func (m *Module) Check(ctx *policy.Context) error {
	tbl, err := m.findJumpTable(ctx)
	if err != nil {
		return err
	}
	c := &checker{m: m, tbl: tbl}
	if ctx.Memo != nil {
		c.fp = m.MemoFingerprint()
		return c.checkMemo(ctx)
	}
	_, err = c.scanRange(ctx, 0, len(ctx.Program.Insts))
	return err
}

type checker struct {
	m   *Module
	tbl *table
	fp  [sha256.Size]byte
}

// scanRange is the per-instruction scan over [lo, hi); it returns the
// number of indirect call sites verified.
func (c *checker) scanRange(ctx *policy.Context, lo, hi int) (int, error) {
	m := c.m
	p := ctx.Program
	sites := 0
	var t policy.Tally
	defer t.Flush(ctx)
	for i := lo; i < hi; i++ {
		// Visiting an instruction means inspecting its opcode and both
		// operand slots for the indirect-call shape.
		t.Scan++
		t.Pattern += 3
		in := &p.Insts[i]
		if !in.IsIndirectCall() {
			continue
		}
		if c.tbl == nil {
			return sites, &policy.Violation{
				Module: m.Name(), Addr: in.Addr,
				Reason: "indirect call present but the binary has no IFCC jump table",
			}
		}
		if err := m.checkCallSite(ctx, i, c.tbl); err != nil {
			return sites, err
		}
		sites++
	}
	return sites, nil
}

// checkMemo walks the buffer function by function via the digest table.
// A whole function with a revalidated hit is skipped; a miss is scanned in
// full and recorded. Instructions outside any digest span (the prefix gap,
// padding) are scanned one by one.
func (c *checker) checkMemo(ctx *policy.Context) error {
	n := len(ctx.Program.Insts)
	for i := 0; i < n; {
		sp, ok := ctx.Memo.SpanContaining(i)
		if !ok {
			if _, err := c.scanRange(ctx, i, i+1); err != nil {
				return err
			}
			i++
			continue
		}
		if payload, hit := ctx.Memo.Hit(c.fp, sp.Addr); hit && c.revalidate(ctx, payload, sp.Addr) {
			ctx.Memo.CountReuse(1)
		} else {
			sites, err := c.scanRange(ctx, sp.StartIdx, sp.EndIdx)
			if err != nil {
				return err
			}
			ctx.Memo.Record(c.fp, sp.Addr, c.payload(sites, sp.Addr))
		}
		i = sp.EndIdx
	}
	return nil
}

// payload encodes the memo payload for a function that passed the scan
// with the given number of indirect call sites. Every passing site carried
// mask == size−slotSize and base == tbl.base, so one (mask, base-rel) pair
// pins all of them.
func (c *checker) payload(sites int, fnAddr uint64) []byte {
	if sites == 0 {
		return nil
	}
	b := binary.AppendUvarint(nil, c.tbl.size-slotSize)
	return binary.AppendVarint(b, int64(c.tbl.base)-int64(fnAddr))
}

// revalidate checks a memoized function against *this* image's jump
// table: the mask its sites carry must match the table size and the
// RIP-relative base its sites load must land on the table.
func (c *checker) revalidate(ctx *policy.Context, payload []byte, fnAddr uint64) bool {
	if len(payload) == 0 {
		return true // no indirect calls in the digest-pinned bytes
	}
	ctx.ChargePattern(2)
	if c.tbl == nil {
		return false
	}
	mask, n := binary.Uvarint(payload)
	if n <= 0 {
		return false
	}
	rel, n2 := binary.Varint(payload[n:])
	if n2 <= 0 || n+n2 != len(payload) {
		return false
	}
	return mask == c.tbl.size-slotSize && fnAddr+uint64(rel) == c.tbl.base
}

// findJumpTable locates the jump table via its symbols and verifies the
// entry format invariant the paper relies on. Returns nil (no error) when
// the binary simply has no table.
func (m *Module) findJumpTable(ctx *policy.Context) (*table, error) {
	var entries []symtab.Entry
	for _, fn := range ctx.Symbols.Functions() {
		ctx.ChargeLookup(1)
		if strings.HasPrefix(fn.Name, TableSymbolPrefix) {
			entries = append(entries, fn)
		}
	}
	if len(entries) == 0 {
		return nil, nil
	}
	// Functions() is address-sorted, so entries are in table order.
	base := entries[0].Addr
	size := uint64(len(entries)) * slotSize
	p := ctx.Program

	// Verify contiguity and the jmpq/nopl format of every slot.
	for k, ent := range entries {
		ctx.ChargePattern(3)
		want := base + uint64(k)*slotSize
		if ent.Addr != want {
			return nil, &policy.Violation{
				Module: m.Name(), Addr: ent.Addr,
				Reason: fmt.Sprintf("jump table not contiguous at slot %d", k),
			}
		}
		ji, ok := p.InstAt(ent.Addr)
		if !ok || p.Insts[ji].Op != x86.OpJmp {
			return nil, &policy.Violation{
				Module: m.Name(), Addr: ent.Addr,
				Reason: fmt.Sprintf("jump table slot %d is not a jmpq", k),
			}
		}
		if ji+1 >= len(p.Insts) || p.Insts[ji+1].Op != x86.OpNop || p.Insts[ji+1].Len != 3 {
			return nil, &policy.Violation{
				Module: m.Name(), Addr: ent.Addr,
				Reason: fmt.Sprintf("jump table slot %d is not jmpq+nopl", k),
			}
		}
		// Slot targets must be valid function starts outside the table.
		tgt, _ := p.Insts[ji].BranchTarget()
		ctx.ChargeLookup(1)
		if name, ok := ctx.Symbols.NameAt(tgt); !ok || strings.HasPrefix(name, TableSymbolPrefix) {
			return nil, &policy.Violation{
				Module: m.Name(), Addr: ent.Addr,
				Reason: fmt.Sprintf("jump table slot %d targets a non-function", k),
			}
		}
	}
	// The and-mask argument requires a power-of-two table size and
	// size-aligned base.
	if size&(size-1) != 0 {
		return nil, &policy.Violation{
			Module: m.Name(), Addr: base,
			Reason: fmt.Sprintf("jump table size %d is not a power of two", size),
		}
	}
	if base%size != 0 {
		return nil, &policy.Violation{
			Module: m.Name(), Addr: base,
			Reason: "jump table is not aligned to its size",
		}
	}
	return &table{base: base, size: size}, nil
}

// checkCallSite verifies the guard sequence ending in the indirect call at
// instruction index ci. Alignment NOPs may be interleaved.
func (m *Module) checkCallSite(ctx *policy.Context, ci int, tbl *table) error {
	p := ctx.Program
	call := &p.Insts[ci]
	if call.NArgs() != 1 || call.Arg(0).Kind != x86.KindReg {
		return m.siteViolation(call, "indirect call through memory cannot carry an IFCC guard")
	}
	ptrReg := call.Arg(0).Reg

	// Walk backwards over the guard, skipping NOPs.
	prev := func(i int) int {
		i--
		for i >= 0 && p.Insts[i].Op == x86.OpNop {
			ctx.ChargeScan(1)
			i--
		}
		return i
	}

	// add %rax, %rcx (dst = ptrReg, src = base register).
	ai := prev(ci)
	ctx.ChargePattern(2)
	if ai < 0 || p.Insts[ai].Op != x86.OpAdd || p.Insts[ai].NArgs() != 2 ||
		!p.Insts[ai].Arg(0).IsReg(ptrReg) || p.Insts[ai].Arg(1).Kind != x86.KindReg {
		return m.siteViolation(call, "missing add step of IFCC guard")
	}
	baseReg := p.Insts[ai].Arg(1).Reg

	// and $mask, %rcx.
	ni := prev(ai)
	ctx.ChargePattern(2)
	if ni < 0 || p.Insts[ni].Op != x86.OpAnd || p.Insts[ni].NArgs() != 2 ||
		!p.Insts[ni].Arg(0).IsReg(ptrReg) {
		return m.siteViolation(call, "missing and-mask step of IFCC guard")
	}
	mask := uint64(p.Insts[ni].Imm)
	if mask != tbl.size-slotSize {
		return m.siteViolation(call, fmt.Sprintf(
			"IFCC mask %#x does not match jump table size %#x", mask, tbl.size))
	}
	if mask%slotSize != 0 {
		return m.siteViolation(call, "IFCC mask does not preserve slot alignment")
	}

	// sub %eax, %ecx (32-bit, dst = ptrReg, src = baseReg).
	si := prev(ni)
	ctx.ChargePattern(2)
	if si < 0 || p.Insts[si].Op != x86.OpSub || p.Insts[si].NArgs() != 2 ||
		!p.Insts[si].Arg(0).IsReg(ptrReg) || !p.Insts[si].Arg(1).IsReg(baseReg) {
		return m.siteViolation(call, "missing sub step of IFCC guard")
	}

	// lea table(%rip), %rax.
	li := prev(si)
	ctx.ChargePattern(2)
	if li < 0 || p.Insts[li].Op != x86.OpLea || !p.Insts[li].Arg(0).IsReg(baseReg) {
		return m.siteViolation(call, "missing lea step of IFCC guard")
	}
	leaTgt, ok := p.Insts[li].RIPTarget()
	if !ok || leaTgt != tbl.base {
		return m.siteViolation(call, fmt.Sprintf(
			"IFCC guard base %#x is not the jump table %#x", leaTgt, tbl.base))
	}

	// With base == table, mask == size-8 and slot-aligned masking, the
	// computed target base + (ptr-base)&mask necessarily lands on a slot
	// inside [table, table+size) — the "target is within the range of the
	// jump table" conclusion of the paper's check.
	ctx.ChargePattern(1)
	return nil
}

func (m *Module) siteViolation(call *x86.Inst, reason string) error {
	return &policy.Violation{Module: m.Name(), Addr: call.Addr, Reason: reason}
}
