// Package interp is a small x86-64 interpreter that executes provisioned
// client code inside the emulated enclave. Every instruction fetch goes
// through the host page tables AND the EPCM (via the Memory interface), so
// execution observes exactly the protections EnGarde installed: fetching
// from a data page faults, writing a code page faults, and the
// instrumentation the policies verified statically — stack canaries and
// IFCC jump-table dispatch — actually runs.
//
// The interpreter covers the instruction subset the synthetic toolchain
// emits (the integer core of x86-64: mov/lea/arith/logic/shift, push/pop,
// direct and indirect call/jmp/jcc with full condition codes, ret, nop,
// ud2), which is also the subset any policy-compliant binary in this
// reproduction consists of. It is an extension beyond the paper's
// prototype, which stopped at static inspection.
package interp

import (
	"encoding/binary"
	"errors"
	"fmt"

	"engarde/internal/x86"
)

// Memory is the interpreter's view of enclave memory. Implementations
// must enforce permissions: Fetch requires execute, Read requires read,
// Write requires write.
type Memory interface {
	Fetch(addr uint64, b []byte) error
	Read(addr uint64, b []byte) error
	Write(addr uint64, b []byte) error
}

// StopReason says why Run returned.
type StopReason int

// Stop reasons.
const (
	// StopTrap means the program executed ud2 or int3 (normal termination
	// for generated programs, whose _start traps after exit returns).
	StopTrap StopReason = iota + 1
	// StopMaxSteps means the step budget ran out.
	StopMaxSteps
	// StopBreakpoint means RIP reached a registered breakpoint.
	StopBreakpoint
	// StopFault means a memory access or decode fault occurred; the
	// accompanying error has details.
	StopFault
)

func (r StopReason) String() string {
	switch r {
	case StopTrap:
		return "trap"
	case StopMaxSteps:
		return "max-steps"
	case StopBreakpoint:
		return "breakpoint"
	case StopFault:
		return "fault"
	default:
		return fmt.Sprintf("StopReason(%d)", int(r))
	}
}

// ErrUnsupported is returned when the program uses an instruction outside
// the interpreter's subset.
var ErrUnsupported = errors.New("interp: unsupported instruction")

// flags is the subset of RFLAGS the generated code can observe.
type flags struct {
	cf, zf, sf, of, pf bool
}

// CPU is one execution context.
type CPU struct {
	// Regs holds the 16 general-purpose registers, indexed by x86.Reg.
	Regs [16]uint64
	// RIP is the instruction pointer.
	RIP uint64
	// FSBase is the %fs segment base (thread-local storage; the stack
	// canary lives at FSBase+0x28).
	FSBase uint64

	// Steps counts executed instructions.
	Steps uint64
	// Breakpoints stops execution when RIP reaches a key.
	Breakpoints map[uint64]bool
	// CFICheck, when set, is consulted on every indirect control transfer
	// with the computed target; returning false aborts execution with
	// ErrCFIViolation. This is the paper's §1 sketch of "an extension of
	// EnGarde that instruments client code to enforce policies at
	// runtime" — here enforced by the execution substrate itself.
	CFICheck func(target uint64) bool

	mem Memory
	fl  flags
}

// ErrCFIViolation is returned when CFICheck rejects an indirect transfer
// target.
var ErrCFIViolation = errors.New("interp: control-flow integrity violation")

// New creates a CPU with the given entry point and stack pointer.
func New(mem Memory, entry, stackTop uint64) *CPU {
	c := &CPU{mem: mem, RIP: entry}
	c.Regs[x86.RegSP] = stackTop
	return c
}

// Run executes until a stop condition; at most maxSteps instructions.
func (c *CPU) Run(maxSteps uint64) (StopReason, error) {
	for i := uint64(0); i < maxSteps; i++ {
		if c.Breakpoints[c.RIP] {
			return StopBreakpoint, nil
		}
		stop, err := c.Step()
		if err != nil {
			return StopFault, err
		}
		if stop {
			return StopTrap, nil
		}
	}
	return StopMaxSteps, nil
}

// Step executes one instruction. It returns true when the program trapped
// (ud2/int3).
func (c *CPU) Step() (bool, error) {
	var window [15]byte
	n := len(window)
	if err := c.mem.Fetch(c.RIP, window[:]); err != nil {
		// Retry shorter fetches near a region boundary: instructions are
		// never longer than the space to the next page EnGarde mapped.
		ok := false
		for n = 14; n > 0; n-- {
			if err2 := c.mem.Fetch(c.RIP, window[:n]); err2 == nil {
				ok = true
				break
			}
		}
		if !ok {
			return false, fmt.Errorf("interp: fetch at %#x: %w", c.RIP, err)
		}
	}
	in, err := x86.Decode(window[:n], c.RIP)
	if err != nil {
		return false, fmt.Errorf("interp: decode at %#x: %w", c.RIP, err)
	}
	c.Steps++
	next := c.RIP + uint64(in.Len)

	switch in.Op {
	case x86.OpNop:
		// nothing
	case x86.OpUd2, x86.OpInt3, x86.OpHlt:
		c.RIP = next
		return true, nil

	case x86.OpMov:
		v, err := c.readOperand(&in, in.Arg(1))
		if err != nil {
			return false, err
		}
		if err := c.writeOperand(&in, in.Arg(0), v); err != nil {
			return false, err
		}
	case x86.OpMovsxd:
		v, err := c.readOperand(&in, in.Arg(1))
		if err != nil {
			return false, err
		}
		if err := c.writeOperand(&in, in.Arg(0), uint64(int64(int32(v)))); err != nil {
			return false, err
		}
	case x86.OpLea:
		addr, err := c.effectiveAddr(&in, in.Arg(1))
		if err != nil {
			return false, err
		}
		if err := c.writeOperand(&in, in.Arg(0), addr); err != nil {
			return false, err
		}

	case x86.OpAdd, x86.OpSub, x86.OpAnd, x86.OpOr, x86.OpXor, x86.OpCmp, x86.OpTest:
		if err := c.arith(&in); err != nil {
			return false, err
		}
	case x86.OpImul:
		a, err := c.readOperand(&in, in.Arg(0))
		if err != nil {
			return false, err
		}
		b, err := c.readOperand(&in, in.Arg(1))
		if err != nil {
			return false, err
		}
		if err := c.writeOperand(&in, in.Arg(0), a*b); err != nil {
			return false, err
		}
	case x86.OpShl, x86.OpShr, x86.OpSar:
		if err := c.shift(&in); err != nil {
			return false, err
		}

	case x86.OpPush:
		v, err := c.readOperand(&in, in.Arg(0))
		if err != nil {
			return false, err
		}
		if err := c.push(v); err != nil {
			return false, err
		}
	case x86.OpPop:
		v, err := c.pop()
		if err != nil {
			return false, err
		}
		if err := c.writeOperand(&in, in.Arg(0), v); err != nil {
			return false, err
		}

	case x86.OpCall:
		tgt, ok := in.BranchTarget()
		if !ok {
			return false, fmt.Errorf("%w: call without target at %#x", ErrUnsupported, in.Addr)
		}
		if err := c.push(next); err != nil {
			return false, err
		}
		c.RIP = tgt
		return false, nil
	case x86.OpCallInd:
		tgt, err := c.readOperand(&in, in.Arg(0))
		if err != nil {
			return false, err
		}
		if c.CFICheck != nil && !c.CFICheck(tgt) {
			return false, fmt.Errorf("%w: indirect call to %#x at %#x", ErrCFIViolation, tgt, in.Addr)
		}
		if err := c.push(next); err != nil {
			return false, err
		}
		c.RIP = tgt
		return false, nil
	case x86.OpRet:
		tgt, err := c.pop()
		if err != nil {
			return false, err
		}
		c.RIP = tgt
		return false, nil
	case x86.OpJmp:
		tgt, ok := in.BranchTarget()
		if !ok {
			return false, fmt.Errorf("%w: jmp without target at %#x", ErrUnsupported, in.Addr)
		}
		c.RIP = tgt
		return false, nil
	case x86.OpJmpInd:
		tgt, err := c.readOperand(&in, in.Arg(0))
		if err != nil {
			return false, err
		}
		if c.CFICheck != nil && !c.CFICheck(tgt) {
			return false, fmt.Errorf("%w: indirect jump to %#x at %#x", ErrCFIViolation, tgt, in.Addr)
		}
		c.RIP = tgt
		return false, nil
	case x86.OpJcc:
		if c.cond(in.Cond) {
			tgt, _ := in.BranchTarget()
			c.RIP = tgt
			return false, nil
		}

	default:
		return false, fmt.Errorf("%w: %s at %#x", ErrUnsupported, in.String(), in.Addr)
	}

	c.RIP = next
	return false, nil
}

//
// Operand access.
//

func widthMask(w uint8) uint64 {
	switch w {
	case 1:
		return 0xFF
	case 2:
		return 0xFFFF
	case 4:
		return 0xFFFF_FFFF
	default:
		return ^uint64(0)
	}
}

func (c *CPU) effectiveAddr(in *x86.Inst, o x86.Operand) (uint64, error) {
	if o.Kind != x86.KindMem {
		return 0, fmt.Errorf("%w: effective address of non-memory operand", ErrUnsupported)
	}
	m := o.Mem
	var addr uint64
	switch {
	case m.Base == x86.RegRIP:
		addr = in.Addr + uint64(in.Len) + uint64(m.Disp)
	case m.Base != x86.RegNone:
		addr = c.Regs[m.Base] + uint64(m.Disp)
	default:
		addr = uint64(m.Disp)
	}
	if m.Index != x86.RegNone {
		addr += c.Regs[m.Index] * uint64(m.Scale)
	}
	if m.Seg == x86.SegFS {
		addr += c.FSBase
	}
	return addr, nil
}

func (c *CPU) readOperand(in *x86.Inst, o x86.Operand) (uint64, error) {
	switch o.Kind {
	case x86.KindImm:
		return uint64(o.Imm), nil
	case x86.KindReg:
		if o.High8 {
			return (c.Regs[o.Reg-4] >> 8) & 0xFF, nil
		}
		return c.Regs[o.Reg] & widthMask(o.Width), nil
	case x86.KindMem:
		addr, err := c.effectiveAddr(in, o)
		if err != nil {
			return 0, err
		}
		w := int(o.Width)
		if w == 0 {
			w = 8
		}
		var buf [8]byte
		if err := c.mem.Read(addr, buf[:w]); err != nil {
			return 0, fmt.Errorf("interp: read %d bytes at %#x: %w", w, addr, err)
		}
		return binary.LittleEndian.Uint64(buf[:]) & widthMask(o.Width), nil
	default:
		return 0, fmt.Errorf("%w: read of empty operand", ErrUnsupported)
	}
}

func (c *CPU) writeOperand(in *x86.Inst, o x86.Operand, v uint64) error {
	switch o.Kind {
	case x86.KindReg:
		if o.High8 {
			c.Regs[o.Reg-4] = c.Regs[o.Reg-4]&^uint64(0xFF00) | (v&0xFF)<<8
			return nil
		}
		switch o.Width {
		case 1:
			c.Regs[o.Reg] = c.Regs[o.Reg]&^uint64(0xFF) | v&0xFF
		case 2:
			c.Regs[o.Reg] = c.Regs[o.Reg]&^uint64(0xFFFF) | v&0xFFFF
		case 4:
			// 32-bit writes zero-extend — the semantics IFCC's
			// sub %eax, %ecx guard step depends on.
			c.Regs[o.Reg] = v & 0xFFFF_FFFF
		default:
			c.Regs[o.Reg] = v
		}
		return nil
	case x86.KindMem:
		addr, err := c.effectiveAddr(in, o)
		if err != nil {
			return err
		}
		w := int(o.Width)
		if w == 0 {
			w = 8
		}
		var buf [8]byte
		binary.LittleEndian.PutUint64(buf[:], v)
		if err := c.mem.Write(addr, buf[:w]); err != nil {
			return fmt.Errorf("interp: write %d bytes at %#x: %w", w, addr, err)
		}
		return nil
	default:
		return fmt.Errorf("%w: write to non-writable operand", ErrUnsupported)
	}
}

//
// ALU.
//

// setFlagsResult updates ZF/SF/PF from a result at the given width.
func (c *CPU) setFlagsResult(v uint64, w uint8) {
	m := widthMask(w)
	v &= m
	c.fl.zf = v == 0
	signBit := uint64(1) << (8*uint64(widthBytes(w)) - 1)
	c.fl.sf = v&signBit != 0
	// PF covers the low byte only.
	b := byte(v)
	ones := 0
	for i := 0; i < 8; i++ {
		if b&(1<<i) != 0 {
			ones++
		}
	}
	c.fl.pf = ones%2 == 0
}

func widthBytes(w uint8) int {
	if w == 0 {
		return 8
	}
	return int(w)
}

func (c *CPU) arith(in *x86.Inst) error {
	dst, src := in.Arg(0), in.Arg(1)
	a, err := c.readOperand(in, dst)
	if err != nil {
		return err
	}
	b, err := c.readOperand(in, src)
	if err != nil {
		return err
	}
	w := dst.Width
	if w == 0 {
		w = 8
	}
	m := widthMask(w)
	a &= m
	bv := b & m
	var res uint64
	signBit := uint64(1) << (8*uint64(widthBytes(w)) - 1)

	switch in.Op {
	case x86.OpAdd:
		res = (a + bv) & m
		c.fl.cf = res < a
		c.fl.of = (a^bv)&signBit == 0 && (a^res)&signBit != 0
	case x86.OpSub, x86.OpCmp:
		res = (a - bv) & m
		c.fl.cf = a < bv
		c.fl.of = (a^bv)&signBit != 0 && (a^res)&signBit != 0
	case x86.OpAnd, x86.OpTest:
		res = a & bv
		c.fl.cf, c.fl.of = false, false
	case x86.OpOr:
		res = (a | bv) & m
		c.fl.cf, c.fl.of = false, false
	case x86.OpXor:
		res = (a ^ bv) & m
		c.fl.cf, c.fl.of = false, false
	}
	c.setFlagsResult(res, w)
	if in.Op == x86.OpCmp || in.Op == x86.OpTest {
		return nil
	}
	return c.writeOperand(in, dst, res)
}

func (c *CPU) shift(in *x86.Inst) error {
	dst := in.Arg(0)
	a, err := c.readOperand(in, dst)
	if err != nil {
		return err
	}
	amt, err := c.readOperand(in, in.Arg(1))
	if err != nil {
		return err
	}
	w := dst.Width
	if w == 0 {
		w = 8
	}
	bits := uint64(8 * widthBytes(w))
	amt &= bits - 1
	var res uint64
	switch in.Op {
	case x86.OpShl:
		res = a << amt
	case x86.OpShr:
		res = (a & widthMask(w)) >> amt
	case x86.OpSar:
		switch widthBytes(w) {
		case 4:
			res = uint64(uint32(int32(uint32(a)) >> amt))
		default:
			res = uint64(int64(a) >> amt)
		}
	}
	res &= widthMask(w)
	if amt != 0 {
		c.setFlagsResult(res, w)
	}
	return c.writeOperand(in, dst, res)
}

//
// Stack and conditions.
//

func (c *CPU) push(v uint64) error {
	c.Regs[x86.RegSP] -= 8
	var buf [8]byte
	binary.LittleEndian.PutUint64(buf[:], v)
	if err := c.mem.Write(c.Regs[x86.RegSP], buf[:]); err != nil {
		return fmt.Errorf("interp: push at %#x: %w", c.Regs[x86.RegSP], err)
	}
	return nil
}

func (c *CPU) pop() (uint64, error) {
	var buf [8]byte
	if err := c.mem.Read(c.Regs[x86.RegSP], buf[:]); err != nil {
		return 0, fmt.Errorf("interp: pop at %#x: %w", c.Regs[x86.RegSP], err)
	}
	c.Regs[x86.RegSP] += 8
	return binary.LittleEndian.Uint64(buf[:]), nil
}

// cond evaluates a condition code against the flags.
func (c *CPU) cond(cc x86.Cond) bool {
	f := c.fl
	switch cc {
	case x86.CondO:
		return f.of
	case x86.CondNO:
		return !f.of
	case x86.CondB:
		return f.cf
	case x86.CondAE:
		return !f.cf
	case x86.CondE:
		return f.zf
	case x86.CondNE:
		return !f.zf
	case x86.CondBE:
		return f.cf || f.zf
	case x86.CondA:
		return !f.cf && !f.zf
	case x86.CondS:
		return f.sf
	case x86.CondNS:
		return !f.sf
	case x86.CondP:
		return f.pf
	case x86.CondNP:
		return !f.pf
	case x86.CondL:
		return f.sf != f.of
	case x86.CondGE:
		return f.sf == f.of
	case x86.CondLE:
		return f.zf || f.sf != f.of
	case x86.CondG:
		return !f.zf && f.sf == f.of
	default:
		return false
	}
}
