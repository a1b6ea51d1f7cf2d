// Package noforbidden implements a forbidden-instruction policy module.
// SGX enclaves cannot invoke OS services: SYSCALL, INT and privileged
// instructions fault inside an enclave (paper §2: "An enclave can only
// execute user-mode code and cannot invoke any OS services"). A provider
// therefore gains nothing from allowing them — but code that *carries*
// them is at best broken and at worst probing for emulator gaps or
// preparing detection-proof behaviour outside the enclave. This module
// rejects executables containing any instruction from a configurable deny
// list.
//
// This is a fourth policy module beyond the paper's three, demonstrating
// the pluggable-module architecture of §3 on a fresh policy.
package noforbidden

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"sort"

	"engarde/internal/policy"
	"engarde/internal/x86"
)

// Module is the forbidden-instruction policy module.
type Module struct {
	deny map[x86.Op]bool
}

// DefaultDenied returns the default deny list: OS-service and privileged
// control instructions that cannot legally execute inside an enclave.
func DefaultDenied() []x86.Op {
	return []x86.Op{
		x86.OpSyscall, x86.OpInt, x86.OpHlt,
		x86.OpIn, x86.OpOut,
		x86.OpCli, x86.OpSti,
	}
}

// New builds the module; with no arguments it uses DefaultDenied.
func New(denied ...x86.Op) *Module {
	if len(denied) == 0 {
		denied = DefaultDenied()
	}
	m := &Module{deny: make(map[x86.Op]bool, len(denied))}
	for _, op := range denied {
		m.deny[op] = true
	}
	return m
}

// Name implements policy.Module.
func (m *Module) Name() string { return "no-forbidden-instructions" }

// Fingerprint implements policy.Fingerprinter: the deny list is the
// module's entire configuration. Opcodes are folded in sorted order so the
// map's iteration order cannot perturb the digest.
func (m *Module) Fingerprint() []byte {
	ops := make([]int, 0, len(m.deny))
	for op := range m.deny {
		ops = append(ops, int(op))
	}
	sort.Ints(ops)
	h := sha256.New()
	for _, op := range ops {
		var b [8]byte
		binary.BigEndian.PutUint64(b[:], uint64(op))
		h.Write(b[:])
	}
	return h.Sum(nil)
}

// memoVersion tags the (empty) revalidation-payload format. The verdict is
// a pure function of the digest-pinned bytes, so hits need no payload.
const memoVersion = "noforbidden/1"

// MemoFingerprint implements policy.Memoizable.
func (m *Module) MemoFingerprint() [sha256.Size]byte {
	return policy.MemoKeyFP(m, memoVersion)
}

// Check implements policy.Module: one scan of the instruction buffer
// against the deny list, hopping memoized functions when a memo session is
// active.
func (m *Module) Check(ctx *policy.Context) error {
	c := &checker{m: m}
	if ctx.Memo != nil {
		c.fp = m.MemoFingerprint()
		return c.checkMemo(ctx)
	}
	return c.scanRange(ctx, 0, len(ctx.Program.Insts))
}

type checker struct {
	m  *Module
	fp [sha256.Size]byte
}

// scanRange is the per-instruction deny-list scan over [lo, hi).
func (c *checker) scanRange(ctx *policy.Context, lo, hi int) error {
	m := c.m
	p := ctx.Program
	var t policy.Tally
	defer t.Flush(ctx)
	for i := lo; i < hi; i++ {
		t.Scan++
		t.Pattern++
		in := &p.Insts[i]
		if m.deny[in.Op] {
			return &policy.Violation{
				Module: m.Name(), Addr: in.Addr,
				Reason: fmt.Sprintf("forbidden instruction %s (enclaves cannot invoke OS services)", in.String()),
			}
		}
	}
	return nil
}

// checkMemo walks the buffer function by function via the digest table,
// skipping functions whose clean scan is memoized. The verdict is a pure
// function of the bytes, so a hit needs no revalidation; gaps outside any
// function and misses are scanned.
func (c *checker) checkMemo(ctx *policy.Context) error {
	n := len(ctx.Program.Insts)
	for i := 0; i < n; {
		sp, ok := ctx.Memo.SpanContaining(i)
		if !ok {
			if err := c.scanRange(ctx, i, i+1); err != nil {
				return err
			}
			i++
			continue
		}
		if _, hit := ctx.Memo.Hit(c.fp, sp.Addr); hit {
			ctx.Memo.CountReuse(1)
		} else {
			if err := c.scanRange(ctx, sp.StartIdx, sp.EndIdx); err != nil {
				return err
			}
			ctx.Memo.Record(c.fp, sp.Addr, nil)
		}
		i = sp.EndIdx
	}
	return nil
}
