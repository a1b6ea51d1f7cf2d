package liblink

// The liblink scan as it was before charge tallies and hasher reuse, kept
// verbatim (renamed only) as the reference the differential test holds
// scan to: a fresh hasher per call site, one counter update per step.

import (
	"crypto/sha256"
	"fmt"

	"engarde/internal/policy"
)

// refModule is the module with the reference scan.
type refModule struct{ *Module }

// Check runs the reference scan, then the module's own RequireUse
// epilogue.
func (r refModule) Check(ctx *policy.Context) error {
	used, err := r.refScan(ctx)
	if err != nil {
		return err
	}
	return r.requireUse(used)
}

// refScan is the reference walk: it scans the instruction buffer for
// direct calls and verifies each resolvable target against the
// approved-library database.
func (r refModule) refScan(ctx *policy.Context) (used int, err error) {
	m := r.Module
	p := ctx.Program
	for i := range p.Insts {
		ctx.ChargeScan(1)
		in := &p.Insts[i]
		if !in.IsDirectCall() {
			continue
		}
		target, ok := in.BranchTarget()
		if !ok {
			continue
		}
		// Resolve the target through the symbol hash table.
		ctx.ChargeLookup(1)
		name, ok := ctx.Symbols.NameAt(target)
		if !ok {
			return used, &policy.Violation{
				Module: m.Name(), Addr: in.Addr,
				Reason: fmt.Sprintf("direct call target %#x is not a known function", target),
			}
		}
		// Hash the target function unconditionally — the paper's check
		// hashes every resolvable direct-call target and then compares
		// against the library database ("otherwise, it will compute the
		// SHA-256 hash of all the instructions of the function"). Only
		// names present in the database carry an expectation; the rest
		// are application-internal functions.
		var got [sha256.Size]byte
		if d, ok := digestFor(ctx, target); ok {
			got = d
		} else {
			var n uint64
			got, n, err = refHashFunction(m, ctx, target)
			if err != nil {
				return used, err
			}
			ctx.ChargeHash(n)
		}
		want, inDB := m.db[name]
		if !inDB {
			continue
		}
		if got != want {
			return used, &policy.Violation{
				Module: m.Name(), Addr: in.Addr,
				Reason: fmt.Sprintf("function %q does not match the approved %s build", name, m.libName),
			}
		}
		used++
	}
	return used, nil
}

// refHashFunction hashes the instructions of the function starting at addr,
// stopping at the first instruction that begins another function (paper
// §5: "the policy module sequentially reads instructions starting from the
// computed target address and stops when it comes across an instruction
// that is at the beginning of another function"). It returns the hash and
// the number of bytes hashed.
func refHashFunction(m *Module, ctx *policy.Context, addr uint64) ([sha256.Size]byte, uint64, error) {
	p := ctx.Program
	idx, ok := p.InstAt(addr)
	if !ok {
		return [sha256.Size]byte{}, 0, &policy.Violation{
			Module: m.Name(), Addr: addr,
			Reason: "call target is not an instruction boundary",
		}
	}
	h := sha256.New()
	var n uint64
	for i := idx; i < len(p.Insts); i++ {
		in := &p.Insts[i]
		if i > idx {
			// The symbol hash table tells us whether this instruction
			// starts another function.
			ctx.ChargeLookup(1)
			if ctx.Symbols.IsFuncStart(in.Addr) {
				break
			}
		}
		h.Write(p.Raw(i))
		n += uint64(in.Len)
	}
	var sum [sha256.Size]byte
	copy(sum[:], h.Sum(nil))
	return sum, n, nil
}
