package liblink

// The liblink span walk as it was before charge tallies and hasher reuse,
// kept verbatim (renamed only) as the reference the differential test
// holds CheckSpan to: a fresh hasher per call site, one counter update
// per step.

import (
	"crypto/sha256"
	"fmt"

	"engarde/internal/policy"
)

// refModule is the module with the reference span walk.
type refModule struct{ *Module }

func (r refModule) Check(ctx *policy.Context) error { return policy.RunSharded(ctx, r) }

func (r refModule) BeginShards(ctx *policy.Context) (policy.SpanChecker, error) {
	return &refChecker{checker{m: r.Module}}, nil
}

// refChecker shares the checker's tally and Finish.
type refChecker struct{ checker }

// CheckSpan is the reference span walk: it scans instructions [lo, hi) for direct calls and verifies each
// resolvable target against the approved-library database.
func (c *refChecker) CheckSpan(ctx *policy.Context, lo, hi int) error {
	m := c.m
	p := ctx.Program
	for i := lo; i < hi; i++ {
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
			return &policy.Violation{
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
			var err error
			got, n, err = refHashFunction(m, ctx, target)
			if err != nil {
				return err
			}
			ctx.ChargeHash(n)
		}
		want, inDB := m.db[name]
		if !inDB {
			continue
		}
		if got != want {
			return &policy.Violation{
				Module: m.Name(), Addr: in.Addr,
				Reason: fmt.Sprintf("function %q does not match the approved %s build", name, m.libName),
			}
		}
		c.used.Add(1)
	}
	return nil
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
		h.Write(in.Raw)
		n += uint64(len(in.Raw))
	}
	var sum [sha256.Size]byte
	copy(sum[:], h.Sum(nil))
	return sum, n, nil
}
