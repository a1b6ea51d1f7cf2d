package noforbidden

// The span scan as it was before charge tallies, kept verbatim (renamed
// only) as the reference the differential test holds scanRange to.

import (
	"fmt"

	"engarde/internal/policy"
)

// refScanRange is the reference copy of scanRange: the per-instruction
// deny-list scan over [lo, hi).
func (c *checker) refScanRange(ctx *policy.Context, lo, hi int) error {
	m := c.m
	p := ctx.Program
	for i := lo; i < hi; i++ {
		ctx.ChargeScan(1)
		ctx.ChargePattern(1)
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
