package ifcc

// The span scan as it was before charge tallies, kept verbatim (renamed
// only) as the reference the differential test holds scanRange to.

import "engarde/internal/policy"

// refScanRange is the reference copy of scanRange: the per-instruction
// scan over [lo, hi); it returns the number of indirect call sites
// verified.
func (c *checker) refScanRange(ctx *policy.Context, lo, hi int) (int, error) {
	m := c.m
	p := ctx.Program
	sites := 0
	for i := lo; i < hi; i++ {
		// Visiting an instruction means inspecting its opcode and both
		// operand slots for the indirect-call shape.
		ctx.ChargeScan(1)
		ctx.ChargePattern(3)
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
