package ifcc

import (
	"fmt"
	"testing"

	"engarde/internal/policy/policytest"
)

// TestTallyMatchesReference holds Check to the jump-table prologue plus
// the reference scan over the whole buffer: same verdict, violation and
// charged units.
func TestTallyMatchesReference(t *testing.T) {
	verdicts := map[bool]int{}
	for seed := int64(61); seed < 64; seed++ {
		for _, instrumented := range []bool{true, false} {
			c := cfg(instrumented)
			c.Seed = seed
			c.StackProtector = seed%2 == 0
			ctx := policytest.Context(t, policytest.Build(t, c))
			m := New()
			label := fmt.Sprintf("seed%d/ifcc=%v", seed, instrumented)
			got, want := policytest.Fresh(ctx), policytest.Fresh(ctx)
			err := m.Check(got)
			verdicts[err == nil]++
			tbl, ref := m.findJumpTable(want)
			if ref == nil {
				_, ref = (&checker{m: m, tbl: tbl}).refScanRange(want, 0, len(ctx.Program.Insts))
			}
			policytest.SameCheck(t, label, err, ref, got.Counter, want.Counter)
		}
	}
	if verdicts[true] == 0 || verdicts[false] == 0 {
		t.Errorf("verdicts (compliant: count) = %v, want both", verdicts)
	}
}
