package noforbidden

import (
	"fmt"
	"testing"

	"engarde/internal/policy/policytest"
)

// TestTallyMatchesReference holds Check to the reference scan over the
// whole buffer: same verdict, violation and charged units.
func TestTallyMatchesReference(t *testing.T) {
	verdicts := map[bool]int{}
	for seed := int64(71); seed < 74; seed++ {
		for _, syscall := range []bool{true, false} {
			c := cfg(syscall)
			c.Seed = seed
			ctx := policytest.Context(t, policytest.Build(t, c))
			m := New()
			label := fmt.Sprintf("seed%d/syscall=%v", seed, syscall)
			got, want := policytest.Fresh(ctx), policytest.Fresh(ctx)
			err := m.Check(got)
			verdicts[err == nil]++
			ref := (&checker{m: m}).refScanRange(want, 0, len(ctx.Program.Insts))
			policytest.SameCheck(t, label, err, ref, got.Counter, want.Counter)
		}
	}
	if verdicts[true] == 0 || verdicts[false] == 0 {
		t.Errorf("verdicts (compliant: count) = %v, want both", verdicts)
	}
}
