package noforbidden

import (
	"fmt"
	"testing"

	"engarde/internal/policy/policytest"
)

// TestTallyMatchesReference holds scanRange to the reference scan over the
// whole buffer and over spans that cut it at arbitrary points: same
// verdict, violation and charged units.
func TestTallyMatchesReference(t *testing.T) {
	verdicts := map[bool]int{}
	for seed := int64(71); seed < 74; seed++ {
		for _, syscall := range []bool{true, false} {
			c := cfg(syscall)
			c.Seed = seed
			ctx := policytest.Context(t, policytest.Build(t, c))
			sc, err := New().BeginShards(ctx)
			if err != nil {
				t.Fatalf("seed %d: BeginShards: %v", seed, err)
			}
			ck := sc.(*checker)
			n := len(ctx.Program.Insts)
			spans := [][2]int{{0, n}, {0, 0}, {n / 3, n / 2}, {n / 2, n}, {n - 1, n}}
			for lo := 0; lo < n; lo += n/7 + 1 {
				spans = append(spans, [2]int{lo, min(lo+n/5, n)})
			}
			for _, sp := range spans {
				label := fmt.Sprintf("seed%d/syscall=%v/[%d,%d)", seed, syscall, sp[0], sp[1])
				got, want := policytest.Fresh(ctx), policytest.Fresh(ctx)
				err := ck.scanRange(got, sp[0], sp[1])
				verdicts[err == nil]++
				policytest.SameCheck(t, label, err, ck.refScanRange(want, sp[0], sp[1]), got.Counter, want.Counter)
			}
		}
	}
	if verdicts[true] == 0 || verdicts[false] == 0 {
		t.Errorf("verdicts (compliant: count) = %v, want both", verdicts)
	}
}
