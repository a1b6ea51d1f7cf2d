package ifcc

import (
	"fmt"
	"testing"

	"engarde/internal/policy/policytest"
)

// TestTallyMatchesReference holds scanRange to the reference scan over the
// whole buffer and over spans that cut it at arbitrary points: same site
// count, verdict, violation and charged units.
func TestTallyMatchesReference(t *testing.T) {
	verdicts := map[bool]int{}
	for seed := int64(61); seed < 64; seed++ {
		for _, instrumented := range []bool{true, false} {
			c := cfg(instrumented)
			c.Seed = seed
			c.StackProtector = seed%2 == 0
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
				label := fmt.Sprintf("seed%d/ifcc=%v/[%d,%d)", seed, instrumented, sp[0], sp[1])
				got, want := policytest.Fresh(ctx), policytest.Fresh(ctx)
				gs, err := ck.scanRange(got, sp[0], sp[1])
				ws, refErr := ck.refScanRange(want, sp[0], sp[1])
				verdicts[err == nil]++
				policytest.SameCheck(t, label, err, refErr, got.Counter, want.Counter)
				if gs != ws {
					t.Errorf("%s: %d sites, reference %d", label, gs, ws)
				}
			}
		}
	}
	if verdicts[true] == 0 || verdicts[false] == 0 {
		t.Errorf("verdicts (compliant: count) = %v, want both", verdicts)
	}
}
