package liblink

import (
	"fmt"
	"testing"

	"engarde/internal/policy/memo"
	"engarde/internal/policy/policytest"
	"engarde/internal/toolchain"
)

// TestTallyMatchesReference holds the module's scan to the reference walk
// over the whole buffer: same verdict, violation and charged units, cold
// and through the memo session's digest table, on compliant images, images
// linked against the other musl build, and instrumented variants.
func TestTallyMatchesReference(t *testing.T) {
	dbs := map[string]string{"v105": toolchain.MuslV105, "v110": toolchain.MuslV110}
	verdicts := map[bool]int{}
	for seed := int64(51); seed < 54; seed++ {
		for _, variant := range []struct {
			name string
			set  func(*toolchain.Config)
		}{
			{"plain", func(*toolchain.Config) {}},
			{"musl110", func(c *toolchain.Config) { c.MuslVersion = toolchain.MuslV110 }},
			{"stackprot", func(c *toolchain.Config) { c.StackProtector = true }},
			{"ifcc", func(c *toolchain.Config) { c.IFCC, c.IndirectRate = true, 0.02 }},
		} {
			cfg := toolchain.Config{
				Name: "lldiff", Seed: seed,
				NumFuncs: 20, AvgFuncInsts: 80, FuncSizeVariance: 0.4,
				LibcCallRate: 0.08, AppCallRate: 0.02,
			}
			variant.set(&cfg)
			ctx := policytest.Context(t, policytest.Build(t, cfg))
			for dbName, version := range dbs {
				db, err := toolchain.MuslHashDB(version, false)
				if err != nil {
					t.Fatal(err)
				}
				for _, requireUse := range []bool{false, true} {
					m := New("musl-libc", db)
					m.RequireUse = requireUse
					ref := refModule{m}
					label := fmt.Sprintf("%s/seed%d/db-%s/require=%v", variant.name, seed, dbName, requireUse)

					got, want := policytest.Fresh(ctx), policytest.Fresh(ctx)
					err := m.Check(got)
					verdicts[err == nil]++
					policytest.SameCheck(t, label, err, ref.Check(want), got.Counter, want.Counter)

					cache, err := memo.Open(memo.Config{Entries: 1 << 12})
					if err != nil {
						t.Fatal(err)
					}
					got, want = policytest.Fresh(ctx), policytest.Fresh(ctx)
					got.Memo = memo.NewSession(cache, got.Program, got.Symbols, got.Counter)
					want.Memo = memo.NewSession(cache, want.Program, want.Symbols, want.Counter)
					policytest.SameCheck(t, label+"/memo", m.Check(got), ref.Check(want), got.Counter, want.Counter)
					cache.Close()
				}
			}
		}
	}
	if verdicts[true] == 0 || verdicts[false] == 0 {
		t.Errorf("corpora verdicts (compliant: count) = %v, want both", verdicts)
	}
}
