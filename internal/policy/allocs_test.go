//go:build !race

package policy_test

import (
	"testing"

	"engarde/internal/policy"
	"engarde/internal/policy/liblink"
	"engarde/internal/policy/policytest"
	"engarde/internal/policy/stackprot"
	"engarde/internal/toolchain"
)

// TestPolicyCheckAllocs pins what one sequential Check allocates on a
// fixed stack-protected image. stackprot's scratch slot index is per span
// and the memo payload is built only when a memo session records it, so a
// check allocates a handful of objects, far under one per function.
// liblink reuses one hasher per span, so its allocations do not grow with
// the number of call sites.
func TestPolicyCheckAllocs(t *testing.T) {
	bin := policytest.Build(t, toolchain.Config{
		Name: "allocs", Seed: 81,
		NumFuncs: 60, AvgFuncInsts: 150, FuncSizeVariance: 0.4,
		LibcCallRate: 0.06, AppCallRate: 0.02,
		StackProtector: true,
	})
	ctx := policytest.Context(t, bin)
	db, err := toolchain.MuslHashDB(toolchain.MuslV105, true)
	if err != nil {
		t.Fatal(err)
	}
	funcs := len(ctx.Symbols.Functions())
	for _, tc := range []struct {
		mod     policy.Module
		ceiling float64
	}{
		{stackprot.New(), 8},
		{liblink.New("musl-libc", db), 8},
	} {
		set := policy.NewSet(tc.mod)
		if err := set.Check(ctx); err != nil {
			t.Fatalf("%s: %v", tc.mod.Name(), err)
		}
		got := testing.AllocsPerRun(20, func() { _ = set.Check(ctx) })
		t.Logf("%s: %.0f allocs per Check (%d functions, %d instructions)",
			tc.mod.Name(), got, funcs, len(ctx.Program.Insts))
		if got > tc.ceiling {
			t.Errorf("%s: %.0f allocs per Check, ceiling %.0f", tc.mod.Name(), got, tc.ceiling)
		}
	}
}
