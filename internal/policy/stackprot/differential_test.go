package stackprot

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"testing"

	"engarde/internal/policy"
	"engarde/internal/policy/memo"
	"engarde/internal/policy/policytest"
	"engarde/internal/toolchain"
)

// diffCase is one program the indexed checker is held to the reference on.
type diffCase struct {
	name string
	ctx  *policy.Context
}

// canaryLoadBytes is "mov %fs:0x28, %rax"; canaryCmpBytes is
// "cmp (%rsp), %rax".
var (
	canaryLoadBytes = []byte{0x64, 0x48, 0x8B, 0x04, 0x25, 0x28, 0x00, 0x00, 0x00}
	canaryCmpBytes  = []byte{0x48, 0x3B, 0x04, 0x24}
)

// patchNth applies fix to the nth occurrence of pat in img and reports
// whether there was one.
func patchNth(img, pat []byte, n int, fix func(at []byte)) bool {
	off := 0
	for k := 0; ; k++ {
		i := bytes.Index(img[off:], pat)
		if i < 0 {
			return false
		}
		if k == n {
			fix(img[off+i:])
			return true
		}
		off += i + 1
	}
}

// diffCorpora builds the differential corpora: toolchain images
// (protected, unprotected, IFCC, EmitSyscall, ASan), the function-size
// sweep's points, and protected images with single canary loads or
// compares broken, so that candidates hit every branch of the chain check.
func diffCorpora(t *testing.T) []diffCase {
	t.Helper()
	var out []diffCase
	add := func(name string, bin *toolchain.Binary) {
		out = append(out, diffCase{name: name, ctx: policytest.Context(t, bin)})
	}
	for seed := int64(41); seed < 44; seed++ {
		base := toolchain.Config{
			Name: "diff", Seed: seed,
			NumFuncs: 12, AvgFuncInsts: 60 + 80*int(seed-41), FuncSizeVariance: 0.5,
			LibcCallRate: 0.04, AppCallRate: 0.01,
		}
		variants := []struct {
			name string
			set  func(*toolchain.Config)
		}{
			{"protected", func(c *toolchain.Config) { c.StackProtector = true }},
			{"unprotected", func(c *toolchain.Config) {}},
			{"ifcc", func(c *toolchain.Config) {
				c.StackProtector, c.IFCC, c.IndirectRate = true, true, 0.02
			}},
			{"syscall", func(c *toolchain.Config) { c.StackProtector, c.EmitSyscall = true, true }},
			{"asan", func(c *toolchain.Config) { c.StackProtector, c.ASan = true, true }},
		}
		for _, v := range variants {
			cfg := base
			v.set(&cfg)
			add(fmt.Sprintf("%s/seed%d", v.name, seed), policytest.Build(t, cfg))
		}
		for n := 0; n < 4; n++ {
			bin := policytest.Build(t, toolchain.Config{
				Name: "diff", Seed: seed, NumFuncs: 6, AvgFuncInsts: 120,
				StackProtector: true,
			})
			// Spread the broken sites over the image.
			k := n * 5
			if patchNth(bin.Image, canaryLoadBytes, k, func(at []byte) { at[5] = 0x30 }) {
				add(fmt.Sprintf("bad-load%d/seed%d", k, seed), bin)
			}
			bin = policytest.Build(t, toolchain.Config{
				Name: "diff", Seed: seed, NumFuncs: 6, AvgFuncInsts: 120,
				StackProtector: true,
			})
			// cmp (%rsp), %rcx: the reload no longer feeds the compare.
			if patchNth(bin.Image, canaryCmpBytes, k, func(at []byte) { at[2] = 0x0C }) {
				add(fmt.Sprintf("bad-cmp%d/seed%d", k, seed), bin)
			}
		}
	}
	// The function-size sweep of internal/bench (RunSizeScaling).
	for _, sh := range []struct{ funcs, avg int }{
		{300, 100}, {150, 200}, {75, 400}, {37, 800}, {18, 1600},
	} {
		add(fmt.Sprintf("sweep%dx%d", sh.funcs, sh.avg), policytest.Build(t, toolchain.Config{
			Name: "sizesweep", Seed: int64(2000 + sh.funcs),
			NumFuncs: sh.funcs, AvgFuncInsts: sh.avg, FuncSizeVariance: 0.3,
			LibcCallRate: 0.03, AppCallRate: 0.01,
			StackProtector: true,
		}))
	}
	return out
}

// TestIndexedMatchesReference holds the indexed checker to the reference
// search: for every corpus, with EarlyExit off and on, the whole-module
// verdict, violation and charged units, and for every function its own
// verdict, memo witness and charged units.
func TestIndexedMatchesReference(t *testing.T) {
	verdicts := map[bool]int{}
	for _, tc := range diffCorpora(t) {
		for _, early := range []bool{false, true} {
			label := fmt.Sprintf("%s/early=%v", tc.name, early)
			m, ref := &Module{EarlyExit: early}, &refModule{EarlyExit: early}

			got, want := policytest.Fresh(tc.ctx), policytest.Fresh(tc.ctx)
			err := m.Check(got)
			verdicts[err == nil]++
			policytest.SameCheck(t, label, err, ref.Check(want), got.Counter, want.Counter)

			compareFunctions(t, label, tc.ctx, m, ref)
		}
	}
	// The corpora must exercise both verdicts, or the comparison proves
	// little.
	if verdicts[true] == 0 || verdicts[false] == 0 {
		t.Errorf("corpora verdicts (compliant: count) = %v, want both", verdicts)
	}
	t.Logf("verdicts (compliant: count): %v", verdicts)
}

// compareFunctions runs both checkers on every non-thunk function, so a
// violation in one function cannot hide a divergence in a later one.
func compareFunctions(t *testing.T, label string, ctx *policy.Context, m *Module, ref *refModule) {
	t.Helper()
	p := ctx.Program
	var idx slotIndex
	for _, fn := range ctx.Symbols.Functions() {
		start, ok := p.InstAt(fn.Addr)
		if !ok {
			continue
		}
		end := len(p.Insts)
		if next, ok := ctx.Symbols.NextFuncAfter(fn.Addr); ok {
			if i, ok := p.InstAt(next); ok {
				end = i
			}
		}
		if m.isTrivialThunk(p.Insts[start:end]) {
			continue
		}
		got, want := policytest.Fresh(ctx), policytest.Fresh(ctx)
		witness, err := m.checkFunction(got, &idx, fn.Name, start, end)
		payload, refErr := ref.checkFunction(want, fn.Name, start, end)
		fl := label + "/" + fn.Name
		policytest.SameCheck(t, fl, err, refErr, got.Counter, want.Counter)
		if err == nil && refErr == nil {
			if enc := binary.AppendVarint(nil, int64(witness)-int64(p.Insts[start].Addr)); !bytes.Equal(enc, payload) {
				t.Errorf("%s: memo payload %x, reference %x", fl, enc, payload)
			}
		}
	}
}

// TestIndexedMatchesReferenceMemo runs both checkers through the
// function-result cache, cold then warm, and compares outcomes, charges
// and every recorded payload.
func TestIndexedMatchesReferenceMemo(t *testing.T) {
	for _, tc := range diffCorpora(t)[:10] {
		for _, early := range []bool{false, true} {
			label := fmt.Sprintf("%s/early=%v", tc.name, early)
			m, ref := &Module{EarlyExit: early}, &refModule{EarlyExit: early}
			gotCache, err := memo.Open(memo.Config{Entries: 1 << 12})
			if err != nil {
				t.Fatal(err)
			}
			wantCache, err := memo.Open(memo.Config{Entries: 1 << 12})
			if err != nil {
				t.Fatal(err)
			}
			for _, pass := range []string{"cold", "warm"} {
				got, want := policytest.Fresh(tc.ctx), policytest.Fresh(tc.ctx)
				got.Memo = memo.NewSession(gotCache, got.Program, got.Symbols, got.Counter)
				want.Memo = memo.NewSession(wantCache, want.Program, want.Symbols, want.Counter)
				gs, ws := policy.NewSet(m), policy.NewSet(ref)
				gs.ProbeMemo(got)
				ws.ProbeMemo(want)
				policytest.SameCheck(t, label+"/"+pass, gs.Check(got), ws.Check(want), got.Counter, want.Counter)
				if got.Memo.Reused() != want.Memo.Reused() {
					t.Errorf("%s/%s: reused %d, reference %d", label, pass, got.Memo.Reused(), want.Memo.Reused())
				}
				fp := m.MemoFingerprint()
				for _, fn := range tc.ctx.Symbols.Functions() {
					gp, gok := got.Memo.Hit(fp, fn.Addr)
					wp, wok := want.Memo.Hit(fp, fn.Addr)
					if gok != wok || !bytes.Equal(gp, wp) {
						t.Errorf("%s/%s: %s payload %x (%v), reference %x (%v)", label, pass, fn.Name, gp, gok, wp, wok)
					}
				}
			}
			gotCache.Close()
			wantCache.Close()
		}
	}
}

// TestReferenceFingerprint pins that the reference and the indexed checker
// share one memo identity: the payload format did not change, so persisted
// fn-caches stay valid.
func TestReferenceFingerprint(t *testing.T) {
	for _, early := range []bool{false, true} {
		if (&Module{EarlyExit: early}).MemoFingerprint() != (&refModule{EarlyExit: early}).MemoFingerprint() {
			t.Errorf("early=%v: memo fingerprints differ", early)
		}
	}
}
