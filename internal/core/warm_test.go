package core

import (
	"math/rand"
	"reflect"
	"testing"

	"engarde/internal/cycles"
	"engarde/internal/policy"
	"engarde/internal/policy/liblink"
	"engarde/internal/policy/memo"
	"engarde/internal/policy/noforbidden"
	"engarde/internal/policy/stackprot"
	"engarde/internal/sgx"
	"engarde/internal/toolchain"
)

// provisionWarm provisions image on a fresh enclave sharing the given
// function-result cache, with the given worker counts.
func provisionWarm(t *testing.T, image []byte, pols *policy.Set, disasmWorkers, policyWorkers int, cache *memo.Cache) *Report {
	t.Helper()
	cfg := testConfig(pols)
	cfg.DisasmWorkers = disasmWorkers
	cfg.PolicyWorkers = policyWorkers
	cfg.FnMemo = cache
	g, _ := newEnGarde(t, cfg)
	rep, err := g.Provision(image)
	if err != nil {
		t.Fatalf("Provision(disasm=%d, policy=%d, warm): %v", disasmWorkers, policyWorkers, err)
	}
	return rep
}

// TestWarmProvisionMatchesCold is the differential property the warm path
// rests on: provisioning through a function-result cache warmed in memory
// yields the same verdict, violation, and instruction count as a cold run, for any
// worker count. Cycle totals are deliberately NOT compared: straddle
// handling is span-cut-dependent, so warm metering varies with worker
// count (see EXPERIMENTS.md); only the outcome must be invariant.
func TestWarmProvisionMatchesCold(t *testing.T) {
	rng := rand.New(rand.NewSource(20260805))
	for _, tc := range diffCases() {
		t.Run(tc.name, func(t *testing.T) {
			image := tc.image(t)
			cold := provisionWith(t, image, tc.makePols(t), 1, 1)

			for _, tier := range []string{"mem"} {
				t.Run(tier, func(t *testing.T) {
					cache, err := memo.Open(memo.Config{Entries: 1 << 12})
					if err != nil {
						t.Fatal(err)
					}

					// Warming pass under randomized seams populates the cache
					// (passing functions only; violations are never memoized).
					provisionWarm(t, image, tc.makePols(t), 1+rng.Intn(12), 1+rng.Intn(12), cache)

					for i := 0; i < 3; i++ {
						dw, pw := 1+rng.Intn(12), 1+rng.Intn(12)
						got := provisionWarm(t, image, tc.makePols(t), dw, pw, cache)
						if got.Compliant != cold.Compliant || got.Reason != cold.Reason {
							t.Fatalf("workers (%d,%d): warm verdict (%v, %q), cold (%v, %q)",
								dw, pw, got.Compliant, got.Reason, cold.Compliant, cold.Reason)
						}
						if !reflect.DeepEqual(got.Violation, cold.Violation) {
							t.Fatalf("workers (%d,%d): warm violation %+v, cold %+v",
								dw, pw, got.Violation, cold.Violation)
						}
						if got.NumInsts != cold.NumInsts {
							t.Fatalf("workers (%d,%d): warm decoded %d instructions, cold %d",
								dw, pw, got.NumInsts, cold.NumInsts)
						}
						// The compliant image re-provisioned through a warmed
						// cache must actually reuse outcomes — otherwise this
						// test passes trivially with the cache inert.
						if tc.name == "compliant-full-set" && got.CachedFunctions == 0 {
							t.Fatalf("workers (%d,%d): warm run reused no function outcomes", dw, pw)
						}
					}
				})
			}
		})
	}
}

// TestWarmProvisionSpeedup pins the acceptance bar for the warm path: a
// second image sharing the approved libc must cut metered policy-phase
// cycles by at least 5x against the cold run. Image A warms the cache,
// then image B is provisioned cold (no cache) and warm (against A's
// cache). Workers are pinned to 1 so the span cuts — and with them the
// metered figures — are reproducible.
func TestWarmProvisionSpeedup(t *testing.T) {
	db, err := toolchain.MuslHashDB(toolchain.MuslV105, true)
	if err != nil {
		t.Fatal(err)
	}
	ll := liblink.New("musl-libc v"+toolchain.MuslV105, db)
	ll.RequireUse = true
	pols := policy.NewSet(ll, stackprot.New(), noforbidden.New())
	image := func(name string, seed int64) []byte {
		return buildClient(t, toolchain.Config{
			Name: name, Seed: seed, NumFuncs: 8, AvgFuncInsts: 30, StackProtector: true,
		})
	}
	imgA, imgB := image("warmA", 9001), image("warmB", 9002)

	// metered provisions one image on a fresh enclave with its own counter.
	metered := func(label string, img []byte, cache *memo.Cache) (*Report, *cycles.Counter) {
		t.Helper()
		cfg := testConfig(pols)
		cfg.EPCPages = sgx.ModifiedEPCPages
		cfg.Counter = cycles.NewCounter(cycles.DefaultModel())
		cfg.DisasmWorkers, cfg.PolicyWorkers = 1, 1
		cfg.FnMemo = cache
		g, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		rep, err := g.Provision(img)
		if err != nil {
			t.Fatalf("%s: %v", label, err)
		}
		if !rep.Compliant {
			t.Fatalf("%s unexpectedly rejected: %s", label, rep.Reason)
		}
		return rep, cfg.Counter
	}

	cold, coldCtr := metered("cold", imgB, nil)
	cache, err := memo.Open(memo.Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer cache.Close()
	metered("warming", imgA, cache)
	warm, warmCtr := metered("warm", imgB, cache)

	if warm.CachedFunctions == 0 {
		t.Fatal("warm run reused no function outcomes; the cache never engaged")
	}
	coldPolicy, warmPolicy := coldCtr.Cycles(cycles.PhasePolicy), warmCtr.Cycles(cycles.PhasePolicy)
	if speedup := float64(coldPolicy) / float64(warmPolicy); warmPolicy == 0 || speedup < 5 {
		t.Fatalf("policy-phase speedup %.2fx (cold %d cycles, warm %d), want >= 5x",
			speedup, coldPolicy, warmPolicy)
	}
	// Disassembly is content-independent of the cache: warm and cold decode
	// the same image, so those figures must not drift.
	coldDisasm, warmDisasm := coldCtr.Cycles(cycles.PhaseDisasm), warmCtr.Cycles(cycles.PhaseDisasm)
	if warmDisasm != coldDisasm || warm.NumInsts != cold.NumInsts {
		t.Fatalf("warm run changed disassembly: %d cycles/%d insts vs cold %d/%d",
			warmDisasm, warm.NumInsts, coldDisasm, cold.NumInsts)
	}
}
