package core

import (
	"reflect"
	"runtime"
	"testing"

	"engarde/internal/cycles"
	"engarde/internal/elf64"
	"engarde/internal/nacl"
	"engarde/internal/policy"
	"engarde/internal/policy/liblink"
	"engarde/internal/policy/memo"
	"engarde/internal/policy/noforbidden"
	"engarde/internal/policy/stackprot"
	"engarde/internal/sgx"
	"engarde/internal/toolchain"
)

// provisionWarm provisions image on a fresh enclave sharing the given
// function-result cache.
func provisionWarm(t *testing.T, image []byte, pols *policy.Set, cache *memo.Cache) *Report {
	t.Helper()
	cfg := testConfig(pols)
	cfg.FnMemo = cache
	g, _ := newEnGarde(t, cfg)
	rep, err := g.Provision(image)
	if err != nil {
		t.Fatalf("Provision(warm): %v", err)
	}
	return rep
}

// minWarmInsts is the smallest image TestWarmProvisionMatchesCold accepts:
// large enough that a pipeline splitting its buffer across CPUs would cut
// it, so the test would see the charges move with GOMAXPROCS.
const minWarmInsts = 2048

// textInsts decodes image's text section and returns its instruction
// count (a rejected Report carries none).
func textInsts(t *testing.T, image []byte) int {
	t.Helper()
	f, err := elf64.Parse(image)
	if err != nil {
		t.Fatal(err)
	}
	text := f.Section(".text")
	p, err := nacl.DecodeProgramTraced(text.Data, text.Addr, nil, 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	return len(p.Insts)
}

// TestWarmProvisionMatchesCold is the differential property the warm path
// rests on: provisioning through a function-result cache warmed in memory
// yields the same verdict, violation, and instruction count as a cold run.
// Warm metering is deterministic as well: under GOMAXPROCS 1 and 4 alike,
// every warm provision charges the same per-phase cycles and reuses the
// same number of function outcomes as the first warm provision.
func TestWarmProvisionMatchesCold(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for _, tc := range diffCases() {
		t.Run(tc.name, func(t *testing.T) {
			image := tc.image(t)
			if n := textInsts(t, image); n < minWarmInsts {
				t.Fatalf("image has %d instructions, want at least %d", n, minWarmInsts)
			}
			cold := provisionWith(t, image, tc.makePols(t))

			for _, tier := range []string{"mem"} {
				t.Run(tier, func(t *testing.T) {
					cache, err := memo.Open(memo.Config{Entries: 1 << 12})
					if err != nil {
						t.Fatal(err)
					}

					// The warming pass populates the cache (passing functions
					// only; violations are never memoized).
					provisionWarm(t, image, tc.makePols(t), cache)

					var first *Report
					for _, procs := range []int{1, 4, 1, 4} {
						runtime.GOMAXPROCS(procs)
						got := provisionWarm(t, image, tc.makePols(t), cache)
						if got.Compliant != cold.Compliant || got.Reason != cold.Reason {
							t.Fatalf("GOMAXPROCS %d: warm verdict (%v, %q), cold (%v, %q)",
								procs, got.Compliant, got.Reason, cold.Compliant, cold.Reason)
						}
						if !reflect.DeepEqual(got.Violation, cold.Violation) {
							t.Fatalf("GOMAXPROCS %d: warm violation %+v, cold %+v",
								procs, got.Violation, cold.Violation)
						}
						if got.NumInsts != cold.NumInsts {
							t.Fatalf("GOMAXPROCS %d: warm decoded %d instructions, cold %d",
								procs, got.NumInsts, cold.NumInsts)
						}
						// The compliant image re-provisioned through a warmed
						// cache must actually reuse outcomes — otherwise this
						// test passes trivially with the cache inert.
						if tc.name == "compliant-full-set" && got.CachedFunctions == 0 {
							t.Fatalf("GOMAXPROCS %d: warm run reused no function outcomes", procs)
						}
						if first == nil {
							first = got
							continue
						}
						if got.CachedFunctions != first.CachedFunctions {
							t.Fatalf("GOMAXPROCS %d: warm run reused %d function outcomes, first warm run %d",
								procs, got.CachedFunctions, first.CachedFunctions)
						}
						if !reflect.DeepEqual(got.Phases, first.Phases) {
							t.Fatalf("GOMAXPROCS %d: warm phase cycle totals diverge:\n  got:   %v\n  first: %v",
								procs, got.Phases, first.Phases)
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
// cache).
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
