package core

import (
	"bytes"
	"math/rand"
	"path/filepath"
	"reflect"
	"testing"

	"engarde/internal/attest"
	"engarde/internal/cycles"
	"engarde/internal/policy"
	"engarde/internal/policy/memo"
	"engarde/internal/secchan"
	"engarde/internal/sgx"
)

// newSnapshotter builds a Snapshotter on its own device with its own
// counter, from testConfig plus the given workers/cache.
func newSnapshotter(t *testing.T, pols *policy.Set, dw, pw int, cache *memo.Cache) *Snapshotter {
	t.Helper()
	cfg := testConfig(pols)
	cfg.DisasmWorkers = dw
	cfg.PolicyWorkers = pw
	cfg.FnMemo = cache
	cfg.Counter = cycles.NewCounter(cycles.DefaultModel())
	dev, err := sgx.NewDevice(sgx.Config{
		EPCPages: cfg.EPCPages, Version: cfg.Version, Counter: cfg.Counter,
	})
	if err != nil {
		t.Fatal(err)
	}
	s, err := NewSnapshotter(cfg, dev)
	if err != nil {
		t.Fatalf("NewSnapshotter: %v", err)
	}
	return s
}

// keyExchange completes the X25519/AES key exchange on any EnGarde instance
// (what newEnGarde does for freshly built ones).
func keyExchange(t *testing.T, g *EnGarde) {
	t.Helper()
	pub, err := g.PublicKeyDER()
	if err != nil {
		t.Fatal(err)
	}
	_, wrapped, err := secchan.WrapSessionKey(pub, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := g.AcceptSessionKey(wrapped); err != nil {
		t.Fatal(err)
	}
}

// provisionDelta provisions image on g and returns the report plus the
// per-phase cycle DELTAS of the provisioning run itself. Report.Phases is
// a cumulative counter snapshot, so it includes enclave-creation cost —
// which legitimately differs between a measured build and a snapshot
// clone; the delta over Provision is what must be identical.
func provisionDelta(t *testing.T, g *EnGarde, image []byte) (*Report, map[cycles.Phase]uint64) {
	t.Helper()
	pre := g.Counter().Snapshot()
	rep, err := g.Provision(image)
	if err != nil {
		t.Fatalf("Provision: %v", err)
	}
	delta := make(map[cycles.Phase]uint64)
	for p, v := range rep.Phases {
		if d := v - pre[p]; d != 0 {
			delta[p] = d
		}
	}
	return rep, delta
}

// compareReports asserts the observable provisioning outcome matches.
func compareReports(t *testing.T, label string, got, want *Report, gotDelta, wantDelta map[cycles.Phase]uint64) {
	t.Helper()
	if got.Compliant != want.Compliant || got.Reason != want.Reason {
		t.Fatalf("%s: verdict (%v, %q), fresh (%v, %q)",
			label, got.Compliant, got.Reason, want.Compliant, want.Reason)
	}
	if !reflect.DeepEqual(got.Violation, want.Violation) {
		t.Fatalf("%s: violation %+v, fresh %+v", label, got.Violation, want.Violation)
	}
	if got.NumInsts != want.NumInsts {
		t.Fatalf("%s: decoded %d instructions, fresh %d", label, got.NumInsts, want.NumInsts)
	}
	if !reflect.DeepEqual(gotDelta, wantDelta) {
		t.Fatalf("%s: per-phase provisioning cycle deltas diverge:\n  pooled: %v\n  fresh:  %v",
			label, gotDelta, wantDelta)
	}
}

// TestPooledProvisionMatchesFresh is the differential property the warm
// pool rests on: a session served by a snapshot-cloned (or scrubbed-and-
// recycled) enclave is observationally identical to one served by a
// freshly measured-built enclave — same verdict, violation, instruction
// count, per-phase provisioning cycle deltas, same MRENCLAVE, and an
// attestation quote that verifies against the fresh enclave's measurement.
// Checked across the PR-2 differential cases, randomized worker counts,
// and the warm-path memo tiers (none, mem, disk-with-restart).
func TestPooledProvisionMatchesFresh(t *testing.T) {
	rng := rand.New(rand.NewSource(20260807))
	for _, tc := range diffCases() {
		t.Run(tc.name, func(t *testing.T) {
			image := tc.image(t)
			for _, tier := range []string{"none", "mem", "disk"} {
				t.Run(tier, func(t *testing.T) {
					dw, pw := 1+rng.Intn(12), 1+rng.Intn(12)
					warmDW, warmPW := 1+rng.Intn(12), 1+rng.Intn(12)

					// openCache builds one memo tier; fresh and pooled sides
					// get their own, warmed identically (same image, same
					// worker counts), so the measured runs see equal state.
					openCache := func(name string) *memo.Cache {
						if tier == "none" {
							return nil
						}
						var path string
						if tier == "disk" {
							path = filepath.Join(t.TempDir(), name+".cache")
						}
						cache, err := memo.Open(memo.Config{Entries: 1 << 12, Path: path})
						if err != nil {
							t.Fatal(err)
						}
						t.Cleanup(func() { cache.Close() })
						provisionWarm(t, image, tc.makePols(t), warmDW, warmPW, cache)
						if tier == "disk" {
							// Simulate a restart: only the append log survives.
							if err := cache.Close(); err != nil {
								t.Fatal(err)
							}
							cache, err = memo.Open(memo.Config{Entries: 1 << 12, Path: path})
							if err != nil {
								t.Fatal(err)
							}
							t.Cleanup(func() { cache.Close() })
						}
						return cache
					}

					// Fresh side: the measured build.
					freshCfg := testConfig(tc.makePols(t))
					freshCfg.DisasmWorkers, freshCfg.PolicyWorkers = dw, pw
					freshCfg.FnMemo = openCache("fresh")
					fresh, _ := newEnGarde(t, freshCfg)
					freshRep, freshDelta := provisionDelta(t, fresh, image)

					// Pooled side: snapshot template once, then a clone.
					snap := newSnapshotter(t, tc.makePols(t), dw, pw, openCache("pooled"))
					if snap.Measurement() != fresh.Measurement() {
						t.Fatalf("clone MRENCLAVE %x, fresh %x",
							snap.Measurement(), fresh.Measurement())
					}
					clone, err := snap.Clone(nil)
					if err != nil {
						t.Fatalf("Clone: %v", err)
					}
					if clone.Measurement() != fresh.Measurement() {
						t.Fatal("cloned enclave measurement diverges")
					}

					// The clone's attestation transcript must satisfy a client
					// expecting the fresh enclave's measurement.
					qe, err := attest.NewQuotingEnclave(clone.Device())
					if err != nil {
						t.Fatal(err)
					}
					q, err := clone.Quote(qe)
					if err != nil {
						t.Fatalf("clone Quote: %v", err)
					}
					pub, err := clone.PublicKeyDER()
					if err != nil {
						t.Fatal(err)
					}
					if err := attest.VerifyQuote(q, qe.AttestationPublicKey(),
						fresh.Measurement(), attest.BindPublicKey(pub)); err != nil {
						t.Fatalf("clone quote does not verify against fresh measurement: %v", err)
					}

					keyExchange(t, clone)
					cloneRep, cloneDelta := provisionDelta(t, clone, image)
					compareReports(t, "clone", cloneRep, freshRep, cloneDelta, freshDelta)
					if tier != "none" && tc.name == "compliant-full-set" &&
						(cloneRep.CachedFunctions == 0 || cloneRep.CachedFunctions != freshRep.CachedFunctions) {
						t.Fatalf("warm-tier reuse diverges: clone %d cached functions, fresh %d",
							cloneRep.CachedFunctions, freshRep.CachedFunctions)
					}

					// Recycled generation: scrub the used clone back to the
					// snapshot and serve a second session through it. The
					// first session's run itself warmed the memo tier, so the
					// reference is a SECOND fresh enclave sharing the fresh
					// cache — generation 2 against generation 2.
					fresh2, _ := newEnGarde(t, freshCfg)
					fresh2Rep, fresh2Delta := provisionDelta(t, fresh2, image)
					recycled, err := snap.Recycle(clone)
					if err != nil {
						t.Fatalf("Recycle: %v", err)
					}
					keyExchange(t, recycled)
					recRep, recDelta := provisionDelta(t, recycled, image)
					compareReports(t, "recycled", recRep, fresh2Rep, recDelta, fresh2Delta)
				})
			}
		})
	}
}

// TestRecycleErasesResidue is the scrub guarantee in isolation: bytes a
// session writes into heap pages must be unreadable after Recycle — the
// next tenant sees exactly the snapshot image, never a predecessor's data.
func TestRecycleErasesResidue(t *testing.T) {
	snap := newSnapshotter(t, policy.NewSet(), 1, 1, nil)
	g1, err := snap.Clone(nil)
	if err != nil {
		t.Fatal(err)
	}
	canary := bytes.Repeat([]byte("SESSION-A-SECRET"), 256)[:sgx.PageSize]
	addr := g1.Layout().HeapBase + 100*sgx.PageSize
	if err := g1.Enclave().Write(addr, canary); err != nil {
		t.Fatalf("writing canary: %v", err)
	}

	g2, err := snap.Recycle(g1)
	if err != nil {
		t.Fatalf("Recycle: %v", err)
	}
	got := make([]byte, sgx.PageSize)
	if err := g2.Enclave().Read(addr, got); err != nil {
		t.Fatalf("reading after recycle: %v", err)
	}
	if bytes.Contains(got, []byte("SESSION-A-SECRET")) {
		t.Fatal("session A's canary survived the scrub")
	}
	if !bytes.Equal(got, make([]byte, sgx.PageSize)) {
		t.Fatal("recycled heap page is not the pristine snapshot image")
	}
}

// TestCloneDestroyRestoresEPCBalance pins the no-leak invariant the
// gateway chaos tests rely on: any clone/recycle/destroy sequence returns
// the device to its pre-clone EPC free count.
func TestCloneDestroyRestoresEPCBalance(t *testing.T) {
	snap := newSnapshotter(t, policy.NewSet(), 1, 1, nil)
	g, err := snap.Clone(nil)
	if err != nil {
		t.Fatal(err)
	}
	dev := g.Device()
	free := dev.EPCFree() + snap.SnapshotPages() // balance before this clone

	g, err = snap.Recycle(g)
	if err != nil {
		t.Fatal(err)
	}
	g.Destroy()
	if got := dev.EPCFree(); got != free {
		t.Fatalf("EPC free %d after clone→recycle→destroy, want %d", got, free)
	}
}
