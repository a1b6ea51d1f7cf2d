package gateway_test

// Enclave-loss recovery: a session whose enclave has its EPC pages
// reclaimed mid-provision must complete with exactly the verdict a
// fault-free session gets (on a replacement enclave), and lost enclaves
// sitting in the warm pool must be drained at checkout instead of being
// handed to sessions. Losing an enclave may cost latency, never verdict
// integrity.

import (
	"sync/atomic"
	"testing"

	"engarde"
	"engarde/internal/gateway"
)

// TestEnclaveLossMidProvisionFailover drives sessions through a gateway
// whose LoseEnclaveEvery drill reclaims every session's enclave right
// before the pipeline runs: each session must still complete, and its
// verdict (compliant and non-compliant alike) must match the fault-free
// control.
func TestEnclaveLossMidProvisionFailover(t *testing.T) {
	good := buildImage(t, "loss-good", 601, true)
	bad := buildImage(t, "loss-bad", 602, false)

	// Fault-free control verdicts.
	policies := engarde.NewPolicySet(engarde.StackProtectorPolicy())
	ctlGw, ctlLn, ctlClient := testGateway(t, gateway.Config{MaxConcurrent: 2, Policies: policies})
	_ = ctlGw
	ctlGood, err := provisionOnce(t, ctlLn, ctlClient, good)
	if err != nil {
		t.Fatal(err)
	}
	ctlBad, err := provisionOnce(t, ctlLn, ctlClient, bad)
	if err != nil {
		t.Fatal(err)
	}
	if !ctlGood.Compliant || ctlBad.Compliant {
		t.Fatalf("unexpected control verdicts: good=%+v bad=%+v", ctlGood, ctlBad)
	}

	for _, tc := range []struct {
		name string
		cfg  gateway.Config
	}{
		{"cold", gateway.Config{MaxConcurrent: 2, Policies: policies, LoseEnclaveEvery: 1, CacheEntries: -1}},
		{"pooled", gateway.Config{MaxConcurrent: 2, Policies: policies, LoseEnclaveEvery: 1, CacheEntries: -1, EnclavePool: 2}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			gw, ln, client := testGateway(t, tc.cfg)
			vGood, err := provisionOnce(t, ln, client, good)
			if err != nil {
				t.Fatalf("provision with enclave loss: %v", err)
			}
			vBad, err := provisionOnce(t, ln, client, bad)
			if err != nil {
				t.Fatalf("provision with enclave loss: %v", err)
			}
			if vGood != ctlGood {
				t.Errorf("compliant verdict diverged under enclave loss: got %+v want %+v", vGood, ctlGood)
			}
			if vBad != ctlBad {
				t.Errorf("non-compliant verdict diverged under enclave loss: got %+v want %+v", vBad, ctlBad)
			}
			waitFor(t, "sessions accounted", func() bool { return gw.Stats().Served == 2 })
			s := gw.Stats()
			if s.EnclavesLost != 2 {
				t.Errorf("EnclavesLost = %d, want 2", s.EnclavesLost)
			}
			if s.EnclaveFailovers != 2 {
				t.Errorf("EnclaveFailovers = %d, want 2", s.EnclaveFailovers)
			}
			if s.Errors != 0 {
				t.Errorf("Errors = %d, want 0 — a recovered loss must not count as a failure", s.Errors)
			}
		})
	}
}

// TestEnclaveLossVerdictCacheNotPoisoned runs the drill with the verdict
// cache enabled: the first (recovered) session populates the cache, and a
// follow-up fault-free session must hit it with the same verdict — a
// recovery must never leave a wrong or partial entry behind.
func TestEnclaveLossVerdictCacheNotPoisoned(t *testing.T) {
	image := buildImage(t, "loss-cache", 603, true)
	gw, ln, client := testGateway(t, gateway.Config{MaxConcurrent: 2, LoseEnclaveEvery: 2})

	// The drill fires when the session ordinal is a multiple of N, so with
	// N=2 sessions 2, 4, ... lose their enclave. Session 1 is clean and
	// caches the verdict; session 2 loses its enclave and replays the
	// cached-verdict path on the replacement; session 3 is clean again.
	v1, err := provisionOnce(t, ln, client, image)
	if err != nil {
		t.Fatal(err)
	}
	v2, err := provisionOnce(t, ln, client, image)
	if err != nil {
		t.Fatal(err)
	}
	v3, err := provisionOnce(t, ln, client, image)
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range []engarde.Verdict{v1, v2, v3} {
		if v != v1 {
			t.Errorf("session %d verdict diverged: got %+v want %+v", i+1, v, v1)
		}
	}
	if !v1.Compliant {
		t.Fatalf("verdict = %+v, want compliant", v1)
	}
	waitFor(t, "sessions accounted", func() bool { return gw.Stats().Served == 3 })
	// Session 1 misses and populates; session 2 hits twice (once on the
	// doomed enclave, once on the replacement); session 3 hits once.
	if s := gw.Stats(); s.CacheMisses != 1 || s.CacheHits != 3 {
		t.Errorf("cache lookups = %d hits / %d misses, want 3/1", s.CacheHits, s.CacheMisses)
	}
}

// TestPoolDrainsLostEnclaves poisons the first clones entering the pool
// (their EPC pages reclaimed while they sit idle) and verifies checkout
// discards them instead of handing a corpse to a session: the session
// completes with the correct verdict and the losses are accounted.
func TestPoolDrainsLostEnclaves(t *testing.T) {
	image := buildImage(t, "loss-pool", 604, true)
	var poisoned atomic.Int32
	gw, ln, client := testGateway(t, gateway.Config{
		MaxConcurrent: 2,
		EnclavePool:   2,
		PoolHooks: &gateway.PoolHooks{
			AfterClone: func(e *engarde.Enclave) error {
				// Reclaim the first two clones after they were minted —
				// they enter the pool already lost.
				if poisoned.Add(1) <= 2 {
					e.Reclaim()
				}
				return nil
			},
		},
	})
	waitFor(t, "pool filled with poisoned clones", func() bool {
		return gw.Stats().Pool.Depth == 2
	})

	v, err := provisionOnce(t, ln, client, image)
	if err != nil {
		t.Fatal(err)
	}
	if !v.Compliant {
		t.Errorf("verdict = %+v, want compliant", v)
	}
	waitFor(t, "lost enclaves drained", func() bool { return gw.Stats().Pool.Lost >= 2 })
	s := gw.Stats()
	if s.EnclavesLost != 0 {
		t.Errorf("EnclavesLost = %d, want 0 — pool-detected losses must never reach a session", s.EnclavesLost)
	}
	if s.Errors != 0 {
		t.Errorf("Errors = %d, want 0", s.Errors)
	}
	// The pool self-heals back to target with healthy clones.
	waitFor(t, "pool healed", func() bool { return gw.Stats().Pool.Depth == 2 })
}
