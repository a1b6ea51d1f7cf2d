package gateway_test

// The enclave warm-pool battery: warm sessions swap the create-enclave
// span for a pool-checkout, scrubbed enclaves carry no residue across
// tenants, admission control still sheds when the pool is drained, the
// pool's counters survive concurrent scraping under -race, and a chaos
// soak (scripted clone/scrub failures + faulted connections) never costs
// verdict integrity, leaks an EPC slot, or leaves the pool below target.

import (
	"bytes"
	"context"
	"errors"
	"net"
	"net/http/httptest"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"engarde"
	"engarde/internal/cycles"
	"engarde/internal/faults"
	"engarde/internal/gateway"
	"engarde/internal/obs"
	"engarde/internal/sgx"
)

// poolGateway is testGateway with the provider exposed, so pool tests can
// audit the device's EPC slot balance across the gateway's whole life.
func poolGateway(t testing.TB, cfg gateway.Config) (*engarde.Provider, *gateway.Gateway, *pipeListener, *engarde.Client) {
	t.Helper()
	counter := cycles.NewCounter(cycles.DefaultModel())
	provider, err := engarde.NewProvider(engarde.ProviderConfig{EPCPages: 16384, Counter: counter})
	if err != nil {
		t.Fatal(err)
	}
	cfg.Provider = provider
	cfg.HeapPages = testHeapPages
	cfg.ClientPages = testClientPages
	if cfg.IdleTimeout == 0 {
		cfg.IdleTimeout = time.Minute
	}
	if cfg.SessionBudget == 0 {
		cfg.SessionBudget = 2 * time.Minute
	}
	gw, err := gateway.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	expected, err := engarde.ExpectedMeasurement(engarde.SGXv2, engarde.EnclaveConfig{
		HeapPages: testHeapPages, ClientPages: testClientPages,
	})
	if err != nil {
		t.Fatal(err)
	}
	ln := newPipeListener()
	serveErr := make(chan error, 1)
	go func() { serveErr <- gw.Serve(context.Background(), ln) }()
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		_ = gw.Shutdown(ctx)
		if err := <-serveErr; err != nil {
			t.Errorf("Serve: %v", err)
		}
	})
	return provider, gw, ln, &engarde.Client{Expected: expected, PlatformKey: provider.AttestationPublicKey()}
}

// waitPoolDepth waits for the pool to reach the given checked-in depth.
func waitPoolDepth(t testing.TB, gw *gateway.Gateway, depth int) {
	t.Helper()
	waitFor(t, "pool depth", func() bool {
		s := gw.Stats()
		return s.Pool != nil && s.Pool.Depth == depth
	})
}

// TestGatewayPooledWarmSessions: with the pool filled, every session is a
// warm checkout — its trace carries a pool-checkout span and no
// create-enclave span, verdicts are unchanged, the pool recycles (scrub,
// not re-clone) back to target depth, and the amortized snapshot/clone
// economics are visible on /statsz and /metricsz.
func TestGatewayPooledWarmSessions(t *testing.T) {
	sink, err := obs.NewSink(32, "")
	if err != nil {
		t.Fatal(err)
	}
	gw, ln, client := testGateway(t, gateway.Config{
		Policies:      engarde.NewPolicySet(engarde.StackProtectorPolicy()),
		MaxConcurrent: 2,
		EnclavePool:   2,
		TraceSink:     sink,
	})
	waitPoolDepth(t, gw, 2)
	good := buildImage(t, "pool-good", 981, true)
	bad := buildImage(t, "pool-bad", 982, false)

	if v, err := provisionOnce(t, ln, client, good); err != nil || !v.Compliant {
		t.Fatalf("good session: %+v, %v", v, err)
	}
	if v, err := provisionOnce(t, ln, client, bad); err != nil || v.Compliant || v.Code != engarde.CodePolicy {
		t.Fatalf("bad session: %+v, %v", v, err)
	}
	waitFor(t, "sessions accounted", func() bool {
		s := gw.Stats()
		return s.Served == 2 && s.Active == 0
	})

	s := gw.Stats()
	if s.Pool == nil {
		t.Fatal("stats carry no pool section with the pool enabled")
	}
	if s.Pool.WarmCheckouts != 2 || s.Pool.ColdCheckouts != 0 {
		t.Errorf("checkouts warm=%d cold=%d, want 2/0", s.Pool.WarmCheckouts, s.Pool.ColdCheckouts)
	}
	if s.Pool.SnapshotPages == 0 || s.Pool.SnapshotBuildCycles == 0 || s.Pool.CloneCycleCost == 0 {
		t.Errorf("amortized cost fields missing: %+v", s.Pool)
	}
	if s.Pool.CloneCycleCost >= s.Pool.SnapshotBuildCycles {
		t.Errorf("clone (%d cycles) is not cheaper than the measured build (%d cycles)",
			s.Pool.CloneCycleCost, s.Pool.SnapshotBuildCycles)
	}

	// Returned enclaves are scrubbed back in — population accounting means
	// no replacement clone is minted for an enclave that is coming back.
	waitFor(t, "pool re-heals by scrubbing", func() bool {
		s := gw.Stats()
		return s.Pool.Depth == 2 && s.Pool.Scrubs == 2
	})
	if s := gw.Stats(); s.Pool.Clones != 2 {
		t.Errorf("clones = %d, want 2 (initial fill only; returns are scrubbed)", s.Pool.Clones)
	}

	// Warm traces: pool-checkout stands where create-enclave would.
	var warmTraces int
	for _, tr := range sink.Recent() {
		var hasCheckout, hasCreate bool
		for _, sp := range tr.Spans {
			switch sp.Name {
			case "pool-checkout":
				hasCheckout = true
			case "create-enclave":
				hasCreate = true
			}
		}
		if hasCheckout && !hasCreate {
			warmTraces++
		} else if hasCreate {
			t.Errorf("trace %s paid create-enclave with a filled pool (spans: %v)", tr.ID, spanNames(tr.Spans))
		}
	}
	if warmTraces != 2 {
		t.Errorf("warm traces = %d, want 2", warmTraces)
	}

	// The amortized economics are on /metricsz too.
	rec := httptest.NewRecorder()
	gw.MetricsHandler().ServeHTTP(rec, httptest.NewRequest("GET", "/metricsz", nil))
	body := rec.Body.String()
	for _, series := range []string{
		"engarde_gateway_pool_depth",
		"engarde_gateway_pool_checkouts_total",
		"engarde_gateway_pool_snapshot_build_cycles",
		"engarde_gateway_pool_clone_cycles_total",
		"engarde_gateway_pool_checkout_wait_seconds",
	} {
		if !strings.Contains(body, series) {
			t.Errorf("/metricsz missing %s", series)
		}
	}
}

func spanNames(spans []obs.SpanData) []string {
	names := make([]string, len(spans))
	for i, sp := range spans {
		names[i] = sp.Name
	}
	return names
}

// TestGatewayPoolNoCrossSessionResidue: a canary written into session A's
// heap pages must be unreadable in session B, even though B is served by
// the very enclave A used (pool of one; the stats pin that B's enclave was
// scrubbed, not freshly cloned).
func TestGatewayPoolNoCrossSessionResidue(t *testing.T) {
	canary := bytes.Repeat([]byte("POOL-CANARY."), 512)[:sgx.PageSize]
	var session atomic.Int64
	gw, ln, client := testGateway(t, gateway.Config{
		MaxConcurrent: 1,
		EnclavePool:   1,
		OnServed: func(_ net.Conn, encl *engarde.Enclave, _ *engarde.Report, err error) {
			if err != nil || encl == nil {
				return
			}
			// High heap page: untouched by the session's own buffers, so
			// whatever is there is either the pristine snapshot image or a
			// predecessor's leak.
			addr := encl.Core().Layout().HeapBase + 1200*sgx.PageSize
			switch session.Add(1) {
			case 1:
				if err := encl.Core().Enclave().Write(addr, canary); err != nil {
					t.Errorf("writing canary: %v", err)
				}
			case 2:
				got := make([]byte, sgx.PageSize)
				if err := encl.Core().Enclave().Read(addr, got); err != nil {
					t.Errorf("reading canary page: %v", err)
				} else if bytes.Contains(got, []byte("POOL-CANARY")) {
					t.Error("session A's canary is readable in session B")
				}
			}
		},
	})
	waitPoolDepth(t, gw, 1)
	image := buildImage(t, "residue", 983, true)

	if v, err := provisionOnce(t, ln, client, image); err != nil || !v.Compliant {
		t.Fatalf("session A: %+v, %v", v, err)
	}
	// Wait for A's enclave to be scrubbed back in, so B must reuse it.
	waitFor(t, "scrubbed return", func() bool {
		s := gw.Stats()
		return s.Pool.Scrubs == 1 && s.Pool.Depth == 1
	})
	if v, err := provisionOnce(t, ln, client, image); err != nil || !v.Compliant {
		t.Fatalf("session B: %+v, %v", v, err)
	}
	waitFor(t, "both sessions observed", func() bool { return session.Load() == 2 })

	s := gw.Stats()
	if s.Pool.WarmCheckouts != 2 || s.Pool.Clones != 1 {
		t.Errorf("warm=%d clones=%d, want 2/1 — session B did not reuse the scrubbed enclave",
			s.Pool.WarmCheckouts, s.Pool.Clones)
	}
}

// TestGatewayPoolDrainedStillSheds: pooling must not weaken admission
// control — with the pool drained and refill slower than demand, a
// connection beyond capacity still gets the typed busy verdict with the
// configured Retry-After hint, exactly as without a pool.
func TestGatewayPoolDrainedStillSheds(t *testing.T) {
	hint := 15 * time.Millisecond
	gw, ln, client := testGateway(t, gateway.Config{
		MaxConcurrent:  1,
		QueueDepth:     -1, // no waiting room
		RetryAfterHint: hint,
		EnclavePool:    1,
		PoolHooks: &gateway.PoolHooks{
			// Refill slower than demand.
			BeforeClone: func() error { time.Sleep(20 * time.Millisecond); return nil },
		},
	})
	image := buildImage(t, "pool-shed", 984, false)

	// Occupy the only worker (and drain the pool of one): this client never
	// reads the server hello, so the session pins the worker.
	stall, err := ln.Dial()
	if err != nil {
		t.Fatal(err)
	}
	waitFor(t, "stalled session active", func() bool { return gw.Stats().Active == 1 })

	v, err := provisionOnce(t, ln, client, image)
	if err != nil {
		t.Fatalf("shed connection must still complete the protocol: %v", err)
	}
	if v.Compliant || v.Code != engarde.CodeBusy {
		t.Fatalf("shed verdict = %+v, want code %q", v, engarde.CodeBusy)
	}
	if v.RetryAfterMillis != hint.Milliseconds() {
		t.Errorf("Retry-After hint = %dms, want %dms", v.RetryAfterMillis, hint.Milliseconds())
	}

	v, err = client.Provision(stall, image)
	stall.Close()
	if err != nil || !v.Compliant {
		t.Errorf("stalled client after release: %+v, %v", v, err)
	}
	waitFor(t, "session accounted", func() bool { return gw.Stats().Served == 1 })
	if s := gw.Stats(); s.Shed != 1 {
		t.Errorf("shed = %d, want 1", s.Shed)
	}
}

// TestGatewayPoolStatsRace hammers /statsz and /metricsz reads against
// live checkout/return/refill traffic. The assertions are light — the
// point is the race detector seeing concurrent pool mutation and scraping.
func TestGatewayPoolStatsRace(t *testing.T) {
	gw, ln, client := testGateway(t, gateway.Config{
		Policies:      engarde.NewPolicySet(engarde.StackProtectorPolicy()),
		MaxConcurrent: 4,
		DisasmWorkers: 2,
		PolicyWorkers: 2,
		EnclavePool:   2,
	})
	const sessions = 8
	images := make([][]byte, sessions)
	for i := range images {
		images[i] = buildImage(t, "race", 985+int64(i), true)
	}

	stop := make(chan struct{})
	var readers sync.WaitGroup
	for r := 0; r < 3; r++ {
		readers.Add(1)
		go func() {
			defer readers.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				s := gw.Stats()
				if s.Pool == nil {
					t.Error("pool stats vanished mid-run")
					return
				}
				rec := httptest.NewRecorder()
				gw.MetricsHandler().ServeHTTP(rec, httptest.NewRequest("GET", "/metricsz", nil))
				rec = httptest.NewRecorder()
				gw.StatsHandler().ServeHTTP(rec, httptest.NewRequest("GET", "/statsz", nil))
			}
		}()
	}

	var wg sync.WaitGroup
	for i := 0; i < sessions; i++ {
		wg.Add(1)
		go func(image []byte) {
			defer wg.Done()
			if v, err := provisionOnce(t, ln, client, image); err != nil || !v.Compliant {
				t.Errorf("session: %+v, %v", v, err)
			}
		}(images[i])
	}
	wg.Wait()
	close(stop)
	readers.Wait()

	waitFor(t, "sessions accounted", func() bool {
		s := gw.Stats()
		return s.Served == sessions && s.Active == 0
	})
	if s := gw.Stats(); s.Pool.WarmCheckouts+s.Pool.ColdCheckouts != sessions {
		t.Errorf("checkouts warm=%d cold=%d, want %d total",
			s.Pool.WarmCheckouts, s.Pool.ColdCheckouts, sessions)
	}
}

// TestPoolChaosSoak drives the pool through its whole failure surface at
// once: scripted clone failures, enclaves dying mid-refill, scrub
// failures, and tenants whose connections stall, flip bits, and truncate —
// all while healthy tenants provision. Faults may cost availability
// (errors, busy verdicts, cold checkouts) but never verdict integrity;
// afterwards the pool must self-heal to target depth, the device's EPC
// slot balance must return to its pre-gateway value, and no goroutine may
// be left behind. CI's pool-soak job extends it via ENGARDE_SOAK_SECONDS.
func TestPoolChaosSoak(t *testing.T) {
	baseline := runtime.NumGoroutine()
	var chaos atomic.Bool
	chaos.Store(true)
	var cloneN, afterN, scrubN atomic.Uint64
	hooks := &gateway.PoolHooks{
		BeforeClone: func() error {
			if chaos.Load() && cloneN.Add(1)%3 == 0 {
				return errors.New("chaos: injected clone failure")
			}
			return nil
		},
		AfterClone: func(*engarde.Enclave) error {
			if chaos.Load() && afterN.Add(1)%7 == 0 {
				return errors.New("chaos: enclave died mid-refill")
			}
			return nil
		},
		BeforeScrub: func() error {
			if chaos.Load() && scrubN.Add(1)%5 == 0 {
				return errors.New("chaos: injected scrub failure")
			}
			return nil
		},
	}
	const poolTarget = 2
	provider, gw, ln, client := poolGateway(t, gateway.Config{
		Policies:          engarde.NewPolicySet(engarde.StackProtectorPolicy()),
		MaxConcurrent:     4,
		QueueDepth:        4,
		IdleTimeout:       150 * time.Millisecond,
		SessionBudget:     time.Second,
		RetryAfterHint:    2 * time.Millisecond,
		EnclavePool:       poolTarget,
		PoolRefillWorkers: 2,
		PoolHooks:         hooks,
	})
	good := buildImage(t, "pool-soak-good", 971, true)
	bad := buildImage(t, "pool-soak-bad", 972, false)

	const numClients = 8
	var (
		sessions  atomic.Int64
		healthyOK atomic.Uint64
		dropped   atomic.Uint64
		faultedOK atomic.Uint64
		faultedE  atomic.Uint64
	)
	// The chaos phase runs for soakDuration, then on until both the
	// clone-failure and the scrub-failure paths have fired, up to a hard
	// cap: a short soak can end before the fifth scrub, and the assertions
	// below need both paths exercised.
	minEnd := time.Now().Add(soakDuration())
	hardEnd := minEnd.Add(30 * time.Second)
	chaosPhase := func() bool {
		now := time.Now()
		if now.Before(minEnd) {
			return true
		}
		p := gw.Stats().Pool
		return now.Before(hardEnd) && (p.CloneErrors == 0 || p.Discards == 0)
	}
	var wg sync.WaitGroup
	for c := 0; c < numClients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for chaosPhase() {
				id := sessions.Add(1)
				image, wantCompliant := good, true
				if id%2 == 0 {
					image, wantCompliant = bad, false
				}
				if id%4 == 0 {
					// Healthy session: if it completes, the verdict is exact.
					v, err := client.ProvisionRetry(ln.Dial, image, engarde.RetryPolicy{
						Attempts:  8,
						BaseDelay: 2 * time.Millisecond,
						MaxDelay:  20 * time.Millisecond,
						Seed:      id,
					})
					switch {
					case errors.Is(err, engarde.ErrAttestation):
						t.Errorf("healthy session %d: %v", id, err)
					case err != nil:
						dropped.Add(1)
					case v.Compliant != wantCompliant:
						t.Errorf("healthy session %d: verdict %+v, want compliant=%v", id, v, wantCompliant)
					default:
						healthyOK.Add(1)
					}
					continue
				}
				conn, err := ln.Dial()
				if err != nil {
					t.Errorf("session %d: dial: %v", id, err)
					return
				}
				cc := faults.WrapConn(conn, faults.Schedule{
					Seed:         id,
					LatencyProb:  0.05,
					PartialProb:  0.10,
					BitFlipProb:  0.05,
					StallProb:    0.02,
					Stall:        200 * time.Millisecond, // > IdleTimeout
					TruncateProb: 0.05,
					ErrorProb:    0.05,
				})
				v, err := client.Provision(cc, image)
				cc.Close()
				switch {
				case err != nil:
					faultedE.Add(1)
				case v.Code == engarde.CodeBusy:
					dropped.Add(1)
				case v.Compliant != wantCompliant:
					t.Errorf("faulted session %d (seed %d): WRONG verdict %+v, want compliant=%v",
						id, id, v, wantCompliant)
				default:
					faultedOK.Add(1)
				}
			}
		}()
	}
	wg.Wait()

	// Faults off: the pool must self-heal to target depth with no traffic —
	// topUp's delayed re-kick is the only thing driving it now.
	chaos.Store(false)
	waitFor(t, "pool self-heal to target depth", func() bool {
		s := gw.Stats()
		return s.Pool.Depth == poolTarget
	})

	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := gw.Shutdown(ctx); err != nil {
		t.Fatalf("Shutdown under chaos: %v", err)
	}

	s := gw.Stats()
	t.Logf("pool soak: %d sessions (healthy ok=%d dropped=%d; faulted ok=%d err=%d); pool %+v",
		sessions.Load(), healthyOK.Load(), dropped.Load(), faultedOK.Load(), faultedE.Load(), *s.Pool)
	if healthyOK.Load() == 0 {
		t.Error("soak observed no successful healthy session")
	}
	if s.Pool.CloneErrors == 0 {
		t.Error("no clone failures were injected; chaos hooks never bit")
	}
	if s.Pool.Discards == 0 {
		t.Error("no returned enclave was discarded; scrub-failure path never exercised")
	}
	if s.Active != 0 {
		t.Errorf("active = %d after shutdown", s.Active)
	}
	if s.Served != s.Compliant+s.NonCompliant+s.Errors {
		t.Errorf("served=%d != compliant=%d + nonCompliant=%d + errors=%d",
			s.Served, s.Compliant, s.NonCompliant, s.Errors)
	}
	if s.Accepted != s.Served {
		t.Errorf("accepted=%d != served=%d: admitted connection lost without service", s.Accepted, s.Served)
	}
	// EPC slot balance: with the pool closed and every session torn down,
	// only the provider's own quoting enclave still holds pages.
	held := 16384 - provider.Device().EPCFree() // poolGateway's EPCPages
	if perEnclave := 16 + testHeapPages + testClientPages; held >= perEnclave {
		t.Errorf("EPC leak: %d pages still held after shutdown (≥ one %d-page enclave)", held, perEnclave)
	}
	waitGoroutines(t, baseline)
}
