package gateway_test

import (
	"bytes"
	"context"
	"encoding/binary"
	"io"
	"net"
	"sync"
	"testing"
	"time"

	"engarde"
	"engarde/internal/cycles"
	"engarde/internal/elf64"
	"engarde/internal/gateway"
	"engarde/internal/sgx"
	"engarde/internal/toolchain"
)

// pipeListener is an in-memory net.Listener over net.Pipe, so the gateway
// is exercised end-to-end without touching real sockets.
type pipeListener struct {
	conns chan net.Conn
	done  chan struct{}
	once  sync.Once
}

func newPipeListener() *pipeListener {
	return &pipeListener{conns: make(chan net.Conn), done: make(chan struct{})}
}

func (l *pipeListener) Accept() (net.Conn, error) {
	select {
	case c := <-l.conns:
		return c, nil
	case <-l.done:
		return nil, net.ErrClosed
	}
}

func (l *pipeListener) Close() error {
	l.once.Do(func() { close(l.done) })
	return nil
}

type pipeAddr struct{}

func (pipeAddr) Network() string { return "pipe" }
func (pipeAddr) String() string  { return "pipe" }

func (l *pipeListener) Addr() net.Addr { return pipeAddr{} }

// Dial hands the server side to the accept loop and returns the client side.
func (l *pipeListener) Dial() (net.Conn, error) {
	cli, srv := net.Pipe()
	select {
	case l.conns <- srv:
		return cli, nil
	case <-l.done:
		cli.Close()
		return nil, net.ErrClosed
	}
}

// slowConn delays the first read, pinning its session in flight long
// enough for shutdown tests to observe it.
type slowConn struct {
	net.Conn
	delay time.Duration
	once  sync.Once
}

func (c *slowConn) Read(b []byte) (int, error) {
	c.once.Do(func() { time.Sleep(c.delay) })
	return c.Conn.Read(b)
}

const (
	testHeapPages   = 1500
	testClientPages = 512
)

func buildImage(t testing.TB, name string, seed int64, stackProtected bool) []byte {
	t.Helper()
	bin, err := toolchain.Build(toolchain.Config{
		Name: name, Seed: seed, NumFuncs: 6, AvgFuncInsts: 40,
		StackProtector: stackProtected,
	})
	if err != nil {
		t.Fatal(err)
	}
	return bin.Image
}

// testEPCPages sizes every test provider's EPC.
const testEPCPages = 16384

// testProvider builds a provider with its own cycle counter. A test that
// audits the device's EPC balance builds one itself and hands it to
// testGateway through Config.Provider.
func testProvider(t testing.TB) *engarde.Provider {
	t.Helper()
	counter := cycles.NewCounter(cycles.DefaultModel())
	provider, err := engarde.NewProvider(engarde.ProviderConfig{EPCPages: testEPCPages, Counter: counter})
	if err != nil {
		t.Fatal(err)
	}
	return provider
}

// testGateway assembles a gateway and a client template, on cfg.Provider
// when set and on a fresh testProvider otherwise.
func testGateway(t testing.TB, cfg gateway.Config) (*gateway.Gateway, *pipeListener, *engarde.Client) {
	t.Helper()
	if cfg.Provider == nil {
		cfg.Provider = testProvider(t)
	}
	provider := cfg.Provider
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
	return gw, ln, &engarde.Client{Expected: expected, PlatformKey: provider.AttestationPublicKey()}
}

// waitFor polls cond until it holds; the client side of a session can
// finish a beat before the serving worker updates its stats.
func waitFor(t testing.TB, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

func provisionOnce(t testing.TB, ln *pipeListener, client *engarde.Client, image []byte) (engarde.Verdict, error) {
	t.Helper()
	conn, err := ln.Dial()
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	return client.Provision(conn, image)
}

// TestGatewayConcurrentProvisioning drives N parallel tenants through the
// gateway: verdict correctness for compliant and violating images, exact
// cache-hit accounting, and per-phase cycle totals in the stats snapshot.
func TestGatewayConcurrentProvisioning(t *testing.T) {
	var mu sync.Mutex
	var reports []*engarde.Report
	gw, ln, client := testGateway(t, gateway.Config{
		Policies:      engarde.NewPolicySet(engarde.StackProtectorPolicy()),
		MaxConcurrent: 4,
		OnServed: func(_ net.Conn, _ *engarde.Enclave, rep *engarde.Report, err error) {
			mu.Lock()
			defer mu.Unlock()
			if err == nil {
				reports = append(reports, rep)
			}
		},
	})
	good := buildImage(t, "good", 91, true)
	bad := buildImage(t, "bad", 92, false) // no stack protector → rejected

	// Sequential warm-up: one cold provision per image populates the cache.
	if v, err := provisionOnce(t, ln, client, good); err != nil || !v.Compliant {
		t.Fatalf("warm-up good: %+v, %v", v, err)
	}
	if v, err := provisionOnce(t, ln, client, bad); err != nil || v.Compliant || v.Code != engarde.CodePolicy {
		t.Fatalf("warm-up bad: %+v, %v", v, err)
	}
	if s := gw.Stats(); s.CacheMisses != 2 || s.CacheHits != 0 {
		t.Fatalf("after warm-up: hits=%d misses=%d, want 0/2", s.CacheHits, s.CacheMisses)
	}

	// Parallel phase: every provision is now byte-identical to a cached
	// one, so all must be served from the verdict cache.
	const goodClients, badClients = 5, 3
	var wg sync.WaitGroup
	errs := make(chan error, goodClients+badClients)
	for i := 0; i < goodClients+badClients; i++ {
		image, wantCompliant := good, true
		if i >= goodClients {
			image, wantCompliant = bad, false
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			v, err := provisionOnce(t, ln, client, image)
			if err != nil {
				errs <- err
				return
			}
			if v.Compliant != wantCompliant {
				t.Errorf("verdict compliant=%v, want %v (reason %q)", v.Compliant, wantCompliant, v.Reason)
			}
			if !wantCompliant && v.Code != engarde.CodePolicy {
				t.Errorf("rejection code = %q, want %q", v.Code, engarde.CodePolicy)
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Errorf("client: %v", err)
	}
	waitFor(t, "all sessions accounted", func() bool {
		s := gw.Stats()
		mu.Lock()
		got := len(reports)
		mu.Unlock()
		return s.Served == 2+goodClients+badClients && s.Active == 0 && got == 2+goodClients+badClients
	})

	s := gw.Stats()
	if s.CacheHits != goodClients+badClients || s.CacheMisses != 2 {
		t.Errorf("cache: hits=%d misses=%d, want %d/2", s.CacheHits, s.CacheMisses, goodClients+badClients)
	}
	if s.Served != 2+goodClients+badClients || s.Errors != 0 {
		t.Errorf("served=%d errors=%d, want %d/0", s.Served, s.Errors, 2+goodClients+badClients)
	}
	if s.Compliant != 1+goodClients || s.NonCompliant != 1+badClients {
		t.Errorf("compliant=%d nonCompliant=%d", s.Compliant, s.NonCompliant)
	}
	if s.Latency.Count != s.Served {
		t.Errorf("latency count = %d, want %d", s.Latency.Count, s.Served)
	}
	if s.PhaseCycles["Policy Checking"] == 0 || s.PhaseCycles["Disassembly"] == 0 {
		t.Errorf("phase cycles missing: %v", s.PhaseCycles)
	}

	// Reports on the hit path must say so, and compliant hits must still
	// be fully loaded (real entry point).
	mu.Lock()
	defer mu.Unlock()
	var hits uint64
	for _, rep := range reports {
		if rep.CacheHit {
			hits++
			if rep.Compliant && rep.Entry == 0 {
				t.Error("compliant cache hit without a loaded entry point")
			}
		}
	}
	if hits != goodClients+badClients {
		t.Errorf("reports with CacheHit: %d, want %d", hits, goodClients+badClients)
	}
}

// TestGatewayMixedWorkloadParallel drives compliant, policy-violating and
// malformed images through the gateway at the same time. Every image is
// distinct, so every session is a cold provision and the pipelines of
// different sessions genuinely overlap — the configuration the race
// detector needs to see. Each class must keep its verdict.
func TestGatewayMixedWorkloadParallel(t *testing.T) {
	gw, ln, client := testGateway(t, gateway.Config{
		Policies:      engarde.NewPolicySet(engarde.StackProtectorPolicy()),
		MaxConcurrent: 4,
	})

	const perClass = 3
	type job struct {
		image    []byte
		wantCode engarde.ReasonCode
	}
	var jobs []job
	for i := 0; i < perClass; i++ {
		jobs = append(jobs,
			job{buildImage(t, "mix-good", 9500+int64(i), true), engarde.CodeOK},
			job{buildImage(t, "mix-bad", 9600+int64(i), false), engarde.CodePolicy},
		)
		// Malformed: a valid image with its ELF magic destroyed — rejected
		// at header verification, before disassembly.
		garbage := buildImage(t, "mix-ugly", 9700+int64(i), true)
		garbage[0] ^= 0xFF
		jobs = append(jobs, job{garbage, engarde.CodeRejected})
	}

	var wg sync.WaitGroup
	for i, j := range jobs {
		wg.Add(1)
		go func(i int, j job) {
			defer wg.Done()
			v, err := provisionOnce(t, ln, client, j.image)
			if err != nil {
				t.Errorf("job %d: %v", i, err)
				return
			}
			if v.Compliant != (j.wantCode == engarde.CodeOK) || v.Code != j.wantCode {
				t.Errorf("job %d: verdict (%v, %q), want code %q (reason %q)",
					i, v.Compliant, v.Code, j.wantCode, v.Reason)
			}
		}(i, j)
	}
	wg.Wait()

	waitFor(t, "all sessions accounted", func() bool {
		s := gw.Stats()
		return s.Served == uint64(len(jobs)) && s.Active == 0
	})
	s := gw.Stats()
	if s.Compliant != perClass || s.NonCompliant != 2*perClass {
		t.Errorf("compliant=%d nonCompliant=%d, want %d/%d", s.Compliant, s.NonCompliant, perClass, 2*perClass)
	}
	if s.CacheHits != 0 {
		t.Errorf("cache hits = %d, want 0 (all images distinct)", s.CacheHits)
	}
}

// TestGatewayShutdownDrainsInFlight: a session admitted before Shutdown is
// served to completion; afterwards the listener is closed and Serve
// returns cleanly.
func TestGatewayShutdownDrainsInFlight(t *testing.T) {
	gw, ln, client := testGateway(t, gateway.Config{MaxConcurrent: 2})
	image := buildImage(t, "drain", 93, false)

	verdicts := make(chan engarde.Verdict, 1)
	clientErr := make(chan error, 1)
	go func() {
		conn, err := ln.Dial()
		if err != nil {
			clientErr <- err
			return
		}
		defer conn.Close()
		// The slow first read keeps the session in flight while Shutdown
		// starts.
		v, err := client.Provision(&slowConn{Conn: conn, delay: 500 * time.Millisecond}, image)
		verdicts <- v
		clientErr <- err
	}()

	// Wait until the session is in flight.
	deadline := time.Now().Add(10 * time.Second)
	for gw.Stats().Active == 0 {
		if time.Now().After(deadline) {
			t.Fatal("session never became active")
		}
		time.Sleep(5 * time.Millisecond)
	}

	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := gw.Shutdown(ctx); err != nil {
		t.Fatalf("Shutdown: %v", err)
	}
	if err := <-clientErr; err != nil {
		t.Fatalf("in-flight client failed: %v", err)
	}
	if v := <-verdicts; !v.Compliant {
		t.Errorf("in-flight client verdict: %+v", v)
	}
	if _, err := ln.Dial(); err == nil {
		t.Error("dial after shutdown must fail")
	}
	if s := gw.Stats(); s.Active != 0 || s.Served != 1 {
		t.Errorf("after shutdown: active=%d served=%d", s.Active, s.Served)
	}
}

// TestGatewayBackpressure: with a single worker and no queue, a second
// concurrent connection is shed at admission with a typed busy verdict
// carrying the configured Retry-After hint — never silently closed, never
// queued.
func TestGatewayBackpressure(t *testing.T) {
	hint := 15 * time.Millisecond
	gw, ln, client := testGateway(t, gateway.Config{
		MaxConcurrent:  1,
		QueueDepth:     -1, // no waiting room
		RetryAfterHint: hint,
	})
	image := buildImage(t, "bp", 94, false)

	// Occupy the only worker: the gateway blocks writing hello because
	// this client never reads. (net.Pipe is fully synchronous.)
	stall, err := ln.Dial()
	if err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(10 * time.Second)
	for gw.Stats().Active == 0 {
		if time.Now().After(deadline) {
			t.Fatal("stalled session never became active")
		}
		time.Sleep(5 * time.Millisecond)
	}

	// The next tenant must be turned away with a busy verdict.
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
	waitFor(t, "shed counted", func() bool { return gw.Stats().Shed == 1 })

	// Release the worker; the stalled tenant completes normally.
	v, err = client.Provision(stall, image)
	stall.Close()
	if err != nil || !v.Compliant {
		t.Errorf("stalled client after release: %+v, %v", v, err)
	}
	waitFor(t, "stalled session accounted", func() bool { return gw.Stats().Served == 1 })
	if s := gw.Stats(); s.Shed != 1 || s.Rejected != 0 || s.Accepted != 1 {
		t.Errorf("accepted=%d shed=%d rejected=%d, want 1/1/0", s.Accepted, s.Shed, s.Rejected)
	}
}

// TestGatewayPoolDrainedStillSheds: while the only worker is held, the
// device's pool of free EPC pages does not move for a shed connection.
// Admission runs before any enclave is cloned, so a tenant turned away
// with a busy verdict never draws EPC.
func TestGatewayPoolDrainedStillSheds(t *testing.T) {
	hint := 15 * time.Millisecond
	provider := testProvider(t)
	gw, ln, client := testGateway(t, gateway.Config{
		Provider:       provider,
		MaxConcurrent:  1,
		QueueDepth:     -1, // no waiting room
		RetryAfterHint: hint,
	})
	image := buildImage(t, "pool-shed", 984, false)
	dev := provider.Device()

	// Occupy the only worker: this client reads one byte of the server
	// hello and stops, so the session pins the worker with its enclave
	// already cloned (the hello is written after the clone) and its EPC
	// draw settled.
	stall, err := ln.Dial()
	if err != nil {
		t.Fatal(err)
	}
	var first [1]byte
	if _, err := io.ReadFull(stall, first[:]); err != nil {
		t.Fatalf("reading the stalled session's hello: %v", err)
	}
	waitFor(t, "stalled session active", func() bool { return gw.Stats().Active == 1 })

	before := dev.EPCFree()
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
	waitFor(t, "shed counted", func() bool { return gw.Stats().Shed == 1 })
	if after := dev.EPCFree(); after != before {
		t.Errorf("shed connection moved the EPC free pool: %d free before, %d after", before, after)
	}

	resumed := struct {
		io.Reader
		io.Writer
	}{io.MultiReader(bytes.NewReader(first[:]), stall), stall}
	v, err = client.Provision(resumed, image)
	stall.Close()
	if err != nil || !v.Compliant {
		t.Errorf("stalled client after release: %+v, %v", v, err)
	}
	waitFor(t, "session accounted", func() bool { return gw.Stats().Served == 1 })
	if s := gw.Stats(); s.Shed != 1 {
		t.Errorf("shed = %d, want 1", s.Shed)
	}
}

// TestGatewayRetryAfterShed: ProvisionRetry turns a shed connection into a
// served one once capacity frees up, honoring the Retry-After hint.
func TestGatewayRetryAfterShed(t *testing.T) {
	gw, ln, client := testGateway(t, gateway.Config{
		MaxConcurrent:  1,
		QueueDepth:     -1,
		RetryAfterHint: 10 * time.Millisecond,
	})
	image := buildImage(t, "retry", 95, false)

	stall, err := ln.Dial()
	if err != nil {
		t.Fatal(err)
	}
	waitFor(t, "stalled session active", func() bool { return gw.Stats().Active == 1 })

	done := make(chan struct{})
	go func() {
		defer close(done)
		// Generous attempt budget: under -race the stalled session's
		// provision (which frees the worker) can take a couple of seconds,
		// and the retrier must still be alive when it does.
		v, err := client.ProvisionRetry(ln.Dial, image, engarde.RetryPolicy{
			Attempts:  100,
			BaseDelay: 5 * time.Millisecond,
			MaxDelay:  50 * time.Millisecond,
			Seed:      1,
		})
		if err != nil || !v.Compliant {
			t.Errorf("retrying client: %+v, %v", v, err)
		}
	}()

	// Let it get shed at least once, then free the worker.
	waitFor(t, "first shed", func() bool { return gw.Stats().Shed >= 1 })
	v, err := client.Provision(stall, image)
	stall.Close()
	if err != nil || !v.Compliant {
		t.Fatalf("stalled client: %+v, %v", v, err)
	}
	select {
	case <-done:
	case <-time.After(30 * time.Second):
		t.Fatal("retrying client never completed")
	}
}

// TestGatewayRejectsRelocationIntoText drives a binary whose first RELA
// entry targets .text through the gateway. Its code passes every policy,
// but the relocation would rewrite checked bytes at load time, so the
// verdict must be CodeRejected, and a repeat of the same image must never
// come back as a compliant cache hit.
func TestGatewayRejectsRelocationIntoText(t *testing.T) {
	bin, err := toolchain.Build(toolchain.Config{
		Name: "reloc-into-text", Seed: 61, NumFuncs: 6, AvgFuncInsts: 40,
		StackProtector: true, NumDataRelocs: 4,
	})
	if err != nil {
		t.Fatal(err)
	}
	f, err := elf64.Parse(bin.Image)
	if err != nil {
		t.Fatal(err)
	}
	rela := f.Section(".rela.dyn")
	if rela == nil || rela.Size < elf64.RelaSize {
		t.Fatal("binary has no relocation entries")
	}
	image := append([]byte(nil), bin.Image...)
	binary.LittleEndian.PutUint64(image[rela.Off:], f.Section(".text").Addr)

	gw, ln, client := testGateway(t, gateway.Config{})
	for attempt := 1; attempt <= 2; attempt++ {
		v, err := provisionOnce(t, ln, client, image)
		if err != nil {
			t.Fatalf("attempt %d: %v", attempt, err)
		}
		if v.Compliant || v.Code != engarde.CodeRejected {
			t.Fatalf("attempt %d: verdict %+v, want %s", attempt, v, engarde.CodeRejected)
		}
	}
	waitFor(t, "two sessions served", func() bool { return gw.Stats().Served == 2 })
	if s := gw.Stats(); s.Compliant != 0 {
		t.Errorf("stats count %d compliant sessions, want 0", s.Compliant)
	}
}

// TestGatewayNoCrossSessionResidue: a canary that session A writes into a
// high heap page must be unreadable in session B, even when B's enclave
// is backed by the very EPC slot that held it. Destroy frees A's slots
// without zeroing them, and the device's free list is LIFO, so B's clone
// re-takes A's slots; the test asserts that B holds the canary's slot, so
// it cannot pass without exercising the reuse.
func TestGatewayNoCrossSessionResidue(t *testing.T) {
	canary := bytes.Repeat([]byte("SLOT-CANARY."), 512)[:sgx.PageSize]
	var (
		session    int
		canarySlot int
		reused     bool
	)
	observed := make(chan struct{}, 2)
	_, ln, client := testGateway(t, gateway.Config{
		MaxConcurrent: 1,
		OnServed: func(_ net.Conn, encl *engarde.Enclave, _ *engarde.Report, err error) {
			defer func() { observed <- struct{}{} }()
			if err != nil || encl == nil {
				t.Errorf("session %d: %v", session+1, err)
				return
			}
			e := encl.Core().Enclave()
			session++
			switch session {
			case 1:
				// High heap page: untouched by the session's own buffers.
				addr := encl.Core().Layout().HeapBase + 1200*sgx.PageSize
				if err := e.Write(addr, canary); err != nil {
					t.Errorf("writing canary: %v", err)
				}
				canarySlot, _ = e.PageSlot(addr)
			case 2:
				for _, va := range e.MappedPages() {
					if slot, _ := e.PageSlot(va); slot != canarySlot {
						continue
					}
					reused = true
					got := make([]byte, sgx.PageSize)
					if err := e.Read(va, got); err != nil {
						t.Errorf("reading page %#x: %v", va, err)
					} else if bytes.Contains(got, []byte("SLOT-CANARY")) {
						t.Errorf("session A's canary is readable in session B at %#x", va)
					}
				}
			}
		},
	})
	image := buildImage(t, "residue", 983, true)
	for _, name := range []string{"A", "B"} {
		if v, err := provisionOnce(t, ln, client, image); err != nil || !v.Compliant {
			t.Fatalf("session %s: %+v, %v", name, v, err)
		}
	}
	<-observed
	<-observed
	if !reused {
		t.Errorf("session B does not hold the canary's EPC slot %d; the test exercised no reuse", canarySlot)
	}
}
