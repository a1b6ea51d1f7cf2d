package cluster

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"log/slog"
	"net"
	"net/http"
	"net/http/httptest"
	"strconv"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"engarde"
	"engarde/internal/secchan"
)

// busyBackend is a fake saturated gatewayd: every connection is shed with
// a Busy hello carrying the given Retry-After hint.
func busyBackend(t *testing.T, hint time.Duration) string {
	t.Helper()
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { l.Close() })
	go func() {
		for {
			conn, err := l.Accept()
			if err != nil {
				return
			}
			go func() {
				defer conn.Close()
				_ = engarde.SendBusy(conn, hint)
			}()
		}
	}()
	return l.Addr().String()
}

// echoBackend is a fake healthy gatewayd: it sends a non-busy hello frame
// and then echoes whatever arrives, so tests can see bytes flow both ways.
func echoBackend(t *testing.T) string {
	t.Helper()
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { l.Close() })
	go func() {
		for {
			conn, err := l.Accept()
			if err != nil {
				return
			}
			go func() {
				defer conn.Close()
				_ = secchan.WriteBlock(conn, []byte(`{"quote":{},"public_key_der":"aGk="}`))
				for {
					b, err := secchan.ReadBlock(conn)
					if err != nil {
						return
					}
					if err := secchan.WriteBlock(conn, b); err != nil {
						return
					}
				}
			}()
		}
	}()
	return l.Addr().String()
}

// startRouter serves cfg on a loopback listener and returns its address.
func startRouter(t *testing.T, cfg RouterConfig) (*Router, string) {
	t.Helper()
	if cfg.HealthInterval == 0 {
		cfg.HealthInterval = -1 // no background prober unless the test wants it
	}
	r, err := NewRouter(cfg)
	if err != nil {
		t.Fatal(err)
	}
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		_ = r.Serve(context.Background(), l)
	}()
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		_ = r.Shutdown(ctx)
		<-done
	})
	return r, l.Addr().String()
}

// TestRouterForwardsBackendRetryAfterHint is the RetryAfterHint
// propagation regression test: when every backend sheds with its own
// hint, the router's busy verdict must carry that hint — not the router's
// default — all the way through engarde.ProvisionRetry's backoff floor.
func TestRouterForwardsBackendRetryAfterHint(t *testing.T) {
	const backendHint = 1234 * time.Millisecond
	const routerDefault = 10 * time.Millisecond
	addr := busyBackend(t, backendHint)
	_, raddr := startRouter(t, RouterConfig{
		Backends:       []Backend{{Name: "gw0", Addr: addr}},
		RetryAfterHint: routerDefault, // must NOT reach the client
		PeekTimeout:    50 * time.Millisecond,
	})

	var delays []time.Duration
	client := &engarde.Client{Route: &engarde.RouteHello{ImageDigest: "deadbeef"}}
	_, err := client.ProvisionRetry(
		func() (net.Conn, error) { return net.Dial("tcp", raddr) },
		[]byte("img"),
		engarde.RetryPolicy{
			Attempts:  2,
			BaseDelay: time.Millisecond, // jitter ceiling far below the hint
			MaxDelay:  2 * time.Millisecond,
			Seed:      1,
			Sleep:     func(time.Duration) {},
			OnRetry:   func(_ int, d time.Duration, _ error) { delays = append(delays, d) },
		})
	if err == nil {
		t.Fatal("ProvisionRetry against an all-busy fleet must fail busy")
	}
	if len(delays) != 1 {
		t.Fatalf("delays = %v, want exactly one retry", delays)
	}
	// The backoff floor is the server hint: with a 2ms jitter ceiling, a
	// 1234ms delay can only have come from the backend's hint surviving
	// the router.
	if delays[0] != backendHint {
		t.Fatalf("retry delay = %v, want the backend hint %v (router default %v must not substitute)",
			delays[0], backendHint, routerDefault)
	}
}

func TestRouterProxiesSessionWithPreamble(t *testing.T) {
	addr := echoBackend(t)
	r, raddr := startRouter(t, RouterConfig{
		Backends:    []Backend{{Name: "gw0", Addr: addr}},
		PeekTimeout: time.Second,
	})

	conn, err := net.Dial("tcp", raddr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	// Client side by hand: preamble, then read hello, then echo round-trip.
	pre := []byte(`{"proto":"engarde-route/1","image_digest":"abcd"}`)
	if err := secchan.WriteBlock(conn, pre); err != nil {
		t.Fatal(err)
	}
	hello, err := secchan.ReadBlock(conn)
	if err != nil {
		t.Fatal(err)
	}
	if string(hello) != `{"quote":{},"public_key_der":"aGk="}` {
		t.Fatalf("hello = %q", hello)
	}
	// The preamble must have been stripped: the first thing the backend
	// echoes back is our payload, not the RouteHello.
	if err := secchan.WriteBlock(conn, []byte("payload")); err != nil {
		t.Fatal(err)
	}
	echoed, err := secchan.ReadBlock(conn)
	if err != nil {
		t.Fatal(err)
	}
	if string(echoed) != "payload" {
		t.Fatalf("echo = %q, want %q (preamble must not reach the backend)", echoed, "payload")
	}
	conn.Close()

	deadline := time.Now().Add(2 * time.Second)
	for {
		st := r.Stats()
		if st.Backends["gw0"].Sessions == 1 && st.Announced == 1 && st.Affine == 1 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("stats = %+v, want 1 session, announced and affine", st)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

func TestRouterAnonymousSessionFallsBack(t *testing.T) {
	addr := echoBackend(t)
	r, raddr := startRouter(t, RouterConfig{
		Backends:    []Backend{{Name: "gw0", Addr: addr}},
		PeekTimeout: 50 * time.Millisecond,
	})

	// No preamble at all: the peek times out and the session still routes
	// (least-loaded), with the stream passed through untouched.
	conn, err := net.Dial("tcp", raddr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	hello, err := secchan.ReadBlock(conn)
	if err != nil {
		t.Fatal(err)
	}
	if len(hello) == 0 {
		t.Fatal("empty hello")
	}
	if err := secchan.WriteBlock(conn, []byte("anon")); err != nil {
		t.Fatal(err)
	}
	if echoed, err := secchan.ReadBlock(conn); err != nil || string(echoed) != "anon" {
		t.Fatalf("echo = %q, %v", echoed, err)
	}
	conn.Close()

	deadline := time.Now().Add(2 * time.Second)
	for {
		st := r.Stats()
		if st.Backends["gw0"].Sessions == 1 {
			if st.Announced != 0 {
				t.Fatalf("stats = %+v: anonymous session must not count as announced", st)
			}
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("stats = %+v, want 1 proxied session", st)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

func TestRouterFailsOverFromDeadOwner(t *testing.T) {
	live := echoBackend(t)
	// A dead address: listener closed immediately.
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	deadAddr := l.Addr().String()
	l.Close()

	// Find a digest whose ring owner is the dead backend, so the session
	// must rebalance to the live one.
	ring := ringWith(64, "dead", "live")
	digest := ""
	for _, d := range sampleDigests(100) {
		if owner, _ := ring.Owner(d); owner == "dead" {
			digest = d
			break
		}
	}
	if digest == "" {
		t.Fatal("no digest owned by dead backend in sample")
	}

	var logs lockedBuffer
	r, raddr := startRouter(t, RouterConfig{
		Backends: []Backend{
			{Name: "dead", Addr: deadAddr},
			{Name: "live", Addr: live},
		},
		PeekTimeout: time.Second,
		DialTimeout: 500 * time.Millisecond,
		Logger:      slog.New(slog.NewJSONHandler(&logs, &slog.HandlerOptions{Level: slog.LevelDebug})),
	})

	conn, err := net.Dial("tcp", raddr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if err := secchan.WriteBlock(conn, []byte(`{"proto":"engarde-route/1","image_digest":"`+digest+`"}`)); err != nil {
		t.Fatal(err)
	}
	if _, err := secchan.ReadBlock(conn); err != nil {
		t.Fatalf("no hello after failover: %v", err)
	}
	conn.Close()

	deadline := time.Now().Add(2 * time.Second)
	for {
		st := r.Stats()
		if st.Backends["live"].Sessions == 1 {
			if st.Rebalances != 1 {
				t.Fatalf("stats = %+v, want 1 rebalance", st)
			}
			if st.Backends["dead"].Errors == 0 {
				t.Fatalf("stats = %+v, want dial errors on dead backend", st)
			}
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("stats = %+v, want the session on live", st)
		}
		time.Sleep(5 * time.Millisecond)
	}

	// The one failed dial is one structured record naming the dead backend.
	var named []map[string]any
	sc := bufio.NewScanner(bytes.NewReader(logs.Bytes()))
	for sc.Scan() {
		var rec map[string]any
		if err := json.Unmarshal(sc.Bytes(), &rec); err != nil {
			t.Fatalf("log line %q: %v", sc.Text(), err)
		}
		if rec["backend"] == "dead" {
			named = append(named, rec)
		}
	}
	if len(named) != 1 || named[0]["msg"] != "router: dial failed" || named[0]["addr"] != deadAddr {
		t.Fatalf("records naming the dead backend = %v, want one dial failure", named)
	}
}

// lockedBuffer is a log sink the router's goroutines may write while the
// test reads it.
type lockedBuffer struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (b *lockedBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Write(p)
}

func (b *lockedBuffer) Bytes() []byte {
	b.mu.Lock()
	defer b.mu.Unlock()
	return append([]byte(nil), b.buf.Bytes()...)
}

func TestRouterQuotaSheds(t *testing.T) {
	addr := echoBackend(t)
	_, raddr := startRouter(t, RouterConfig{
		Backends:    []Backend{{Name: "gw0", Addr: addr}},
		PeekTimeout: time.Second,
		Quota:       QuotaConfig{Rate: 0.001, Burst: 1}, // 1 session, then a long wait
	})

	provision := func() (engarde.Verdict, error) {
		conn, err := net.Dial("tcp", raddr)
		if err != nil {
			return engarde.Verdict{}, err
		}
		defer conn.Close()
		if err := secchan.WriteBlock(conn, []byte(`{"proto":"engarde-route/1","image_digest":"d1","tenant":"acme"}`)); err != nil {
			return engarde.Verdict{}, err
		}
		frame, err := secchan.ReadBlock(conn)
		if err != nil {
			return engarde.Verdict{}, err
		}
		if v, busy := engarde.PeekBusy(frame); busy {
			return v, nil
		}
		return engarde.Verdict{Compliant: true}, nil
	}

	if v, err := provision(); err != nil || !v.Compliant {
		t.Fatalf("first session: %+v, %v", v, err)
	}
	v, err := provision()
	if err != nil {
		t.Fatal(err)
	}
	if v.Code != engarde.CodeBusy {
		t.Fatalf("second session verdict = %+v, want quota busy", v)
	}
	if v.RetryAfterMillis <= 0 {
		t.Fatalf("quota shed carries no wait hint: %+v", v)
	}
}

func TestRouterDeadlineShedsSaturated(t *testing.T) {
	const hint = 30 * time.Second
	addr := busyBackend(t, hint)
	r, raddr := startRouter(t, RouterConfig{
		Backends:    []Backend{{Name: "gw0", Addr: addr}},
		PeekTimeout: time.Second,
	})

	dial := func(deadlineMillis int64) engarde.Verdict {
		t.Helper()
		conn, err := net.Dial("tcp", raddr)
		if err != nil {
			t.Fatal(err)
		}
		defer conn.Close()
		rh := `{"proto":"engarde-route/1","image_digest":"d2","deadline_ms":` +
			strconv.FormatInt(deadlineMillis, 10) + `}`
		if err := secchan.WriteBlock(conn, []byte(rh)); err != nil {
			t.Fatal(err)
		}
		frame, err := secchan.ReadBlock(conn)
		if err != nil {
			t.Fatal(err)
		}
		v, busy := engarde.PeekBusy(frame)
		if !busy {
			t.Fatal("expected a busy verdict")
		}
		return v
	}

	// First session: router learns the backend is saturated for 30s.
	if v := dial(60_000); time.Duration(v.RetryAfterMillis)*time.Millisecond != hint {
		t.Fatalf("first shed hint = %dms, want %v", v.RetryAfterMillis, hint)
	}
	// Second session with a 1s deadline: the router sheds without dialing
	// — the deadline cannot outlast the saturation horizon.
	before := r.Stats().Sheds[ShedDeadline]
	if v := dial(1000); v.RetryAfterMillis <= 0 {
		t.Fatalf("deadline shed carries no hint: %+v", v)
	}
	if after := r.Stats().Sheds[ShedDeadline]; after != before+1 {
		t.Fatalf("deadline sheds %d → %d, want +1", before, after)
	}
}

func TestRouterReadyz(t *testing.T) {
	addr := echoBackend(t)
	r, err := NewRouter(RouterConfig{
		Backends:       []Backend{{Name: "gw0", Addr: addr}},
		HealthInterval: -1,
	})
	if err != nil {
		t.Fatal(err)
	}
	get := func(h http.Handler) int {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest("GET", "/", nil))
		return rec.Code
	}
	if c := get(r.ReadyzHandler()); c != http.StatusServiceUnavailable {
		t.Errorf("readyz before Serve = %d, want 503", c)
	}
	if c := get(r.HealthzHandler()); c != http.StatusOK {
		t.Errorf("healthz = %d, want 200", c)
	}
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan struct{})
	go func() { defer close(done); _ = r.Serve(context.Background(), l) }()
	deadline := time.Now().Add(2 * time.Second)
	for get(r.ReadyzHandler()) != http.StatusOK {
		if time.Now().After(deadline) {
			t.Fatal("readyz never became 200 while serving")
		}
		time.Sleep(time.Millisecond)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := r.Shutdown(ctx); err != nil {
		t.Fatal(err)
	}
	<-done
	if c := get(r.ReadyzHandler()); c != http.StatusServiceUnavailable {
		t.Errorf("readyz after drain = %d, want 503", c)
	}
}

func TestRouterHealthProberMarksDown(t *testing.T) {
	// An admin endpoint that reports not-ready.
	notReady := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		http.Error(w, "draining", http.StatusServiceUnavailable)
	}))
	defer notReady.Close()
	var probes atomic.Int64
	ready := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		probes.Add(1)
		w.WriteHeader(http.StatusOK)
	}))
	defer ready.Close()

	live := echoBackend(t)
	r, _ := startRouter(t, RouterConfig{
		Backends: []Backend{
			{Name: "sick", Addr: live, AdminURL: notReady.URL},
			{Name: "fine", Addr: live, AdminURL: ready.URL},
		},
		HealthInterval:   10 * time.Millisecond,
		MarkdownCooldown: time.Hour, // only probes can bring it back
	})

	deadline := time.Now().Add(2 * time.Second)
	for r.health.Healthy("sick") || probes.Load() == 0 {
		if time.Now().After(deadline) {
			t.Fatalf("prober never marked sick down (healthy=%v probes=%d)",
				r.health.Healthy("sick"), probes.Load())
		}
		time.Sleep(5 * time.Millisecond)
	}
	if !r.health.Healthy("fine") {
		t.Error("fine backend must stay healthy")
	}
}
