package bench

// Fleet observability tests: the tracing acceptance criteria (one trace ID
// across client, router, and gateway span output; one trace spanning a
// mid-stream failover's kill/replay seam) and the race-enabled hammer that
// scrapes /fleetz and pprof while ChaosFleet crashes and restarts backends
// underneath the aggregator.

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"io"
	"net"
	"net/http"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"engarde"
	"engarde/internal/cluster"
	"engarde/internal/obs"
	"engarde/internal/obs/fleet"
)

// sinksWithTrace polls every sink in one loop until each sink indexed by
// need has recorded a trace with the given ID, or 5 s pass, and reports
// which sinks hold it. The router and gateways record their traces at
// session teardown, which races the client's verdict receipt by design.
func sinksWithTrace(id string, sinks []*obs.Sink, need ...int) []bool {
	has := make([]bool, len(sinks))
	deadline := time.Now().Add(5 * time.Second)
	for {
		for i, s := range sinks {
			for _, d := range s.Recent() {
				has[i] = has[i] || d.ID == id
			}
		}
		done := true
		for _, i := range need {
			done = done && has[i]
		}
		if done || time.Now().After(deadline) {
			return has
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestFleetTracePropagation is the single-session acceptance test: a
// client-originated trace ID must appear verbatim in the client's own
// trace, the router's route trace, and the ring owner's session trace —
// three processes' span output joined by one 128-bit ID — and in no other
// gateway's.
func TestFleetTracePropagation(t *testing.T) {
	if testing.Short() {
		t.Skip("fleet topology is not short")
	}
	image := chaosImage(t, "traceprop", 9301, 40, true)
	fl, err := StartChaosFleet(ChaosFleetConfig{
		Backends:       2,
		CacheEntries:   -1,
		HealthInterval: -1,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer fl.Close()
	fl.Client.Route = &engarde.RouteHello{Tenant: "traceprop"}

	tr := obs.NewTrace("provision", nil)
	v, err := fl.Client.ProvisionFailover(
		[]func() (net.Conn, error){fl.Dial}, image,
		engarde.RetryPolicy{Attempts: 2, Seed: 1, Trace: tr})
	if err != nil {
		t.Fatal(err)
	}
	if !v.Compliant {
		t.Fatalf("verdict = %+v, want compliant", v)
	}
	tr.Finish()

	traceID := tr.ID()
	if len(traceID) != 32 {
		t.Fatalf("client trace ID %q was not upgraded to 128 bits", traceID)
	}
	// The client's own span output carries attempt spans under that ID.
	d := tr.Snapshot()
	var sawAttempt bool
	for _, sp := range d.Spans {
		if sp.Name == "attempt" && sp.Args["outcome"] == "verdict" {
			sawAttempt = true
		}
	}
	if !sawAttempt {
		t.Errorf("client trace has no successful attempt span: %+v", d.Spans)
	}

	owner, other := ringOwner(t, fl, image)
	has := sinksWithTrace(traceID, []*obs.Sink{fl.RouterSink(), fl.Sink(owner), fl.Sink(other)}, 0, 1)
	if !has[0] {
		t.Errorf("router never recorded a route trace with ID %s", traceID)
	}
	if !has[1] || has[2] {
		t.Errorf("session traces with ID %s: ring owner %v, other backend %v; want the owner only",
			traceID, has[1], has[2])
	}
}

// TestFleetFailoverOneTrace is the kill/replay-seam acceptance test: the
// deterministic mid-stream owner death from TestFleetFailoverMidStream,
// driven under one client trace. Attempt 1 (died mid-stream) and attempt 2
// (replayed on the survivor) must be spans of the same trace, and the
// survivor's session trace must carry that same ID.
func TestFleetFailoverOneTrace(t *testing.T) {
	if testing.Short() {
		t.Skip("fleet topology is not short")
	}
	image := chaosImage(t, "traceseam", 9302, 60, true)
	const killAt = 4096
	if len(image) < 3*killAt {
		t.Fatalf("image too small (%d bytes) for a mid-transfer kill", len(image))
	}

	fl, err := StartChaosFleet(ChaosFleetConfig{
		Backends:       2,
		CacheEntries:   -1,
		HealthInterval: -1,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer fl.Close()
	fl.Client.Route = &engarde.RouteHello{Tenant: "traceseam"}

	owner, survivor := ringOwner(t, fl, image)

	var killOnce sync.Once
	killDial := func() (net.Conn, error) {
		conn, err := fl.Dial()
		if err != nil {
			return nil, err
		}
		return &killAfterConn{Conn: conn, threshold: killAt, kill: func() {
			killOnce.Do(func() { fl.Kill(owner) })
		}}, nil
	}

	tr := obs.NewTrace("provision", nil)
	var moves int
	v, err := fl.Client.ProvisionFailover(
		[]func() (net.Conn, error){killDial, fl.Dial}, image,
		engarde.RetryPolicy{
			Attempts: 4, Seed: 1, Trace: tr,
			Sleep:      func(time.Duration) {},
			OnFailover: func(int, int, error) { moves++ },
		})
	if err != nil {
		t.Fatalf("provision with mid-stream owner death: %v", err)
	}
	if !v.Compliant {
		t.Fatalf("verdict = %+v, want compliant", v)
	}
	if moves == 0 {
		t.Fatal("OnFailover never fired — the kill did not interrupt the session")
	}
	tr.Finish()
	traceID := tr.ID()

	// One trace, two attempt spans, both sides of the seam.
	attempts := map[string]string{} // attempt number -> outcome
	for _, sp := range tr.Snapshot().Spans {
		if sp.Name == "attempt" {
			attempts[sp.Args["attempt"]] = sp.Args["outcome"]
		}
	}
	if len(attempts) < 2 {
		t.Fatalf("trace has %d attempt spans, want >= 2: %v", len(attempts), attempts)
	}
	if attempts["1"] == "verdict" {
		t.Errorf("attempt 1 outcome = verdict; the kill should have failed it (%v)", attempts)
	}
	var finished bool
	for _, outcome := range attempts {
		if outcome == "verdict" {
			finished = true
		}
	}
	if !finished {
		t.Errorf("no attempt span carries the verdict outcome: %v", attempts)
	}

	// The survivor's session trace joined the same distributed trace.
	if !sinksWithTrace(traceID, []*obs.Sink{fl.Sink(survivor)}, 0)[0] {
		t.Errorf("survivor's gateway never recorded trace %s", traceID)
	}
}

// ringOwner predicts which backend owns image's digest on the router's
// ring, returning the owner's index and the index of the next backend.
func ringOwner(t *testing.T, fl *ChaosFleet, image []byte) (owner, other int) {
	t.Helper()
	sum := sha256.Sum256(image)
	ring := cluster.NewRing(cluster.DefaultVnodes)
	for i := range fl.backends {
		ring.Add(fl.BackendName(i))
	}
	ownerName, ok := ring.Owner(hex.EncodeToString(sum[:]))
	if !ok {
		t.Fatal("ring has no owner")
	}
	for i := range fl.backends {
		if fl.BackendName(i) == ownerName {
			owner = i
		}
	}
	return owner, (owner + 1) % len(fl.backends)
}

// TestFleetObservabilityHammer is the race-enabled satellite: concurrent
// clients provision traced sessions while scrapers hammer /fleetz (JSON
// and prom), /metricsz, and the pprof index, and a chaos goroutine kills
// and restarts a backend. Invariants: the aggregation tolerates the dead
// backend (up=false, no error), the prom exposition lints clean even
// mid-chaos, and the whole circus leaks no goroutines.
func TestFleetObservabilityHammer(t *testing.T) {
	if testing.Short() {
		t.Skip("fleet topology is not short")
	}
	baseline := runtime.NumGoroutine()
	image := chaosImage(t, "obshammer", 9303, 8, true)

	fl, err := StartChaosFleet(ChaosFleetConfig{
		Backends:         2,
		MaxConcurrent:    4,
		HealthInterval:   20 * time.Millisecond,
		ProbeTimeout:     200 * time.Millisecond,
		MarkdownCooldown: 100 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	fl.Client.Route = &engarde.RouteHello{Tenant: "obshammer"}

	deadline := time.Now().Add(chaosSoakDuration())
	var (
		wg         sync.WaitGroup
		completed  atomic.Uint64
		scrapes    atomic.Uint64
		lintFails  atomic.Uint64
		deadViews  atomic.Uint64
		httpClient = &http.Client{Timeout: 2 * time.Second}
	)

	// Clients: traced sessions through the router, failover-tolerant.
	for c := 0; c < 2; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			dials := []func() (net.Conn, error){fl.Dial, fl.Dial}
			for time.Now().Before(deadline) {
				tr := obs.NewTrace("provision", nil)
				v, err := fl.Client.ProvisionFailover(dials, image, engarde.RetryPolicy{
					Attempts: 6, BaseDelay: time.Millisecond,
					MaxDelay: 20 * time.Millisecond, Seed: int64(c + 1), Trace: tr,
				})
				tr.Finish()
				if err == nil && v.Compliant {
					completed.Add(1)
				}
			}
		}(c)
	}

	// Scrapers: the fleet view in both formats, backend metrics, pprof.
	for s := 0; s < 2; s++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			urls := []string{
				fl.RouterAdminURL + "/fleetz",
				fl.RouterAdminURL + "/fleetz?format=prom",
				fl.RouterAdminURL + "/metricsz",
				fl.RouterAdminURL + "/tracez",
				fl.RouterAdminURL + "/debug/pprof/",
				fl.AdminURL(0) + "/metricsz",
				fl.AdminURL(1) + "/metricsz",
			}
			for i := 0; time.Now().Before(deadline); i++ {
				url := urls[i%len(urls)]
				resp, err := httpClient.Get(url)
				if err != nil {
					// Backend admin endpoints go dark when killed; that is
					// the chaos, not a failure.
					continue
				}
				body, _ := io.ReadAll(resp.Body)
				resp.Body.Close()
				scrapes.Add(1)
				switch {
				case strings.HasSuffix(url, "format=prom"):
					if errs := obs.Lint(strings.NewReader(string(body))); len(errs) > 0 {
						lintFails.Add(1)
						t.Errorf("mid-chaos /fleetz prom fails lint: %v", errs[0])
					}
				case strings.HasSuffix(url, "/fleetz"):
					var view fleet.FleetView
					if err := json.Unmarshal(body, &view); err != nil {
						t.Errorf("/fleetz JSON unparseable mid-chaos: %v", err)
						continue
					}
					if view.Fleet.BackendsUp < view.Fleet.BackendsTotal {
						deadViews.Add(1)
					}
				}
			}
		}()
	}

	// Chaos: backend 1 dies and returns, repeatedly.
	chaosDone := make(chan struct{})
	go func() {
		defer close(chaosDone)
		for time.Now().Before(deadline) {
			fl.Kill(1)
			time.Sleep(100 * time.Millisecond)
			for fl.Restart(1) != nil {
				time.Sleep(10 * time.Millisecond)
			}
			time.Sleep(250 * time.Millisecond)
		}
	}()

	wg.Wait()
	<-chaosDone
	t.Logf("hammer: %d sessions completed, %d scrapes, %d views saw a dead backend",
		completed.Load(), scrapes.Load(), deadViews.Load())
	if completed.Load() == 0 {
		t.Error("no session completed under the hammer")
	}
	if scrapes.Load() == 0 {
		t.Error("no scrape succeeded under the hammer")
	}
	if lintFails.Load() != 0 {
		t.Errorf("%d prom expositions failed lint mid-chaos", lintFails.Load())
	}

	// With backend 1 held dead, the aggregation must degrade, not break:
	// the view parses, marks it down with a reason, and keeps serving the
	// survivor's numbers.
	fl.Kill(1)
	resp, err := httpClient.Get(fl.RouterAdminURL + "/fleetz")
	if err != nil {
		t.Fatalf("/fleetz with a dead backend: %v", err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	var view fleet.FleetView
	if err := json.Unmarshal(body, &view); err != nil {
		t.Fatalf("/fleetz JSON with a dead backend: %v\n%s", err, body)
	}
	if view.Fleet.BackendsTotal != 2 || view.Fleet.BackendsUp != 1 {
		t.Errorf("dead-backend view: up=%d total=%d, want 1/2",
			view.Fleet.BackendsUp, view.Fleet.BackendsTotal)
	}
	for _, b := range view.Backends {
		if b.Name == "b1" && (b.Up || b.Error == "") {
			t.Errorf("dead backend b1 not marked down with a reason: %+v", b)
		}
	}

	if err := fl.Restart(1); err != nil {
		t.Fatal(err)
	}
	if err := fl.Close(); err != nil {
		t.Errorf("fleet shutdown: %v", err)
	}
	waitFleetGoroutines(t, baseline)
}
