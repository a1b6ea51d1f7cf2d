package bench

// Fleet failure-domain tests: a backend crash — mid-stream, mid-splice,
// over and over — may cost sessions latency or availability, never verdict
// integrity. The deterministic test kills an image's ring owner at an
// exact byte offset of the client's stream; the soak does it continuously
// under concurrent load. Both compare every completed verdict against a
// fault-free control, and the soak additionally proves the fleet leaks
// nothing: EPC ledgers balance and goroutines settle once it ends.

import (
	"net"
	"os"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"engarde"
	"engarde/internal/toolchain"
)

// chaosSoakDuration mirrors the gateway chaos soak's knob: 2s in normal
// runs, ENGARDE_SOAK_SECONDS in CI's fleet-chaos-soak job.
func chaosSoakDuration() time.Duration {
	if v := os.Getenv("ENGARDE_SOAK_SECONDS"); v != "" {
		if secs, err := strconv.Atoi(v); err == nil && secs > 0 {
			return time.Duration(secs) * time.Second
		}
	}
	return 2 * time.Second
}

func waitFleetGoroutines(t *testing.T, baseline int) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for {
		if n := runtime.NumGoroutine(); n <= baseline+8 {
			return
		}
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<20)
			buf = buf[:runtime.Stack(buf, true)]
			t.Fatalf("goroutine leak: %d running, baseline %d\n%s",
				runtime.NumGoroutine(), baseline, buf)
		}
		time.Sleep(20 * time.Millisecond)
	}
}

func chaosImage(t *testing.T, name string, seed int64, funcs int, compliant bool) []byte {
	t.Helper()
	bin, err := toolchain.Build(toolchain.Config{
		Name: name, Seed: seed, NumFuncs: funcs, AvgFuncInsts: 60,
		StackProtector: compliant,
	})
	if err != nil {
		t.Fatal(err)
	}
	return bin.Image
}

// killAfterConn triggers kill once the client has written threshold
// bytes into the session — a deterministic "owner crashed mid-transfer"
// point in the stream. A write that crosses the threshold is split there:
// an image smaller than one frame goes out in a single write, and killing
// only after it would race the backend finishing the whole session.
type killAfterConn struct {
	net.Conn
	written   int
	threshold int
	kill      func()
}

func (c *killAfterConn) Write(b []byte) (int, error) {
	head := 0
	if c.written < c.threshold && c.written+len(b) > c.threshold {
		n, err := c.Conn.Write(b[:c.threshold-c.written])
		c.written += n
		if err != nil {
			return n, err
		}
		c.kill()
		head, b = n, b[n:]
	}
	n, err := c.Conn.Write(b)
	c.written += n
	if c.written >= c.threshold {
		c.kill()
	}
	return head + n, err
}

// TestFleetFailoverMidStream is the deterministic failure-domain
// regression test: a client announces its digest, the router splices it to
// the ring owner, and the owner is killed mid-image-transfer. The client's
// session-failover loop must replay the retained image through the router,
// land on the successor, and finish with exactly the fault-free verdict.
func TestFleetFailoverMidStream(t *testing.T) {
	if testing.Short() {
		t.Skip("fleet topology is not short")
	}
	image := chaosImage(t, "midstream", 9001, 60, true)
	const killAt = 4096
	if len(image) < 3*killAt {
		t.Fatalf("image too small (%d bytes) to kill mid-transfer at offset %d", len(image), killAt)
	}

	fleet, err := StartChaosFleet(ChaosFleetConfig{
		Backends:       2,
		CacheEntries:   -1, // every session runs the full pipeline
		HealthInterval: -1, // dial results police health: fully deterministic
	})
	if err != nil {
		t.Fatal(err)
	}
	defer fleet.Close()
	fleet.Client.Route = &engarde.RouteHello{Tenant: "midstream"}

	owner, survivor := ringOwner(t, fleet, image)

	// Fault-free control verdict (routed to the owner, like every
	// announced session for this digest).
	control, err := fleet.Client.ProvisionFailover(
		[]func() (net.Conn, error){fleet.Dial}, image,
		engarde.RetryPolicy{Attempts: 2, Seed: 1})
	if err != nil {
		t.Fatalf("control session: %v", err)
	}
	if !control.Compliant {
		t.Fatalf("control verdict = %+v, want compliant", control)
	}

	// The faulted session: the owner dies once the client is killAt bytes
	// into its stream — mid-transfer, after routing and handshake.
	var killOnce sync.Once
	killDial := func() (net.Conn, error) {
		conn, err := fleet.Dial()
		if err != nil {
			return nil, err
		}
		return &killAfterConn{Conn: conn, threshold: killAt, kill: func() {
			killOnce.Do(func() { fleet.Kill(owner) })
		}}, nil
	}

	var moves int
	v, err := fleet.Client.ProvisionFailover(
		[]func() (net.Conn, error){killDial, fleet.Dial}, image,
		engarde.RetryPolicy{
			Attempts: 4, Seed: 1,
			Sleep: func(time.Duration) {},
			OnFailover: func(from, to int, cause error) {
				moves++
				t.Logf("failover %d->%d: %v", from, to, cause)
			},
		})
	if err != nil {
		t.Fatalf("provision with mid-stream owner death: %v", err)
	}
	if v != control {
		t.Errorf("verdict after failover = %+v, want control %+v", v, control)
	}
	if moves == 0 {
		t.Error("OnFailover never fired — the kill did not interrupt the session")
	}

	// The replayed session must have landed on the survivor. The gateway
	// counts a session as served only after the verdict is written, so the
	// client can hold its verdict a beat before the counter moves: wait
	// for it, with a deadline.
	for deadline := time.Now().Add(10 * time.Second); fleet.Gateway(survivor).Stats().Served == 0; {
		if time.Now().After(deadline) {
			t.Error("survivor served no sessions — failover did not reroute")
			break
		}
		time.Sleep(10 * time.Millisecond)
	}

	// The owner comes back and the fleet is whole again: a fresh session
	// for the same digest completes wherever the router now sends it.
	if err := fleet.Restart(owner); err != nil {
		t.Fatal(err)
	}
	v2, err := fleet.Client.ProvisionFailover(
		[]func() (net.Conn, error){fleet.Dial, fleet.Dial}, image,
		engarde.RetryPolicy{Attempts: 4, Seed: 2, Sleep: func(time.Duration) {}})
	if err != nil {
		t.Fatalf("provision after restart: %v", err)
	}
	if v2 != control {
		t.Errorf("verdict after restart = %+v, want control %+v", v2, control)
	}
}

// TestFleetChaosSoak crashes and restarts backends continuously under
// concurrent announced load. Invariants: every completed session's verdict
// equals the fault-free control for its image (compliant and non-compliant
// alike), sessions keep completing throughout, and when the music stops
// the fleet shuts down clean — EPC ledgers balance on every backend and
// no goroutine outlives the run. Run with -race; CI's fleet-chaos-soak job
// extends it via ENGARDE_SOAK_SECONDS.
func TestFleetChaosSoak(t *testing.T) {
	if testing.Short() {
		t.Skip("fleet topology is not short")
	}
	baseline := runtime.NumGoroutine()
	good := chaosImage(t, "soak-fleet-good", 9101, 8, true)
	bad := chaosImage(t, "soak-fleet-bad", 9102, 8, false)
	images := [][]byte{good, bad}

	fleet, err := StartChaosFleet(ChaosFleetConfig{
		Backends:         3,
		EnclavePool:      2,
		MaxConcurrent:    4,
		HealthInterval:   20 * time.Millisecond,
		ProbeTimeout:     200 * time.Millisecond,
		MarkdownCooldown: 100 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	fleet.Client.Route = &engarde.RouteHello{Tenant: "chaos"}

	// Fault-free control verdicts, one per image.
	controls := make([]engarde.Verdict, len(images))
	for i, img := range images {
		controls[i], err = fleet.Client.ProvisionFailover(
			[]func() (net.Conn, error){fleet.Dial, fleet.Dial}, img,
			engarde.RetryPolicy{Attempts: 4, Seed: int64(i + 1)})
		if err != nil {
			t.Fatalf("control session %d: %v", i, err)
		}
	}
	if !controls[0].Compliant || controls[1].Compliant {
		t.Fatalf("unexpected control verdicts: %+v", controls)
	}

	deadline := time.Now().Add(chaosSoakDuration())
	var (
		wg         sync.WaitGroup
		completed  atomic.Uint64
		dropped    atomic.Uint64
		mismatches atomic.Uint64
	)
	const numClients = 6
	for c := 0; c < numClients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			policy := engarde.RetryPolicy{
				Attempts:  8,
				BaseDelay: time.Millisecond,
				MaxDelay:  20 * time.Millisecond,
				Seed:      int64(c + 1),
			}
			dials := []func() (net.Conn, error){fleet.Dial, fleet.Dial, fleet.Dial}
			for i := 0; time.Now().Before(deadline); i++ {
				which := (c + i) % len(images)
				s0 := time.Now()
				v, err := fleet.Client.ProvisionFailover(dials, images[which], policy)
				if d := time.Since(s0); d > 10*time.Second {
					t.Logf("client %d session %d took %v (err=%v)", c, i, d, err)
				}
				if err != nil {
					// Availability loss: legal under chaos, and accounted.
					dropped.Add(1)
					continue
				}
				completed.Add(1)
				if v != controls[which] {
					mismatches.Add(1)
					t.Errorf("verdict diverged under chaos: image %d got %+v want %+v",
						which, v, controls[which])
				}
			}
		}(c)
	}

	// The chaos loop: one backend at a time crashes mid-whatever and comes
	// back; the dwell times leave the fleet a healthy majority throughout.
	chaosDone := make(chan struct{})
	go func() {
		defer close(chaosDone)
		for i := 0; time.Now().Before(deadline); i++ {
			victim := i % 3
			fleet.Kill(victim)
			time.Sleep(60 * time.Millisecond)
			for fleet.Restart(victim) != nil {
				time.Sleep(10 * time.Millisecond)
			}
			time.Sleep(350 * time.Millisecond)
		}
	}()

	wg.Wait()
	<-chaosDone
	t.Logf("soak: %d completed, %d dropped, %d mismatches",
		completed.Load(), dropped.Load(), mismatches.Load())
	if completed.Load() == 0 {
		t.Error("no session completed under chaos — failover is not working")
	}
	if mismatches.Load() != 0 {
		t.Errorf("%d verdicts diverged — faults must never cost integrity", mismatches.Load())
	}

	if err := fleet.Close(); err != nil {
		t.Errorf("fleet shutdown: %v", err)
	}
	// Every backend's EPC ledger balances: every enclave created across
	// all crashes, failovers, and pool churn was destroyed exactly once.
	for i := 0; i < 3; i++ {
		dev := fleet.Provider(i).Device()
		if free, cap := dev.EPCFree(), dev.EPCCapacity(); free != cap {
			t.Errorf("backend %d EPC ledger unbalanced after shutdown: %d free of %d", i, free, cap)
		}
	}
	waitFleetGoroutines(t, baseline)
}

// TestFleetFailoverLoadPoint runs a small failover load point: 9
// announced sessions from 2 clients through a 3-backend fleet, whose ring
// owner for the first image crashes a third of the way in (timed to one
// of its splices being in flight) and restarts at two thirds. Every
// session is accounted for, sessions complete across the crash window,
// every completed verdict is compliant, and the failover accounting is
// self-consistent.
func TestFleetFailoverLoadPoint(t *testing.T) {
	if testing.Short() {
		t.Skip("fleet topology is not short")
	}
	images := [][]byte{
		chaosImage(t, "failover-a", 9401, 60, true),
		chaosImage(t, "failover-b", 9402, 60, true),
	}
	const sessions, clients = 9, 2
	fl, err := StartChaosFleet(ChaosFleetConfig{
		Backends:       3,
		CacheEntries:   -1, // every session pays the full pipeline
		HealthInterval: -1, // dial results police health; no prober jitter
	})
	if err != nil {
		t.Fatal(err)
	}
	fl.Client.Route = &engarde.RouteHello{Tenant: "failover-load"}
	victim, _ := ringOwner(t, fl, images[0])

	var finished, completed, dropped, clientFailovers, movedSessions atomic.Uint64
	ctlDone := make(chan struct{})
	go func() {
		defer close(ctlDone)
		for finished.Load() < sessions/3 {
			time.Sleep(time.Millisecond)
		}
		for deadline := time.Now().Add(5 * time.Second); time.Now().Before(deadline); {
			if fl.Router.Stats().Backends[fl.BackendName(victim)].Active > 0 {
				break
			}
			time.Sleep(time.Millisecond)
		}
		fl.Kill(victim)
		for finished.Load() < 2*sessions/3 {
			time.Sleep(time.Millisecond)
		}
		for fl.Restart(victim) != nil {
			time.Sleep(5 * time.Millisecond)
		}
	}()

	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			dials := []func() (net.Conn, error){fl.Dial, fl.Dial, fl.Dial}
			for i := c; i < sessions; i += clients {
				var moves int
				v, err := fl.Client.ProvisionFailover(dials, images[i%len(images)], engarde.RetryPolicy{
					Attempts:  8,
					BaseDelay: time.Millisecond,
					MaxDelay:  50 * time.Millisecond,
					Seed:      int64(c + 1),
					OnFailover: func(int, int, error) {
						moves++
						clientFailovers.Add(1)
					},
				})
				finished.Add(1)
				if err != nil {
					dropped.Add(1)
					continue
				}
				if !v.Compliant {
					t.Errorf("session %d rejected under failover: %s", i, v.Reason)
				}
				completed.Add(1)
				if moves > 0 {
					movedSessions.Add(1)
				}
			}
		}(c)
	}
	wg.Wait()
	<-ctlDone
	if err := fl.Close(); err != nil {
		t.Errorf("fleet shutdown: %v", err)
	}

	t.Logf("failover point: %d completed, %d dropped, %d client failovers over %d moved sessions",
		completed.Load(), dropped.Load(), clientFailovers.Load(), movedSessions.Load())
	if completed.Load()+dropped.Load() != sessions {
		t.Errorf("completed %d + dropped %d != %d sessions", completed.Load(), dropped.Load(), sessions)
	}
	if completed.Load() == 0 {
		t.Error("no sessions completed across the crash window")
	}
	if movedSessions.Load() > 0 && clientFailovers.Load() == 0 {
		t.Error("sessions completed after a move without any client failover counted")
	}
}
