package gateway_test

// Chaos tests: the fault-injection layer (internal/faults) driven through
// the full gateway stack. The invariants are end-to-end resilience ones —
// no fault schedule may hang a session, leak a worker, or (the integrity
// property the secure channel buys) flip a verdict. Faults only ever cost
// availability: an error, a timeout, or a busy verdict.

import (
	"context"
	"errors"
	"os"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"engarde"
	"engarde/internal/faults"
	"engarde/internal/gateway"
)

// chaosProb maps a fuzzable byte onto a per-operation probability in
// [0, 0.249]: high enough to bite, low enough that sessions still finish.
func chaosProb(b byte) float64 { return float64(b) / 1024 }

// soakDuration is how long TestChaosSoak runs: 2s in normal test runs,
// ENGARDE_SOAK_SECONDS in CI's dedicated chaos-soak job.
func soakDuration() time.Duration {
	if v := os.Getenv("ENGARDE_SOAK_SECONDS"); v != "" {
		if secs, err := strconv.Atoi(v); err == nil && secs > 0 {
			return time.Duration(secs) * time.Second
		}
	}
	return 2 * time.Second
}

// waitGoroutines waits for the goroutine count to settle back to the
// pre-test baseline (plus slack for the runtime's own background work).
func waitGoroutines(t *testing.T, baseline int) {
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

// TestChaosSoak hammers one gateway with a mixed fleet: healthy tenants
// interleaved with tenants whose connections stall, trickle, truncate,
// flip bits, and error — all deterministic per-session schedules. Every
// session sends at the client's default frame size. Run with -race; CI's
// chaos-soak job extends it via ENGARDE_SOAK_SECONDS.
func TestChaosSoak(t *testing.T) { runChaosSoak(t, false) }

// TestStreamingChaosSoak is the same mixed fleet with each session's client
// frame size varied, so chunk launches and fault injections land at
// different stream offsets — the soak counterpart of
// FuzzStreamingFrameSchedule's schedule coverage.
func TestStreamingChaosSoak(t *testing.T) { runChaosSoak(t, true) }

func runChaosSoak(t *testing.T, varyFrames bool) {
	baseline := runtime.NumGoroutine()
	gw, ln, client := testGateway(t, gateway.Config{
		Policies:       engarde.NewPolicySet(engarde.StackProtectorPolicy()),
		MaxConcurrent:  4,
		QueueDepth:     4, // capacity 8 < clients 12, so shedding happens
		IdleTimeout:    150 * time.Millisecond,
		SessionBudget:  time.Second,
		RetryAfterHint: 2 * time.Millisecond,
	})
	good := buildImage(t, "soak-good", 961, true)
	bad := buildImage(t, "soak-bad", 962, false)

	const numClients = 12
	var (
		sessions       atomic.Int64
		healthyOK      atomic.Uint64 // healthy sessions, exact verdict
		healthyDropped atomic.Uint64 // healthy sessions lost to overload
		faultedOK      atomic.Uint64 // faulted sessions that still finished clean
		faultedErr     atomic.Uint64
	)
	deadline := time.Now().Add(soakDuration())
	var wg sync.WaitGroup
	for c := 0; c < numClients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for time.Now().Before(deadline) {
				id := sessions.Add(1)
				image, wantCompliant := good, true
				if id%2 == 0 {
					image, wantCompliant = bad, false
				}
				// Vary the frame size per session (512 B up to 64 KiB) so
				// transfers split differently.
				cl := *client
				if varyFrames {
					cl.BlockSize = 1 << (9 + id%8)
				}
				if id%4 == 0 {
					// Healthy session: fault-free connection, retries through
					// shedding. If it completes, the verdict must be exact.
					v, err := cl.ProvisionRetry(ln.Dial, image, engarde.RetryPolicy{
						Attempts:  8,
						BaseDelay: 2 * time.Millisecond,
						MaxDelay:  20 * time.Millisecond,
						Seed:      id,
					})
					switch {
					case errors.Is(err, engarde.ErrAttestation):
						// A clean connection can never fail attestation.
						t.Errorf("healthy session %d: %v", id, err)
					case err != nil:
						// Overload: every attempt was shed (ErrBusy) or cut.
						// Losing availability is legal; a wrong verdict is not.
						healthyDropped.Add(1)
					case v.Compliant != wantCompliant:
						t.Errorf("healthy session %d: verdict %+v, want compliant=%v", id, v, wantCompliant)
					default:
						healthyOK.Add(1)
					}
					continue
				}
				// Faulted session: a seeded schedule mangles the connection.
				// Any availability outcome is legal; a wrong verdict is not.
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
				v, err := cl.Provision(cc, image)
				cc.Close()
				switch {
				case err != nil:
					faultedErr.Add(1)
				case v.Code == engarde.CodeBusy:
					healthyDropped.Add(1)
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

	// Clean shutdown within the drain deadline: every admitted session is
	// bounded by IdleTimeout/SessionBudget, so nothing can pin a worker.
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := gw.Shutdown(ctx); err != nil {
		t.Fatalf("Shutdown under chaos: %v", err)
	}

	s := gw.Stats()
	t.Logf("soak: %d sessions (healthy ok=%d dropped=%d; faulted ok=%d err=%d); stats %+v",
		sessions.Load(), healthyOK.Load(), healthyDropped.Load(), faultedOK.Load(), faultedErr.Load(), s)
	if healthyOK.Load() == 0 {
		t.Error("soak observed no successful healthy session")
	}
	if faultedErr.Load() == 0 {
		t.Error("soak injected no effective faults; schedules too tame")
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
	waitGoroutines(t, baseline)
}

// TestChaosShutdownDrain starts Shutdown while chaotic connections are in
// flight — a peer that never reads, a 1-byte trickler, a peer that dies
// mid-protocol — and requires the drain to finish well inside its deadline
// with no goroutine left behind. The deadlines are what make this work:
// each wedged session is cut by IdleTimeout or SessionBudget.
func TestChaosShutdownDrain(t *testing.T) {
	baseline := runtime.NumGoroutine()
	gw, ln, client := testGateway(t, gateway.Config{
		MaxConcurrent: 2,
		QueueDepth:    2,
		IdleTimeout:   100 * time.Millisecond,
		SessionBudget: 600 * time.Millisecond,
	})
	image := buildImage(t, "drain-chaos", 963, false)

	// A peer that connects and never reads: the server wedges writing its
	// hello (net.Pipe is synchronous) until the idle deadline cuts it.
	silent, err := ln.Dial()
	if err != nil {
		t.Fatal(err)
	}
	defer silent.Close()

	var wg sync.WaitGroup
	// A trickler: every read and write serves one byte. Progress refreshes
	// the idle deadline, so only the session budget can end this one.
	wg.Add(1)
	go func() {
		defer wg.Done()
		conn, err := ln.Dial()
		if err != nil {
			return
		}
		cc := faults.WrapConn(conn, faults.Schedule{Seed: 1, PartialProb: 1})
		_, _ = client.Provision(cc, image)
		cc.Close()
	}()
	// A peer that dies mid-protocol: the 3rd read truncates the stream
	// right after the key exchange.
	wg.Add(1)
	go func() {
		defer wg.Done()
		conn, err := ln.Dial()
		if err != nil {
			return
		}
		cc := faults.WrapConn(conn, faults.Schedule{
			Seed:     2,
			Triggers: []faults.Trigger{{Op: faults.OpRead, N: 2, Do: faults.ActTruncate}},
		})
		_, _ = client.Provision(cc, image)
		cc.Close()
	}()

	waitFor(t, "chaotic sessions in flight", func() bool { return gw.Stats().Active >= 1 })

	start := time.Now()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := gw.Shutdown(ctx); err != nil {
		t.Fatalf("Shutdown with chaotic in-flight connections: %v", err)
	}
	if drain := time.Since(start); drain > 5*time.Second {
		t.Errorf("drain took %v; sessions were not cut by their deadlines", drain)
	}
	wg.Wait()

	s := gw.Stats()
	if s.Active != 0 {
		t.Errorf("active = %d after drain", s.Active)
	}
	if s.TimedOut == 0 {
		t.Errorf("expected at least one idle/budget cutoff, stats %+v", s)
	}
	waitGoroutines(t, baseline)
}

// FuzzChaosSession fuzzes fault schedules over complete provisioning
// round-trips. Whatever the schedule, a session must terminate promptly
// and must never yield a wrong verdict — corrupted frames die in GCM
// verification or attestation checks, so faults cost availability only.
func FuzzChaosSession(f *testing.F) {
	gw, ln, client := testGateway(f, gateway.Config{
		Policies:       engarde.NewPolicySet(engarde.StackProtectorPolicy()),
		MaxConcurrent:  4,
		QueueDepth:     4,
		IdleTimeout:    100 * time.Millisecond,
		SessionBudget:  time.Second,
		RetryAfterHint: 2 * time.Millisecond,
	})
	_ = gw
	good := buildImage(f, "fuzz-good", 964, true)
	bad := buildImage(f, "fuzz-bad", 965, false)

	f.Add(int64(1), byte(0), byte(0), byte(0), byte(0), byte(0), byte(0), false)  // fault-free
	f.Add(int64(2), byte(16), byte(64), byte(0), byte(0), byte(0), byte(0), true) // slow + partial
	f.Add(int64(3), byte(0), byte(0), byte(32), byte(0), byte(0), byte(0), false) // bit-flips
	f.Add(int64(4), byte(0), byte(0), byte(0), byte(8), byte(16), byte(16), true) // stalls + cuts
	f.Add(int64(5), byte(8), byte(32), byte(8), byte(4), byte(8), byte(8), false) // everything at once

	f.Fuzz(func(t *testing.T, seed int64, latB, partB, flipB, stallB, truncB, errB byte, useBad bool) {
		image, wantCompliant := good, true
		if useBad {
			image, wantCompliant = bad, false
		}
		sched := faults.Schedule{
			Seed:         seed,
			LatencyProb:  chaosProb(latB),
			PartialProb:  chaosProb(partB),
			BitFlipProb:  chaosProb(flipB),
			StallProb:    chaosProb(stallB) / 4, // stalls are expensive; keep them rare
			Stall:        150 * time.Millisecond,
			TruncateProb: chaosProb(truncB),
			ErrorProb:    chaosProb(errB),
		}
		conn, err := ln.Dial()
		if err != nil {
			t.Fatalf("dial: %v", err)
		}
		cc := faults.WrapConn(conn, sched)
		type outcome struct {
			v   engarde.Verdict
			err error
		}
		done := make(chan outcome, 1)
		go func() {
			v, err := client.Provision(cc, image)
			done <- outcome{v, err}
		}()
		select {
		case out := <-done:
			cc.Close()
			if out.err != nil {
				return // availability loss: the legal failure mode
			}
			if out.v.Code == engarde.CodeBusy {
				return // shed under load: also legal
			}
			if out.v.Compliant != wantCompliant {
				t.Fatalf("schedule %+v (injected %v) flipped the verdict: %+v, want compliant=%v",
					sched, cc.Injected(), out.v, wantCompliant)
			}
		case <-time.After(20 * time.Second):
			cc.Close()
			t.Fatalf("session hung under schedule %+v (injected so far: %v)", sched, cc.Injected())
		}
	})
}
