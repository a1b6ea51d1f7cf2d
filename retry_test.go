package engarde

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"syscall"
	"testing"
	"time"

	"engarde/internal/toolchain"
)

func TestClassifyFailure(t *testing.T) {
	for _, tc := range []struct {
		name string
		err  error
		want FailureClass
	}{
		{"nil", nil, FailTransient},
		{"attestation", fmt.Errorf("verify: %w", ErrAttestation), FailPermanent},
		{"session-lost", fmt.Errorf("x: %w", ErrSessionLost), FailSessionLost},
		{"eof", io.EOF, FailSessionLost},
		{"unexpected-eof", fmt.Errorf("recv: %w", io.ErrUnexpectedEOF), FailSessionLost},
		{"closed-pipe", io.ErrClosedPipe, FailSessionLost},
		{"net-closed", net.ErrClosed, FailSessionLost},
		{"conn-reset", syscall.ECONNRESET, FailSessionLost},
		{"conn-refused", syscall.ECONNREFUSED, FailSessionLost},
		{"op-error", &net.OpError{Op: "read", Err: errors.New("boom")}, FailSessionLost},
		{"other", errors.New("machinery hiccup"), FailTransient},
	} {
		if got := ClassifyFailure(tc.err); got != tc.want {
			t.Errorf("%s: ClassifyFailure(%v) = %v, want %v", tc.name, tc.err, got, tc.want)
		}
	}
	if s := FailSessionLost.String(); s != "session-lost" {
		t.Errorf("FailSessionLost.String() = %q", s)
	}
}

// failoverFixture builds a provider, two serving enclaves, and a client:
// endpoint behavior is set per test through the serve functions.
type failoverFixture struct {
	provider *Provider
	client   *Client
	image    []byte
}

func newFailoverFixture(t *testing.T) *failoverFixture {
	t.Helper()
	provider, err := NewProvider(ProviderConfig{EPCPages: 8192})
	if err != nil {
		t.Fatal(err)
	}
	expected, err := ExpectedMeasurement(SGXv2, smallEnclave())
	if err != nil {
		t.Fatal(err)
	}
	bin, err := toolchain.Build(toolchain.Config{
		Name: "failover", Seed: 83, NumFuncs: 6, AvgFuncInsts: 40, StackProtector: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	return &failoverFixture{
		provider: provider,
		client:   &Client{Expected: expected, PlatformKey: provider.AttestationPublicKey()},
		image:    bin.Image,
	}
}

// serveDial returns a dial function whose server side runs serve on a
// fresh enclave over a net.Pipe, once per dial.
func (f *failoverFixture) serveDial(t *testing.T, serve func(encl *Enclave, conn net.Conn)) func() (net.Conn, error) {
	t.Helper()
	return func() (net.Conn, error) {
		cli, srv := net.Pipe()
		encl, err := f.provider.CreateEnclave(smallEnclave())
		if err != nil {
			return nil, err
		}
		go func() {
			defer srv.Close()
			defer encl.Destroy()
			serve(encl, srv)
		}()
		return cli, nil
	}
}

func quietPolicy(onFailover func(from, to int, cause error)) RetryPolicy {
	return RetryPolicy{
		Attempts:   4,
		Seed:       1,
		Sleep:      func(time.Duration) {},
		OnFailover: onFailover,
	}
}

// TestProvisionFailoverMidStreamDeath kills endpoint 0's connection
// mid-handshake; the client must replay the retained image against
// endpoint 1 and complete with a verdict.
func TestProvisionFailoverMidStreamDeath(t *testing.T) {
	f := newFailoverFixture(t)
	dead := f.serveDial(t, func(_ *Enclave, conn net.Conn) {
		// Hard-close without a byte: the owner crashed mid-session.
	})
	alive := f.serveDial(t, func(encl *Enclave, conn net.Conn) {
		_, _ = encl.ServeProvision(conn)
	})

	var moves []string
	v, err := f.client.ProvisionFailover(
		[]func() (net.Conn, error){dead, alive}, f.image,
		quietPolicy(func(from, to int, cause error) {
			moves = append(moves, fmt.Sprintf("%d->%d", from, to))
			if ClassifyFailure(cause) != FailSessionLost {
				t.Errorf("failover cause %v classified %v, want session-lost", cause, ClassifyFailure(cause))
			}
		}))
	if err != nil {
		t.Fatalf("ProvisionFailover: %v", err)
	}
	if !v.Compliant {
		t.Fatalf("verdict = %+v, want compliant", v)
	}
	if len(moves) != 1 || moves[0] != "0->1" {
		t.Errorf("failover moves = %v, want [0->1]", moves)
	}
}

// TestProvisionFailoverOnBackendLostVerdict has endpoint 0 complete the
// handshake and transfer, then fail provisioning with an enclave loss:
// the server reports it as a typed CodeBackendLost verdict (never an
// internal failure a client could take as final), and the client replays
// against endpoint 1.
func TestProvisionFailoverOnBackendLostVerdict(t *testing.T) {
	f := newFailoverFixture(t)
	lost := f.serveDial(t, func(encl *Enclave, conn net.Conn) {
		_, _ = encl.ServeProvisionFunc(context.Background(), conn, func(*StagedImage) (*Report, error) {
			return nil, fmt.Errorf("core: staging image: %w", ErrEnclaveLost)
		})
	})
	alive := f.serveDial(t, func(encl *Enclave, conn net.Conn) {
		_, _ = encl.ServeProvision(conn)
	})

	var moves int
	v, err := f.client.ProvisionFailover(
		[]func() (net.Conn, error){lost, alive}, f.image,
		quietPolicy(func(from, to int, cause error) {
			moves++
			if !errors.Is(cause, ErrSessionLost) {
				t.Errorf("failover cause = %v, want ErrSessionLost", cause)
			}
		}))
	if err != nil {
		t.Fatalf("ProvisionFailover: %v", err)
	}
	if !v.Compliant {
		t.Fatalf("verdict = %+v, want compliant", v)
	}
	if moves != 1 {
		t.Errorf("failovers = %d, want 1", moves)
	}
}

// TestProvisionFailoverDialErrorAdvances treats a dial failure like a
// down endpoint: advance to the successor instead of hammering it.
func TestProvisionFailoverDialErrorAdvances(t *testing.T) {
	f := newFailoverFixture(t)
	var dials int
	down := func() (net.Conn, error) {
		dials++
		return nil, syscall.ECONNREFUSED
	}
	alive := f.serveDial(t, func(encl *Enclave, conn net.Conn) {
		_, _ = encl.ServeProvision(conn)
	})
	v, err := f.client.ProvisionFailover(
		[]func() (net.Conn, error){down, alive}, f.image, quietPolicy(nil))
	if err != nil {
		t.Fatalf("ProvisionFailover: %v", err)
	}
	if !v.Compliant {
		t.Fatalf("verdict = %+v, want compliant", v)
	}
	if dials != 1 {
		t.Errorf("down endpoint dialed %d times, want 1", dials)
	}
}

// TestProvisionFailoverPermanentStops: a failed attestation must not be
// retried anywhere — the platform is not running genuine EnGarde, and no
// amount of failover fixes that.
func TestProvisionFailoverPermanentStops(t *testing.T) {
	f := newFailoverFixture(t)
	f.client.Expected = Measurement{} // demand a measurement no enclave has
	var dials int
	serve := f.serveDial(t, func(encl *Enclave, conn net.Conn) {
		_, _ = encl.ServeProvision(conn)
	})
	counted := func() (net.Conn, error) {
		dials++
		return serve()
	}
	_, err := f.client.ProvisionFailover(
		[]func() (net.Conn, error){counted, counted}, f.image, quietPolicy(nil))
	if !errors.Is(err, ErrAttestation) {
		t.Fatalf("err = %v, want ErrAttestation", err)
	}
	if dials != 1 {
		t.Errorf("dials = %d, want 1 — permanent failures must not retry", dials)
	}
}

// TestProvisionFailoverExhaustsBudget: with every endpoint dead, the
// shared attempt budget runs out and the last session loss surfaces.
func TestProvisionFailoverExhaustsBudget(t *testing.T) {
	f := newFailoverFixture(t)
	var dials int
	down := func() (net.Conn, error) {
		dials++
		return nil, syscall.ECONNREFUSED
	}
	_, err := f.client.ProvisionFailover(
		[]func() (net.Conn, error){down, down}, f.image, quietPolicy(nil))
	if err == nil {
		t.Fatal("expected failure with every endpoint down")
	}
	if !errors.Is(err, syscall.ECONNREFUSED) {
		t.Errorf("err = %v, want wrapped ECONNREFUSED", err)
	}
	if dials != 4 {
		t.Errorf("dials = %d, want 4 (the full attempt budget)", dials)
	}
}
