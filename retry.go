package engarde

// Client-side resilience: retry with exponential backoff and full jitter,
// and session failover across a fleet.
//
// A production gateway sheds load with typed busy verdicts (CodeBusy +
// Retry-After) and cuts off stalled sessions with idle/budget deadlines;
// a fleet router resets sessions to crashed backends with typed
// CodeBackendLost verdicts. The matching client behavior is to retry —
// with exponentially growing, fully jittered delays so a thundering herd
// of shed clients does not return in lockstep — replaying the retained
// image against the next owner in the ring's failover order when the
// session itself was lost, while treating permanent failures (attestation
// mismatch, policy rejection) as final immediately.

import (
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net"
	"strconv"
	"syscall"
	"time"

	"engarde/internal/obs"
)

// ErrAttestation marks a failed quote verification. It is permanent: the
// platform is not running genuine EnGarde, and retrying cannot fix that.
var ErrAttestation = errors.New("engarde: attestation failed")

// ErrBusy is wrapped into the error returned when every attempt was shed
// with a busy verdict.
var ErrBusy = errors.New("engarde: service busy")

// ErrSessionLost marks a session severed mid-flight: the connection died
// or the router reset the splice with a CodeBackendLost verdict. The
// session produced no verdict; the image is intact client-side, so the
// right response is to replay provisioning against the next endpoint.
var ErrSessionLost = errors.New("engarde: session lost mid-flight")

// ErrSessionFailed marks a session the server ended with a failure code
// instead of judging the image: the session key or the transfer was
// rejected, or the provisioning machinery failed. It says nothing about
// the image, so it is transient, never a verdict.
var ErrSessionFailed = errors.New("engarde: session failed before a verdict")

// FailureClass is the typed classification driving the failover loop.
type FailureClass int

// Failure classes.
const (
	// FailTransient: the endpoint is alive but the attempt failed (shed
	// busy, machinery hiccup). Back off and retry — same endpoint is fine.
	FailTransient FailureClass = iota
	// FailSessionLost: the endpoint (or the path to it) died mid-session.
	// Replay against the next endpoint in the failover order.
	FailSessionLost
	// FailPermanent: retrying cannot help (attestation mismatch). Give up.
	FailPermanent
)

func (fc FailureClass) String() string {
	switch fc {
	case FailTransient:
		return "transient"
	case FailSessionLost:
		return "session-lost"
	case FailPermanent:
		return "permanent"
	default:
		return fmt.Sprintf("failure-class(%d)", int(fc))
	}
}

// ClassifyFailure maps a provisioning error to its failure class. Dial
// failures, connection resets, and mid-stream EOFs are session losses —
// the endpoint is gone, not busy — while everything else except a failed
// attestation is transient.
func ClassifyFailure(err error) FailureClass {
	switch {
	case err == nil:
		return FailTransient
	case errors.Is(err, ErrAttestation):
		return FailPermanent
	case errors.Is(err, ErrSessionLost),
		errors.Is(err, io.EOF),
		errors.Is(err, io.ErrUnexpectedEOF),
		errors.Is(err, io.ErrClosedPipe),
		errors.Is(err, net.ErrClosed),
		errors.Is(err, syscall.ECONNRESET),
		errors.Is(err, syscall.ECONNREFUSED),
		errors.Is(err, syscall.EPIPE):
		return FailSessionLost
	default:
		var op *net.OpError
		if errors.As(err, &op) {
			return FailSessionLost
		}
		return FailTransient
	}
}

// retryable reports whether err is worth another attempt: transport and
// machinery trouble is, a failed attestation is not.
func retryable(err error) bool {
	return ClassifyFailure(err) != FailPermanent
}

// Retry defaults for RetryPolicy fields left zero.
const (
	DefaultRetryAttempts  = 5
	DefaultRetryBaseDelay = 100 * time.Millisecond
	DefaultRetryMaxDelay  = 5 * time.Second
)

// RetryPolicy configures ProvisionRetry's and ProvisionFailover's backoff.
type RetryPolicy struct {
	// Attempts is the total number of tries, including the first.
	// 0 means DefaultRetryAttempts.
	Attempts int
	// BaseDelay is the backoff ceiling before the first retry; it doubles
	// per retry up to MaxDelay. 0 means DefaultRetryBaseDelay.
	BaseDelay time.Duration
	// MaxDelay caps the backoff ceiling. 0 means DefaultRetryMaxDelay.
	MaxDelay time.Duration
	// Seed fixes the jitter stream (tests); 0 derives one from the clock.
	Seed int64
	// Sleep replaces time.Sleep (tests).
	Sleep func(time.Duration)
	// OnRetry, when set, observes each backoff decision before sleeping.
	OnRetry func(attempt int, delay time.Duration, cause error)
	// OnFailover, when set, observes each endpoint switch: the endpoint
	// index being abandoned, the one about to be tried, and the session
	// loss that caused the move.
	OnFailover func(from, to int, cause error)
	// Trace, when set, is the session's client-side trace: every attempt
	// records an "attempt" span on it (tagged attempt/endpoint/outcome),
	// and its 128-bit ID is propagated to the router and gateway — so a
	// failed-over session is ONE trace whose attempt-1 and attempt-2 spans
	// share an ID across the kill/replay seam, not two unrelated ones.
	Trace *obs.Trace
}

func (p RetryPolicy) withDefaults() RetryPolicy {
	if p.Attempts <= 0 {
		p.Attempts = DefaultRetryAttempts
	}
	if p.BaseDelay <= 0 {
		p.BaseDelay = DefaultRetryBaseDelay
	}
	if p.MaxDelay <= 0 {
		p.MaxDelay = DefaultRetryMaxDelay
	}
	if p.Seed == 0 {
		p.Seed = time.Now().UnixNano()
	}
	if p.Sleep == nil {
		p.Sleep = time.Sleep
	}
	return p
}

// ProvisionRetry runs Provision with retries against a single endpoint:
// each attempt dials a fresh connection, and failed attempts back off
// exponentially with full jitter — delay drawn uniformly from
// [0, min(MaxDelay, BaseDelay·2^n)) — floored by the server's Retry-After
// hint when the gateway shed the attempt with a busy verdict. Non-busy
// verdicts (compliant or rejected) and permanent errors return
// immediately.
func (c *Client) ProvisionRetry(dial func() (net.Conn, error), image []byte, p RetryPolicy) (Verdict, error) {
	return c.ProvisionFailover([]func() (net.Conn, error){dial}, image, p)
}

// ProvisionFailover is ProvisionRetry extended into a session-failover
// loop across a fleet: dials lists the session's endpoints in the ring's
// failover order (owner first, then successors — cluster.Ring.Sequence).
// The image is retained client-side, so when an attempt ends in a session
// loss — mid-stream connection death, a dial failure, or the router's
// typed CodeBackendLost reset — provisioning is replayed in full against
// the next endpoint. Busy sheds also advance to the next endpoint (the
// saturated owner's successor may have room), keeping the shed backend's
// Retry-After hint as the backoff floor. Transient machinery failures
// retry the same endpoint; permanent failures (attestation) return
// immediately. The total attempt budget is shared across endpoints.
func (c *Client) ProvisionFailover(dials []func() (net.Conn, error), image []byte, p RetryPolicy) (Verdict, error) {
	if len(dials) == 0 {
		return Verdict{}, errors.New("engarde: no endpoints to provision against")
	}
	p = p.withDefaults()
	rng := rand.New(rand.NewSource(p.Seed))

	// One trace context for the whole failover loop: every attempt — and
	// every hop each attempt touches — shares the same 128-bit trace ID,
	// distinguished by the attempt spans' tags. tc is invalid (and nothing
	// propagates) when the caller set no Trace.
	tc := p.Trace.Context()

	advance := func(cur int, cause error) int {
		next := (cur + 1) % len(dials)
		if next != cur {
			if p.OnFailover != nil {
				p.OnFailover(cur, next, cause)
			}
		}
		return next
	}

	var last error
	var hint time.Duration
	endpoint := 0
	for attempt := 0; attempt < p.Attempts; attempt++ {
		if attempt > 0 {
			ceiling := p.BaseDelay << (attempt - 1)
			if ceiling > p.MaxDelay || ceiling <= 0 {
				ceiling = p.MaxDelay
			}
			delay := time.Duration(rng.Int63n(int64(ceiling) + 1))
			if hint > delay {
				delay = hint // never retry before the server asked us to
			}
			if p.OnRetry != nil {
				p.OnRetry(attempt, delay, last)
			}
			p.Sleep(delay)
		}
		asp := p.Trace.StartSpanArgs("attempt", map[string]string{
			"attempt":  strconv.Itoa(attempt + 1),
			"endpoint": strconv.Itoa(endpoint),
		})
		conn, err := dials[endpoint]()
		if err != nil {
			asp.SetArg("outcome", "dial-error")
			asp.End()
			last = err
			endpoint = advance(endpoint, err)
			continue
		}
		v, err := c.provision(conn, image, tc, p.Trace)
		conn.Close()
		if err != nil {
			switch ClassifyFailure(err) {
			case FailPermanent:
				asp.SetArg("outcome", "permanent")
				asp.End()
				return Verdict{}, err
			case FailSessionLost:
				asp.SetArg("outcome", "session-lost")
				last = fmt.Errorf("%w: %w", ErrSessionLost, err)
				endpoint = advance(endpoint, last)
			default:
				asp.SetArg("outcome", "transient")
				last = err
			}
			asp.End()
			continue
		}
		switch v.Code {
		case CodeBusy:
			asp.SetArg("outcome", "busy")
			asp.End()
			hint = time.Duration(v.RetryAfterMillis) * time.Millisecond
			last = fmt.Errorf("%w: %s", ErrBusy, v.Reason)
			endpoint = advance(endpoint, last)
			continue
		case CodeBackendLost:
			asp.SetArg("outcome", "backend-lost")
			asp.End()
			if d := time.Duration(v.RetryAfterMillis) * time.Millisecond; d > hint {
				hint = d
			}
			last = fmt.Errorf("%w: %s", ErrSessionLost, v.Reason)
			endpoint = advance(endpoint, last)
			continue
		}
		asp.SetArg("outcome", "verdict")
		asp.End()
		return v, nil
	}
	return Verdict{}, fmt.Errorf("engarde: provisioning failed after %d attempts: %w", p.Attempts, last)
}
