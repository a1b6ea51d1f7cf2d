package engarde

import (
	"bytes"
	"context"
	"crypto/rsa"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"time"

	"engarde/internal/attest"
	"engarde/internal/obs"
	"engarde/internal/secchan"
	"engarde/internal/sgx"
)

// This file implements the wire protocol of §3 over any io.ReadWriter
// (net.Conn in the cmd tools and examples):
//
//	enclave → client : hello      {quote, enclave public key DER}
//	client  → enclave: key        {ephemeral X25519 key + sealed extra; both derive the AES-256 key}
//	client  → enclave: content    length header + encrypted blocks
//	enclave → client : verdict    {compliant, reason}
//
// The verdict (and the executable-page list, which stays host-side) is all
// the provider ever learns about the client's code.

// RouteProto is the protocol marker of a RouteHello preamble frame.
const RouteProto = "engarde-route/1"

// RouteHello is the optional routing preamble: one JSON frame the client
// sends immediately on connect, before reading the server hello, announcing
// which image digest the session is for. A fleet front door
// (cmd/engarde-router) peeks it to pick the digest's ring owner, then
// strips it from the stream; it never reaches the owning gatewayd. Because
// both sides of TCP are independent, sending it before the server hello
// cannot deadlock — and a gatewayd contacted directly simply discards it.
//
// The preamble is advisory plaintext: it routes, it never authorizes. The
// digest only steers cache affinity (a lie costs the liar their own warm
// path), and the enclave protocol proper starts after it unchanged.
type RouteHello struct {
	// Proto must be RouteProto; routers ignore frames without it.
	Proto string `json:"proto"`
	// ImageDigest is the lowercase hex SHA-256 of the image to be
	// provisioned — the same digest the gateway's verdict cache keys on.
	// Empty routes by least-loaded instead of affinity.
	ImageDigest string `json:"image_digest,omitempty"`
	// Tenant names the quota bucket this session draws from; empty draws
	// from the shared default bucket.
	Tenant string `json:"tenant,omitempty"`
	// DeadlineMillis is how long the client is willing to wait end-to-end;
	// 0 means no deadline. Routers shed sessions whose deadline cannot
	// cover a saturated backend's Retry-After hint.
	DeadlineMillis int64 `json:"deadline_ms,omitempty"`
	// TraceID/ParentSpan/Sampled are the client's cross-process trace
	// context (obs.TraceContext): a random 128-bit trace ID as 32 hex
	// chars, the originating 64-bit span as 16 hex chars, and the sampling
	// decision. Like the digest, they are advisory plaintext — the router
	// adopts the ID onto its splice spans so one trace shows the whole
	// session, but the authoritative copy rides encrypted inside the
	// wrapped session key, where the router cannot alter it. IDs are drawn
	// from crypto/rand, never derived from image bytes, so announcing one
	// discloses nothing about the content.
	TraceID    string `json:"trace_id,omitempty"`
	ParentSpan string `json:"parent_span,omitempty"`
	Sampled    bool   `json:"sampled,omitempty"`
}

// TraceContext assembles the preamble's trace fields into an
// obs.TraceContext (validate with Valid before adopting).
func (rh RouteHello) TraceContext() obs.TraceContext {
	return obs.TraceContext{TraceID: rh.TraceID, ParentSpan: rh.ParentSpan, Sampled: rh.Sampled}
}

// MaxRouteHelloBytes bounds a preamble frame; anything larger is session
// traffic, not routing metadata. Routers peeking the first frame use it to
// decide early that a long frame cannot be a preamble.
const MaxRouteHelloBytes = 4096

const maxRouteHello = MaxRouteHelloBytes

// PeekBusy reports whether a received hello frame is an overload shed and
// returns its verdict. The fleet router uses it to recognize a saturated
// backend — and forward that backend's Retry-After hint — without
// otherwise participating in the protocol.
func PeekBusy(frame []byte) (Verdict, bool) {
	var h hello
	if err := decodeJSON(frame, &h); err != nil || h.Busy == nil {
		return Verdict{}, false
	}
	return busyVerdict(h.Busy), true
}

// busyVerdict normalizes a busy hello's embedded verdict. A shed is never
// an outcome, whatever the frame claims: only the hint and the reason text
// are taken from the wire, so a mangled busy hello cannot pose as a
// compliant or non-compliant verdict.
func busyVerdict(b *Verdict) Verdict {
	return Verdict{Code: CodeBusy, Reason: b.Reason, RetryAfterMillis: max(b.RetryAfterMillis, 0)}
}

// ParseRouteHello reports whether one received frame is a routing preamble.
// Both the router (to peek the digest) and the server (to discard a
// preamble that reached it directly) use it.
func ParseRouteHello(frame []byte) (RouteHello, bool) {
	var rh RouteHello
	if len(frame) > maxRouteHello || len(frame) == 0 || frame[0] != '{' {
		return RouteHello{}, false
	}
	if err := json.Unmarshal(frame, &rh); err != nil || rh.Proto != RouteProto {
		return RouteHello{}, false
	}
	return rh, true
}

// hello is the first protocol message. A gateway under overload sends a
// hello carrying only Busy — no quote, no key — so a turned-away client
// learns it was shed (and when to retry) instead of watching a silently
// closed socket.
type hello struct {
	Quote     quoteWire `json:"quote"`
	PublicKey []byte    `json:"public_key_der"`
	Busy      *Verdict  `json:"busy,omitempty"`
}

// quoteWire is the JSON encoding of an attestation quote.
type quoteWire struct {
	MREnclave  []byte `json:"mrenclave"`
	EnclaveID  uint64 `json:"enclave_id"`
	SGXVersion int    `json:"sgx_version"`
	ReportData []byte `json:"report_data"`
	MAC        []byte `json:"mac"`
	Signature  []byte `json:"signature"`
}

func quoteToWire(q Quote) quoteWire {
	return quoteWire{
		MREnclave:  q.Report.MREnclave[:],
		EnclaveID:  uint64(q.Report.EnclaveID),
		SGXVersion: int(q.Report.Version),
		ReportData: q.Report.ReportData[:],
		MAC:        q.Report.MAC[:],
		Signature:  q.Signature,
	}
}

func quoteFromWire(w quoteWire) (Quote, error) {
	var q Quote
	if len(w.MREnclave) != len(q.Report.MREnclave) ||
		len(w.ReportData) != len(q.Report.ReportData) ||
		len(w.MAC) != len(q.Report.MAC) {
		return q, fmt.Errorf("engarde: malformed quote encoding")
	}
	copy(q.Report.MREnclave[:], w.MREnclave)
	q.Report.EnclaveID = sgx.EnclaveID(w.EnclaveID)
	q.Report.Version = sgx.Version(w.SGXVersion)
	copy(q.Report.ReportData[:], w.ReportData)
	copy(q.Report.MAC[:], w.MAC)
	q.Signature = w.Signature
	return q, nil
}

// ReasonCode classifies a verdict machine-readably, so clients (and the
// gateway's stats) can distinguish failure classes without parsing the
// human-readable Reason string.
type ReasonCode string

// Verdict reason codes. The client returns a verdict carrying
// CodeSessionKey, CodeTransfer or CodeInternal as an error wrapping
// ErrSessionFailed: those sessions ended before the image was judged.
const (
	// CodeOK marks a compliant verdict (the zero value, omitted on the wire).
	CodeOK ReasonCode = ""
	// CodeSessionKey: the wrapped session key could not be unwrapped.
	CodeSessionKey ReasonCode = "session-key-rejected"
	// CodeTransfer: the encrypted content transfer failed (framing or
	// authentication).
	CodeTransfer ReasonCode = "transfer-failed"
	// CodePolicy: the content violated an agreed policy module.
	CodePolicy ReasonCode = "policy-violation"
	// CodeRejected: the content was structurally non-compliant (malformed
	// executable, stripped symbols, heap exhausted, ...).
	CodeRejected ReasonCode = "rejected"
	// CodeInternal: the provisioning machinery itself failed.
	CodeInternal ReasonCode = "internal-error"
	// CodeBusy: the service shed the connection under overload before any
	// enclave work; the content was never seen. Retry after the verdict's
	// RetryAfterMillis hint.
	CodeBusy ReasonCode = "busy"
	// CodeBackendLost: the fleet router lost its backend mid-session (crash,
	// eviction) and reset the splice with this typed verdict instead of a
	// bare connection drop. The session produced no verdict; the client
	// should replay provisioning against the next owner in its failover
	// order (ProvisionFailover does this automatically).
	CodeBackendLost ReasonCode = "backend-lost"
)

// Verdict is the provider-visible outcome sent back to the client.
type Verdict struct {
	Compliant bool       `json:"compliant"`
	Code      ReasonCode `json:"code,omitempty"`
	Reason    string     `json:"reason,omitempty"`
	// RetryAfterMillis, on a CodeBusy verdict, hints how long the client
	// should back off before retrying (the Retry-After of the protocol).
	RetryAfterMillis int64 `json:"retry_after_ms,omitempty"`
}

// wellFormed reports whether v can be a final verdict: compliant with no
// code, or non-compliant with a known non-empty code. Anything else is a
// mangled frame, never an outcome.
func (v Verdict) wellFormed() bool {
	if v.Compliant {
		return v.Code == CodeOK
	}
	switch v.Code {
	case CodeSessionKey, CodeTransfer, CodePolicy, CodeRejected, CodeInternal, CodeBusy, CodeBackendLost:
		return true
	}
	return false
}

// VerdictForReport derives the wire verdict from a provisioning report.
func VerdictForReport(rep *Report) Verdict {
	if rep.Compliant {
		return Verdict{Compliant: true}
	}
	v := Verdict{Compliant: false, Code: CodeRejected, Reason: rep.Reason}
	if rep.Violation != nil {
		v.Code = CodePolicy
	}
	return v
}

func sendJSON(w io.Writer, v any) error {
	data, err := json.Marshal(v)
	if err != nil {
		return fmt.Errorf("engarde: encoding message: %w", err)
	}
	return secchan.WriteBlock(w, data)
}

func recvJSON(r io.Reader, v any) error {
	data, err := secchan.ReadBlock(r)
	if err != nil {
		return err
	}
	if err := decodeJSON(data, v); err != nil {
		return fmt.Errorf("engarde: decoding message: %w", err)
	}
	return nil
}

// decodeJSON decodes one protocol message strictly. The hello and the
// verdict travel as plaintext frames, so an unknown field or trailing
// bytes mean the frame was mangled on the way; rejecting it costs the
// session, where a lenient decode could silently zero a field and change
// the verdict.
func decodeJSON(data []byte, v any) error {
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		return err
	}
	if _, err := dec.Token(); err != io.EOF {
		return errors.New("trailing data after message")
	}
	return nil
}

// SendBusy writes the overload-shedding first message: a hello carrying a
// CodeBusy verdict with a Retry-After hint instead of a quote. Serving
// layers call it when admission control turns a connection away.
func SendBusy(w io.Writer, retryAfter time.Duration) error {
	return sendJSON(w, hello{Busy: &Verdict{
		Compliant:        false,
		Code:             CodeBusy,
		Reason:           "service overloaded, retry later",
		RetryAfterMillis: retryAfter.Milliseconds(),
	}})
}

// SendBackendLost writes the typed mid-session reset a fleet router sends
// when the backend side of a splice dies: a verdict frame the client can
// read in place of the one the dead backend never produced. Verdict frames
// are plaintext-framed JSON (only the content stream is session-key
// encrypted), so the router can inject one without holding any session
// secret. retryAfter hints how long the client should wait before
// replaying against the next owner.
func SendBackendLost(w io.Writer, reason string, retryAfter time.Duration) error {
	return sendJSON(w, Verdict{
		Compliant:        false,
		Code:             CodeBackendLost,
		Reason:           reason,
		RetryAfterMillis: retryAfter.Milliseconds(),
	})
}

// ProvisionFunc provisions a received image and returns the report. The
// default is (*Enclave).ProvisionStaged; serving layers substitute a
// cache-aware implementation keyed on StagedImage.Digest
// (internal/gateway).
type ProvisionFunc func(st *StagedImage) (*Report, error)

// ServeProvision runs the enclave side of the provisioning protocol over
// conn: send hello, receive the wrapped session key, receive the encrypted
// content, provision it, and reply with the verdict. The full Report stays
// with the provider.
func (e *Enclave) ServeProvision(conn io.ReadWriter) (*Report, error) {
	return e.ServeProvisionFunc(context.Background(), conn, e.ProvisionStaged)
}

// failNotify sends a failure verdict for cause and returns cause joined
// with any send error — a peer that has already vanished must not mask why
// the handshake failed, but the send failure is still reported.
//
// A cause rooted in an enclave loss is never reported under the caller's
// code: the session died through no fault of the image, so the client gets
// CodeBackendLost — the typed "replay elsewhere" signal — instead of a
// failure verdict it might mistake for an outcome.
func failNotify(conn io.Writer, code ReasonCode, reason string, cause error) error {
	if errors.Is(cause, ErrEnclaveLost) {
		code, reason = CodeBackendLost, "enclave lost mid-session"
	}
	if err := sendJSON(conn, Verdict{Compliant: false, Code: code, Reason: reason}); err != nil {
		return errors.Join(cause, fmt.Errorf("engarde: sending failure verdict: %w", err))
	}
	return cause
}

// serveHandshake runs the protocol prologue: send the hello (quote +
// public key), then receive the wrapped session key — discarding a routing
// preamble that reached us directly — and complete the key exchange.
func (e *Enclave) serveHandshake(tr *obs.Trace, conn io.ReadWriter) error {
	sp := tr.StartPhase("attest")
	q, err := e.Quote()
	if err != nil {
		sp.End()
		return fmt.Errorf("engarde: quoting: %w", err)
	}
	pub, err := e.PublicKeyDER()
	if err != nil {
		sp.End()
		return err
	}
	err = sendJSON(conn, hello{Quote: quoteToWire(q), PublicKey: pub})
	sp.End()
	if err != nil {
		return err
	}

	sp = tr.StartPhase("key-exchange")
	wrapped, err := secchan.ReadBlock(conn)
	if err != nil {
		sp.End()
		return fmt.Errorf("engarde: receiving session key: %w", err)
	}
	if _, ok := ParseRouteHello(wrapped); ok {
		// A client that announces routing metadata but connected straight to
		// us (no router in front to strip it): discard the preamble and read
		// the real first frame. A session-open frame starts with a version
		// byte that is never '{', so it cannot be mistaken for the
		// preamble's JSON.
		wrapped, err = secchan.ReadBlock(conn)
		if err != nil {
			sp.End()
			return fmt.Errorf("engarde: receiving session key: %w", err)
		}
	}
	err = e.AcceptSessionKey(wrapped)
	sp.End()
	if err != nil {
		// An unreadable key is a protocol failure; tell the peer.
		return failNotify(conn, CodeSessionKey, "session key rejected", err)
	}
	// Adopt the client's trace ID from the authenticated session-open
	// field, joining this session's spans (admission, pipeline phases,
	// verdict) to the client's cross-process trace. The session trace was
	// created at admission, before any client byte arrived, so adoption
	// happens here — the first moment the authenticated context exists.
	if tc, ok := e.SessionTraceContext(); ok && tc.Sampled {
		tr.AdoptID(tc.TraceID)
	}
	return nil
}

// ServeProvisionFunc is ServeProvision with the provisioning step swapped
// out: the received image is handed to provision instead of going straight
// into (*Enclave).ProvisionStaged. The gateway uses this to consult its
// verdict cache on the digest computed while the frames arrived.
//
// The content transfer overlaps decryption, hashing and speculative
// disassembly instead of completing before they start. ctx carries the
// session's trace (obs.WithTrace): the protocol steps — attestation, key
// exchange, content transfer, provisioning, verdict — are recorded as spans
// on it, plus the recv-overlap span (recorded by the receive) and a
// first-byte-to-verdict span anchored at the first content frame's
// arrival. Attestation, key-exchange and transfer spans are cycle-metered
// (their charges fall outside the pipeline's own phase spans); the
// provision step is wall-clock only, because the pipeline records its own
// phase spans inside it.
func (e *Enclave) ServeProvisionFunc(ctx context.Context, conn io.ReadWriter, provision ProvisionFunc) (*Report, error) {
	tr := obs.FromContext(ctx)
	if err := e.serveHandshake(tr, conn); err != nil {
		return nil, err
	}

	sp := tr.StartPhase("recv-image")
	st, err := e.core.RecvImageStreaming(conn)
	sp.End()
	if err != nil {
		return nil, failNotify(conn, CodeTransfer, "transfer failed", err)
	}

	psp := tr.StartSpan("provision")
	rep, err := provision(st)
	psp.End()
	st.Release() // no-op when provision consumed the decode
	if err != nil {
		return nil, failNotify(conn, CodeInternal, "provisioning failed", err)
	}

	sp = tr.StartPhase("send-verdict")
	err = sendJSON(conn, VerdictForReport(rep))
	sp.End()
	if err != nil {
		return rep, err
	}
	if !st.FirstByteAt.IsZero() {
		tr.RecordSpan("first-byte-to-verdict", st.FirstByteAt, time.Since(st.FirstByteAt))
	}
	return rep, nil
}

// Client is the cloud client's side of the protocol.
type Client struct {
	// Expected is the EnGarde measurement the client demands (computed
	// from the inspected EnGarde code via ExpectedMeasurement).
	Expected Measurement
	// PlatformKey is the provider platform's attestation public key.
	PlatformKey *rsa.PublicKey
	// PlatformKeys are additional acceptable platform keys. A fleet runs
	// one platform key per node, and a routed session may land on any of
	// them; the quote must verify under PlatformKey or any entry here.
	PlatformKeys []*rsa.PublicKey
	// Route, when non-nil, is sent as a routing preamble before the
	// protocol proper, so a fleet router can steer the session to its
	// digest's cache owner. An empty ImageDigest is filled in from the
	// image being provisioned.
	Route *RouteHello
	// BlockSize is the encrypted-transfer frame payload size; 0 means the
	// protocol default of 64 KiB. Smaller frames give a streaming server
	// finer-grained transfer/pipeline overlap at more framing overhead.
	BlockSize int
}

// sendRoutePreamble announces the session's routing metadata. Digest
// auto-fill keeps callers honest-by-default: announcing a different image
// than the one streamed only degrades the caller's own cache affinity.
// A valid trace context is copied into the preamble's plaintext trace
// fields so the router can tag its spans with the session's ID.
func (c *Client) sendRoutePreamble(conn io.Writer, image []byte, tc obs.TraceContext) error {
	rh := *c.Route
	rh.Proto = RouteProto
	if rh.ImageDigest == "" {
		sum := sha256.Sum256(image)
		rh.ImageDigest = hex.EncodeToString(sum[:])
	}
	if tc.Valid() {
		rh.TraceID, rh.ParentSpan, rh.Sampled = tc.TraceID, tc.ParentSpan, tc.Sampled
	}
	return sendJSON(conn, rh)
}

// verifyAny checks the quote against every configured platform key.
func (c *Client) verifyAny(q Quote, publicKeyDER []byte) error {
	keys := make([]*rsa.PublicKey, 0, 1+len(c.PlatformKeys))
	if c.PlatformKey != nil {
		keys = append(keys, c.PlatformKey)
	}
	keys = append(keys, c.PlatformKeys...)
	var err error
	for _, key := range keys {
		if key == nil {
			continue
		}
		if err = attest.VerifyQuote(q, key, c.Expected, attest.BindPublicKey(publicKeyDER)); err == nil {
			return nil
		}
	}
	if err == nil {
		err = errors.New("engarde: no platform key configured")
	}
	return err
}

// Provision runs the client side over conn: verify the quote, wrap a
// session key, stream the executable, and return the verdict.
func (c *Client) Provision(conn io.ReadWriter, image []byte) (Verdict, error) {
	return c.provision(conn, image, obs.TraceContext{}, nil)
}

// ProvisionTraced is Provision under a client-side trace: tr's 128-bit ID
// (upgraded in place on first use) is propagated in the routing preamble
// and inside the wrapped session key, and the client's own protocol steps
// — hello wait, attestation, key exchange, content send, verdict wait —
// are recorded as spans on tr. Every hop that adopts the context exports
// spans under the same trace ID, so one Chrome trace shows the session
// end to end. A nil tr degrades to Provision.
func (c *Client) ProvisionTraced(conn io.ReadWriter, image []byte, tr *obs.Trace) (Verdict, error) {
	return c.provision(conn, image, tr.Context(), tr)
}

func (c *Client) provision(conn io.ReadWriter, image []byte, tc obs.TraceContext, tr *obs.Trace) (Verdict, error) {
	if c.Route != nil {
		if err := c.sendRoutePreamble(conn, image, tc); err != nil {
			return Verdict{}, fmt.Errorf("engarde: sending route preamble: %w", err)
		}
	}
	sp := tr.StartSpan("hello-wait")
	var h hello
	if err := recvJSON(conn, &h); err != nil {
		sp.End()
		return Verdict{}, fmt.Errorf("engarde: receiving hello: %w", err)
	}
	sp.End()
	if h.Busy != nil {
		// Shed at admission: the verdict is the whole outcome. Not an error —
		// the protocol worked; the service just has no room right now.
		return busyVerdict(h.Busy), nil
	}
	q, err := quoteFromWire(h.Quote)
	if err != nil {
		return Verdict{}, err
	}
	// Attestation: genuine EnGarde, on a genuine platform, with this exact
	// public key bound into the quote (§2, §3).
	sp = tr.StartSpan("attest-verify")
	err = c.verifyAny(q, h.PublicKey)
	sp.End()
	if err != nil {
		return Verdict{}, fmt.Errorf("%w: %w", ErrAttestation, err)
	}

	// The trace context rides sealed inside the session-open frame under a
	// key derived from the agreement: authenticated end-to-end, invisible
	// and unforgeable to the router that saw only the plaintext preamble
	// copy.
	sp = tr.StartSpan("key-exchange")
	var extra []byte
	if tc.Valid() {
		extra = tc.Marshal()
	}
	sess, wrapped, err := secchan.WrapSessionKeyExtra(h.PublicKey, nil, extra)
	if err != nil {
		sp.End()
		return Verdict{}, err
	}
	if err := secchan.WriteBlock(conn, wrapped); err != nil {
		sp.End()
		return Verdict{}, fmt.Errorf("engarde: sending session key: %w", err)
	}
	sp.End()
	blockSize := c.BlockSize
	if blockSize <= 0 {
		blockSize = 64 * 1024
	}
	sp = tr.StartSpan("send-content")
	err = sess.SendStream(conn, image, blockSize)
	sp.End()
	if err != nil {
		return Verdict{}, fmt.Errorf("engarde: sending content: %w", err)
	}

	sp = tr.StartSpan("verdict-wait")
	var v Verdict
	err = recvJSON(conn, &v)
	sp.End()
	if err != nil {
		return Verdict{}, fmt.Errorf("engarde: receiving verdict: %w", err)
	}
	if !v.wellFormed() {
		return Verdict{}, fmt.Errorf("engarde: receiving verdict: malformed verdict (compliant=%v, code %q)", v.Compliant, v.Code)
	}
	switch v.Code {
	case CodeSessionKey, CodeTransfer, CodeInternal:
		// The image was never judged — a fault on the wire can cause any of
		// these — so report an availability loss, not an outcome.
		return Verdict{}, fmt.Errorf("%w: %s: %s", ErrSessionFailed, v.Code, v.Reason)
	}
	return v, nil
}
