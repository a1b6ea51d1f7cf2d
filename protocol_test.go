package engarde

import (
	"bytes"
	"crypto/rsa"
	"encoding/json"
	"errors"
	"math/rand"
	"net"
	"testing"
	"testing/quick"

	"engarde/internal/interp"
	"engarde/internal/secchan"
	"engarde/internal/toolchain"
)

func TestServeProvisionGarbageHello(t *testing.T) {
	// A client that speaks garbage instead of the wrapped key must not
	// crash the server; the enclave reports an error and stays
	// unprovisioned.
	provider, err := NewProvider(ProviderConfig{EPCPages: 4096})
	if err != nil {
		t.Fatal(err)
	}
	encl, err := provider.CreateEnclave(smallEnclave())
	if err != nil {
		t.Fatal(err)
	}
	cli, srv := net.Pipe()
	defer cli.Close()
	done := make(chan error, 1)
	go func() {
		defer srv.Close()
		_, err := encl.ServeProvision(srv)
		done <- err
	}()
	// Drain the hello...
	if _, err := secchan.ReadBlock(cli); err != nil {
		t.Fatal(err)
	}
	// ...then send a garbage "wrapped key".
	if err := secchan.WriteBlock(cli, bytes.Repeat([]byte{0x41}, 256)); err != nil {
		t.Fatal(err)
	}
	// net.Pipe is synchronous: drain the server's failure verdict so its
	// write can complete.
	if _, err := secchan.ReadBlock(cli); err != nil {
		t.Fatal(err)
	}
	if err := <-done; err == nil {
		t.Error("server should report the bad session key")
	}
	if _, err := encl.Enter(); err == nil {
		t.Error("enclave must not be provisioned after a failed handshake")
	}
}

func TestClientRejectsMalformedQuoteEncoding(t *testing.T) {
	// A server sending a structurally invalid quote is rejected client-
	// side before any key material is generated.
	cli, srv := net.Pipe()
	defer cli.Close()
	go func() {
		defer srv.Close()
		_ = sendJSON(srv, hello{Quote: quoteWire{MREnclave: []byte{1, 2, 3}}, PublicKey: []byte{4}})
	}()
	c := &Client{}
	if _, err := c.Provision(cli, []byte("img")); err == nil {
		t.Error("malformed quote must be rejected")
	}
}

func TestTamperedStreamFailsAuthentication(t *testing.T) {
	// Flipping one ciphertext bit on the wire kills the transfer.
	provider, err := NewProvider(ProviderConfig{EPCPages: 4096})
	if err != nil {
		t.Fatal(err)
	}
	encl, err := provider.CreateEnclave(smallEnclave())
	if err != nil {
		t.Fatal(err)
	}
	pub, err := encl.PublicKeyDER()
	if err != nil {
		t.Fatal(err)
	}
	sess, wrapped, err := secchan.WrapSessionKey(pub, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := encl.AcceptSessionKey(wrapped); err != nil {
		t.Fatal(err)
	}
	var wire bytes.Buffer
	if err := sess.SendStream(&wire, []byte("payload payload payload"), 8); err != nil {
		t.Fatal(err)
	}
	raw := wire.Bytes()
	raw[len(raw)-2] ^= 0x80 // corrupt the last ciphertext block
	if _, err := encl.Core().RecvImageStreaming(bytes.NewReader(raw)); err == nil {
		t.Error("tampered stream must fail")
	}
}

// TestQuickProvisionAndExecute: for arbitrary seeds, the whole chain —
// generate, provision under the matching policy, run in the enclave —
// succeeds without faults. This is the system-level invariant of the
// reproduction: everything the toolchain emits is inspectable and
// runnable.
func TestQuickProvisionAndExecute(t *testing.T) {
	if testing.Short() {
		t.Skip("slow property test")
	}
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		cfg := toolchain.Config{
			Name: "prop", Seed: seed,
			NumFuncs:       3 + r.Intn(8),
			AvgFuncInsts:   20 + r.Intn(80),
			LibcCallRate:   0.03 + 0.05*r.Float64(),
			AppCallRate:    0.02,
			IndirectRate:   0.02 * r.Float64(),
			StackProtector: r.Intn(2) == 0,
			IFCC:           r.Intn(2) == 0,
		}
		bin, err := toolchain.Build(cfg)
		if err != nil {
			t.Errorf("seed %d: build: %v", seed, err)
			return false
		}
		pols := NewPolicySet(NoForbiddenInstructionsPolicy())
		if cfg.StackProtector {
			pols.Add(StackProtectorPolicy())
		}
		if cfg.IFCC {
			pols.Add(IFCCPolicy())
		}
		provider, err := NewProvider(ProviderConfig{EPCPages: 4096})
		if err != nil {
			t.Errorf("seed %d: provider: %v", seed, err)
			return false
		}
		ec := smallEnclave()
		ec.Policies = pols
		encl, err := provider.CreateEnclave(ec)
		if err != nil {
			t.Errorf("seed %d: enclave: %v", seed, err)
			return false
		}
		rep, err := encl.Provision(bin.Image)
		if err != nil {
			t.Errorf("seed %d: provision: %v", seed, err)
			return false
		}
		if !rep.Compliant {
			t.Errorf("seed %d: rejected: %s", seed, rep.Reason)
			return false
		}
		res, err := encl.Core().Execute(100_000)
		if err != nil {
			t.Errorf("seed %d: execute: %v", seed, err)
			return false
		}
		if res.Reason != interp.StopTrap && res.Reason != interp.StopMaxSteps {
			t.Errorf("seed %d: stop = %v", seed, res.Reason)
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 12}); err != nil {
		t.Error(err)
	}
}

func TestParsePolicies(t *testing.T) {
	set, err := ParsePolicies("musl, stack-protector,ifcc,no-forbidden")
	if err != nil {
		t.Fatal(err)
	}
	if set.Len() != 4 {
		t.Errorf("Len = %d, want 4", set.Len())
	}
	if _, err := ParsePolicies("bogus"); err == nil {
		t.Error("unknown policy must error")
	}
	empty, err := ParsePolicies(" ")
	if err != nil || empty.Len() != 0 {
		t.Errorf("empty list: %v, len %d", err, empty.Len())
	}
}

func TestVerdictReasonCodes(t *testing.T) {
	// A policy rejection reaches the client with a typed CodePolicy; a bad
	// session key arrives as CodeSessionKey. Structural rejections (not a
	// valid ELF) are CodeRejected.
	provider, err := NewProvider(ProviderConfig{EPCPages: 4096})
	if err != nil {
		t.Fatal(err)
	}
	expected, err := ExpectedMeasurement(SGXv2, smallEnclave())
	if err != nil {
		t.Fatal(err)
	}
	newEnclave := func(pols *PolicySet) *Enclave {
		cfg := smallEnclave()
		cfg.Policies = pols
		encl, err := provider.CreateEnclave(cfg)
		if err != nil {
			t.Fatal(err)
		}
		return encl
	}
	client := &Client{Expected: expected, PlatformKey: provider.AttestationPublicKey()}
	bin, err := toolchain.Build(toolchain.Config{
		Name: "rc", Seed: 73, NumFuncs: 6, AvgFuncInsts: 40, // no stack protector
	})
	if err != nil {
		t.Fatal(err)
	}

	provisionVerdict := func(encl *Enclave, image []byte) Verdict {
		t.Helper()
		defer encl.Destroy() // return the EPC pages to the shared device
		cli, srv := net.Pipe()
		defer cli.Close()
		go func() {
			defer srv.Close()
			_, _ = encl.ServeProvision(srv)
		}()
		v, err := client.Provision(cli, image)
		if err != nil {
			t.Fatalf("client.Provision: %v", err)
		}
		return v
	}

	if v := provisionVerdict(newEnclave(NewPolicySet(StackProtectorPolicy())), bin.Image); v.Compliant || v.Code != CodePolicy {
		t.Errorf("policy rejection: compliant=%v code=%q, want code %q", v.Compliant, v.Code, CodePolicy)
	}
	if v := provisionVerdict(newEnclave(NewPolicySet()), []byte("not an ELF at all")); v.Compliant || v.Code != CodeRejected {
		t.Errorf("structural rejection: compliant=%v code=%q, want code %q", v.Compliant, v.Code, CodeRejected)
	}
	if v := provisionVerdict(newEnclave(NewPolicySet()), bin.Image); !v.Compliant || v.Code != CodeOK {
		t.Errorf("compliant: compliant=%v code=%q, want code %q", v.Compliant, v.Code, CodeOK)
	}

	// Session-key rejection: drive the wire by hand with a garbage key.
	encl := newEnclave(NewPolicySet())
	cli, srv := net.Pipe()
	defer cli.Close()
	done := make(chan error, 1)
	go func() {
		defer srv.Close()
		_, err := encl.ServeProvision(srv)
		done <- err
	}()
	if _, err := secchan.ReadBlock(cli); err != nil { // drain hello
		t.Fatal(err)
	}
	if err := secchan.WriteBlock(cli, bytes.Repeat([]byte{0x41}, 256)); err != nil {
		t.Fatal(err)
	}
	var v Verdict
	if err := recvJSON(cli, &v); err != nil {
		t.Fatal(err)
	}
	if v.Compliant || v.Code != CodeSessionKey {
		t.Errorf("session-key rejection: compliant=%v code=%q, want code %q", v.Compliant, v.Code, CodeSessionKey)
	}
	if err := <-done; err == nil {
		t.Error("server must surface the session-key failure")
	}
}

func TestRoutePreambleDiscardedByDirectServer(t *testing.T) {
	// A client announcing routing metadata straight at a gatewayd (no
	// router in front to strip the preamble) must still provision: the
	// server discards the RouteHello frame and reads the real session key.
	provider, err := NewProvider(ProviderConfig{EPCPages: 4096})
	if err != nil {
		t.Fatal(err)
	}
	expected, err := ExpectedMeasurement(SGXv2, smallEnclave())
	if err != nil {
		t.Fatal(err)
	}
	encl, err := provider.CreateEnclave(smallEnclave())
	if err != nil {
		t.Fatal(err)
	}
	bin, err := toolchain.Build(toolchain.Config{Name: "route", Seed: 11, NumFuncs: 5, AvgFuncInsts: 30})
	if err != nil {
		t.Fatal(err)
	}
	client := &Client{
		Expected: expected,
		// Multi-key fleet config: a wrong key first, the real one in
		// PlatformKeys — the client must try all of them.
		PlatformKey:  nil,
		PlatformKeys: []*rsa.PublicKey{provider.AttestationPublicKey()},
		Route:        &RouteHello{Tenant: "t1", DeadlineMillis: 5000},
	}
	// Real TCP, not net.Pipe: the preamble is written while the server is
	// writing its hello, which only a buffered transport permits — exactly
	// the full-duplex property the preamble design relies on.
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	go func() {
		srv, err := l.Accept()
		if err != nil {
			return
		}
		defer srv.Close()
		_, _ = encl.ServeProvision(srv)
	}()
	cli, err := net.Dial("tcp", l.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer cli.Close()
	v, err := client.Provision(cli, bin.Image)
	if err != nil {
		t.Fatalf("Provision with route preamble: %v", err)
	}
	if !v.Compliant {
		t.Fatalf("verdict = %+v, want compliant", v)
	}
}

func TestParseRouteHello(t *testing.T) {
	rh := RouteHello{Proto: RouteProto, ImageDigest: "abc123", Tenant: "t", DeadlineMillis: 9}
	frame, err := json.Marshal(rh)
	if err != nil {
		t.Fatal(err)
	}
	got, ok := ParseRouteHello(frame)
	if !ok || got != rh {
		t.Fatalf("ParseRouteHello = %+v, %v; want %+v", got, ok, rh)
	}
	for _, bad := range [][]byte{
		nil,
		[]byte("garbage"),
		[]byte(`{"proto":"something-else"}`),
		[]byte(`{"image_digest":"abc"}`),
		bytes.Repeat([]byte{'{'}, maxRouteHello+1),
	} {
		if _, ok := ParseRouteHello(bad); ok {
			t.Errorf("ParseRouteHello(%.20q...) accepted, want rejected", bad)
		}
	}
}

func TestClientVerifyAnyRejectsWrongKeys(t *testing.T) {
	provider, err := NewProvider(ProviderConfig{EPCPages: 4096})
	if err != nil {
		t.Fatal(err)
	}
	other, err := NewProvider(ProviderConfig{EPCPages: 4096})
	if err != nil {
		t.Fatal(err)
	}
	expected, err := ExpectedMeasurement(SGXv2, smallEnclave())
	if err != nil {
		t.Fatal(err)
	}
	encl, err := provider.CreateEnclave(smallEnclave())
	if err != nil {
		t.Fatal(err)
	}
	client := &Client{Expected: expected, PlatformKeys: []*rsa.PublicKey{other.AttestationPublicKey()}}
	cli, srv := net.Pipe()
	defer cli.Close()
	go func() {
		defer srv.Close()
		_, _ = encl.ServeProvision(srv)
	}()
	if _, err := client.Provision(cli, []byte("img")); !errors.Is(err, ErrAttestation) {
		t.Fatalf("Provision with only a wrong platform key: err = %v, want ErrAttestation", err)
	}
}
