package secchan

import (
	"bytes"
	"crypto/ecdh"
	"crypto/ed25519"
	"crypto/rand"
	"crypto/x509"
	"testing"
)

func enclaveKeyDER(t testing.TB) (*EnclaveKey, []byte) {
	t.Helper()
	ek, err := GenerateEnclaveKey(nil)
	if err != nil {
		t.Fatal(err)
	}
	der, err := ek.PublicDER()
	if err != nil {
		t.Fatal(err)
	}
	return ek, der
}

// TestWrapBoundToEnclave: a session-open frame made for enclave A's key
// fails on enclave B. The frame is bound to the key the quote attested.
func TestWrapBoundToEnclave(t *testing.T) {
	a, derA := enclaveKeyDER(t)
	b, _ := enclaveKeyDER(t)
	for _, extra := range [][]byte{nil, []byte("trace")} {
		_, wrapped, err := WrapSessionKeyExtra(derA, nil, extra)
		if err != nil {
			t.Fatal(err)
		}
		if _, _, err := b.UnwrapSessionKeyExtra(wrapped, nil); err == nil {
			t.Errorf("extra %q: enclave B unwrapped a frame made for enclave A", extra)
		}
		if _, _, err := a.UnwrapSessionKeyExtra(wrapped, nil); err != nil {
			t.Errorf("extra %q: enclave A rejected its own frame: %v", extra, err)
		}
	}
}

// TestUnwrapRejectsEveryByteFlip flips each bit of every byte of the
// version, the ephemeral key and the sealed extra in turn: every mutant
// must fail the unwrap, so a router can neither read nor forge the
// session-open frame.
func TestUnwrapRejectsEveryByteFlip(t *testing.T) {
	ek, der := enclaveKeyDER(t)
	for _, extra := range [][]byte{nil, bytes.Repeat([]byte{0x5A}, 25)} {
		_, wrapped, err := WrapSessionKeyExtra(der, nil, extra)
		if err != nil {
			t.Fatal(err)
		}
		for i := range wrapped {
			for bit := 0; bit < 8; bit++ {
				mut := bytes.Clone(wrapped)
				mut[i] ^= 1 << bit
				if _, got, err := ek.UnwrapSessionKeyExtra(mut, nil); err == nil {
					t.Fatalf("extra len %d: flip of byte %d bit %d accepted (extra %x)", len(extra), i, bit, got)
				}
			}
		}
		// Truncation and extension fail too.
		if _, err := ek.UnwrapSessionKey(wrapped[:len(wrapped)-1], nil); err == nil {
			t.Errorf("extra len %d: truncated frame accepted", len(extra))
		}
		if _, err := ek.UnwrapSessionKey(append(bytes.Clone(wrapped), 0), nil); err == nil {
			t.Errorf("extra len %d: extended frame accepted", len(extra))
		}
	}
}

// TestUnwrapRejectsLowOrderKey: an all-zero ephemeral key gives an all-zero
// shared secret, which must fail the handshake rather than derive a key
// anyone can compute.
func TestUnwrapRejectsLowOrderKey(t *testing.T) {
	ek, _ := enclaveKeyDER(t)
	frame := make([]byte, wrapOverhead)
	frame[0] = wrapVersion
	if _, err := ek.UnwrapSessionKey(frame, nil); err == nil {
		t.Fatal("all-zero ephemeral key accepted")
	}
}

// TestWrapRefusesNonX25519: the client agrees only with an X25519 enclave
// key. Other PKIX key types (P-256, Ed25519) are refused before any key
// material is made. The RSA case is covered against the provider's real
// platform key in the root package.
func TestWrapRefusesNonX25519(t *testing.T) {
	p256, err := ecdh.P256().GenerateKey(rand.Reader)
	if err != nil {
		t.Fatal(err)
	}
	edPub, _, err := ed25519.GenerateKey(rand.Reader)
	if err != nil {
		t.Fatal(err)
	}
	for name, pub := range map[string]any{"p256": p256.PublicKey(), "ed25519": edPub} {
		der, err := x509.MarshalPKIXPublicKey(pub)
		if err != nil {
			t.Fatal(err)
		}
		if _, _, err := WrapSessionKey(der, nil); err == nil {
			t.Errorf("%s enclave key accepted", name)
		}
	}
	if _, _, err := WrapSessionKey([]byte("not DER"), nil); err == nil {
		t.Error("garbage enclave key accepted")
	}
}
