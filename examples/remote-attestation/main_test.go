package main

import (
	"testing"

	"engarde"
	"engarde/internal/attest"
)

// TestMITMKeyRejected: a man-in-the-middle that presents its own channel
// key next to a genuine quote is caught, while the genuine enclave's key
// verifies under the same quote check.
func TestMITMKeyRejected(t *testing.T) {
	provider, err := engarde.NewProvider(engarde.ProviderConfig{})
	if err != nil {
		t.Fatal(err)
	}
	cfg := engarde.EnclaveConfig{HeapPages: 2500, ClientPages: 512}
	expected, err := engarde.ExpectedMeasurement(engarde.SGXv2, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !demonstrateMITM(provider, expected) {
		t.Fatal("MITM key accepted")
	}

	enclave, err := provider.CreateEnclave(cfg)
	if err != nil {
		t.Fatal(err)
	}
	quote, err := enclave.Quote()
	if err != nil {
		t.Fatal(err)
	}
	der, err := enclave.PublicKeyDER()
	if err != nil {
		t.Fatal(err)
	}
	if err := attest.VerifyQuote(quote, provider.AttestationPublicKey(), expected, attest.BindPublicKey(der)); err != nil {
		t.Fatalf("genuine enclave key rejected: %v", err)
	}
}
