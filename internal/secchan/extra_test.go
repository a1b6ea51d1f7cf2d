package secchan

import (
	"bytes"
	"testing"
)

// TestSessionExtraRoundTrip covers the authenticated session-open field:
// bytes sealed into the session-open frame under a key derived from the
// enclave's public key come back intact from the enclave-side unwrap — and
// only from it.
func TestSessionExtraRoundTrip(t *testing.T) {
	ek, err := GenerateEnclaveKey(nil)
	if err != nil {
		t.Fatal(err)
	}
	pub, err := ek.PublicDER()
	if err != nil {
		t.Fatal(err)
	}

	extra := []byte("trace-context-goes-here-25-bytes!")
	client, wrapped, err := WrapSessionKeyExtra(pub, nil, extra)
	if err != nil {
		t.Fatal(err)
	}
	enclave, got, err := ek.UnwrapSessionKeyExtra(wrapped, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, extra) {
		t.Fatalf("extra round trip = %q, want %q", got, extra)
	}

	// The channel still works end to end with extra present.
	ct, err := client.Seal([]byte("content"))
	if err != nil {
		t.Fatal(err)
	}
	if pt, err := enclave.Open(ct); err != nil || string(pt) != "content" {
		t.Fatalf("Open = %q, %v", pt, err)
	}
}

// TestSessionExtraEmptyIsNil: a wrap without an extra yields a nil extra,
// and its frame still carries the extra's tag, so the unwrap confirms the
// derived keys even when there is nothing to carry.
func TestSessionExtraEmptyIsNil(t *testing.T) {
	ek, err := GenerateEnclaveKey(nil)
	if err != nil {
		t.Fatal(err)
	}
	pub, err := ek.PublicDER()
	if err != nil {
		t.Fatal(err)
	}
	_, wrapped, err := WrapSessionKey(pub, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(wrapped) != wrapOverhead {
		t.Fatalf("empty-extra frame is %d bytes, want %d (version + key + tag)", len(wrapped), wrapOverhead)
	}
	if _, extra, err := ek.UnwrapSessionKeyExtra(wrapped, nil); err != nil || extra != nil {
		t.Fatalf("empty extra: extra = %v, err = %v", extra, err)
	}
}

func TestSessionExtraTooLong(t *testing.T) {
	ek, err := GenerateEnclaveKey(nil)
	if err != nil {
		t.Fatal(err)
	}
	pub, err := ek.PublicDER()
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := WrapSessionKeyExtra(pub, nil, make([]byte, MaxSessionExtra+1)); err == nil {
		t.Fatal("oversized extra accepted")
	}
	if _, _, err := WrapSessionKeyExtra(pub, nil, make([]byte, MaxSessionExtra)); err != nil {
		t.Fatalf("max-size extra rejected: %v", err)
	}
}
