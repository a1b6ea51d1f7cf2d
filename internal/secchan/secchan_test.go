package secchan

import (
	"bytes"
	"net"
	"testing"
	"testing/quick"

	"engarde/internal/cycles"
)

// handshake runs the key exchange: enclave X25519 key → client agrees and
// sends its session-open frame → enclave unwraps. Returns both session
// halves.
func handshake(t *testing.T) (enclave, client *Session) {
	t.Helper()
	ek, err := GenerateEnclaveKey(nil)
	if err != nil {
		t.Fatal(err)
	}
	pub, err := ek.PublicDER()
	if err != nil {
		t.Fatal(err)
	}
	client, wrapped, err := WrapSessionKey(pub, nil)
	if err != nil {
		t.Fatal(err)
	}
	enclave, err = ek.UnwrapSessionKey(wrapped, nil)
	if err != nil {
		t.Fatal(err)
	}
	return enclave, client
}

func TestKeyExchangeAndBlocks(t *testing.T) {
	enclave, client := handshake(t)
	ct, err := client.Seal([]byte("enclave content page 1"))
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Contains(ct, []byte("enclave")) {
		t.Error("ciphertext leaks plaintext")
	}
	pt, err := enclave.Open(ct)
	if err != nil {
		t.Fatal(err)
	}
	if string(pt) != "enclave content page 1" {
		t.Errorf("round trip = %q", pt)
	}
}

func TestOutOfOrderRejected(t *testing.T) {
	enclave, client := handshake(t)
	c1, err := client.Seal([]byte("block-1"))
	if err != nil {
		t.Fatal(err)
	}
	c2, err := client.Seal([]byte("block-2"))
	if err != nil {
		t.Fatal(err)
	}
	// Deliver block 2 first: nonce mismatch must reject it.
	if _, err := enclave.Open(c2); err == nil {
		t.Error("out-of-order block should fail authentication")
	}
	_ = c1
}

func TestTamperedBlockRejected(t *testing.T) {
	enclave, client := handshake(t)
	ct, err := client.Seal([]byte("sensitive"))
	if err != nil {
		t.Fatal(err)
	}
	ct[0] ^= 1
	if _, err := enclave.Open(ct); err == nil {
		t.Error("tampered ciphertext should fail authentication")
	}
}

func TestWrongKeyRejected(t *testing.T) {
	_, client := handshake(t)
	otherEnclave, _ := handshake(t)
	ct, err := client.Seal([]byte("hello"))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := otherEnclave.Open(ct); err == nil {
		t.Error("decryption under a different session key should fail")
	}
}

func TestUnwrapGarbageFails(t *testing.T) {
	ek, err := GenerateEnclaveKey(nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ek.UnwrapSessionKey(bytes.Repeat([]byte{1}, 256), nil); err == nil {
		t.Error("unwrapping garbage should fail")
	}
}

func TestSealWithoutSession(t *testing.T) {
	var s *Session
	if _, err := s.Seal([]byte("x")); err != ErrNoSessionKey {
		t.Errorf("Seal on nil session = %v", err)
	}
}

func TestStreamOverTCP(t *testing.T) {
	// Full transfer over a real socket, as the cmd tools use it.
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()

	payload := bytes.Repeat([]byte("0123456789abcdef"), 10_000) // 160 KB
	enclave, client := handshake(t)

	errc := make(chan error, 1)
	go func() {
		conn, err := net.Dial("tcp", ln.Addr().String())
		if err != nil {
			errc <- err
			return
		}
		defer conn.Close()
		errc <- client.SendStream(conn, payload, 32*1024)
	}()

	conn, err := ln.Accept()
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	got, err := enclave.RecvStream(conn)
	if err != nil {
		t.Fatalf("RecvStream: %v", err)
	}
	if sendErr := <-errc; sendErr != nil {
		t.Fatalf("SendStream: %v", sendErr)
	}
	if !bytes.Equal(got, payload) {
		t.Error("stream round trip mismatch")
	}
}

func TestQuickSealOpenIdentity(t *testing.T) {
	enclave, client := handshake(t)
	f := func(data []byte) bool {
		ct, err := client.Seal(data)
		if err != nil {
			t.Errorf("Seal: %v", err)
			return false
		}
		pt, err := enclave.Open(ct)
		if err != nil {
			t.Errorf("Open: %v", err)
			return false
		}
		return bytes.Equal(pt, data)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestCycleCharging(t *testing.T) {
	ctr := cycles.NewCounter(cycles.DefaultModel())
	ek, err := GenerateEnclaveKey(ctr)
	if err != nil {
		t.Fatal(err)
	}
	pub, err := ek.PublicDER()
	if err != nil {
		t.Fatal(err)
	}
	client, wrapped, err := WrapSessionKey(pub, ctr)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ek.UnwrapSessionKey(wrapped, ctr); err != nil {
		t.Fatal(err)
	}
	// Enclave keygen 1, client ephemeral keygen + agreement 2, enclave
	// agreement 1.
	if got := ctr.Units(cycles.PhaseProvision, cycles.UnitKeyAgreement); got != 4 {
		t.Errorf("key agreements charged = %d, want 4", got)
	}
	if _, err := client.Seal(make([]byte, 1000)); err != nil {
		t.Fatal(err)
	}
	if got := ctr.Units(cycles.PhaseProvision, cycles.UnitAESByte); got != 1000 {
		t.Errorf("AES bytes charged = %d, want 1000", got)
	}
}

func TestBlockFraming(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteBlock(&buf, []byte("abc")); err != nil {
		t.Fatal(err)
	}
	got, err := ReadBlock(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != "abc" {
		t.Errorf("frame round trip = %q", got)
	}
	// Oversized length header rejected.
	var bad bytes.Buffer
	bad.Write([]byte{0xFF, 0xFF, 0xFF, 0xFF})
	if _, err := ReadBlock(&bad); err != ErrBlockTooLarge {
		t.Errorf("oversized frame = %v, want ErrBlockTooLarge", err)
	}
}
