package secchan

import (
	"bytes"
	"crypto/ecdh"
	"encoding/binary"
	"errors"
	"io"
	"runtime"
	"strings"
	"testing"
	"time"
)

// fuzzKey is the fixed session key used by FuzzReadFrame: GCM with a
// deterministic nonce sequence makes sealed frames reproducible, so seed
// inputs can exercise the success paths, not just rejections.
var fuzzKey = bytes.Repeat([]byte{0x42}, AESKeySize)

func fuzzSession(t testing.TB) *Session {
	t.Helper()
	s, err := newSession(fuzzKey, nil)
	if err != nil {
		t.Fatalf("newSession: %v", err)
	}
	return s
}

// sealStream returns the wire bytes SendStream produces for payload under
// the fixed fuzz key, starting from sequence zero.
func sealStream(t testing.TB, payload []byte, blockSize int) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := fuzzSession(t).SendStream(&buf, payload, blockSize); err != nil {
		t.Fatalf("SendStream: %v", err)
	}
	return buf.Bytes()
}

// sealStreamHeader returns a validly sealed stream whose header claims
// total bytes, followed by the given sealed body frames (possibly none):
// the shape a misbehaving peer uses to lie about the payload length.
func sealStreamHeader(t testing.TB, total uint64, bodies ...[]byte) []byte {
	t.Helper()
	s := fuzzSession(t)
	var buf bytes.Buffer
	var hdr [8]byte
	binary.BigEndian.PutUint64(hdr[:], total)
	if err := s.SendSealed(&buf, hdr[:]); err != nil {
		t.Fatalf("SendSealed header: %v", err)
	}
	for _, body := range bodies {
		if err := s.SendSealed(&buf, body); err != nil {
			t.Fatalf("SendSealed body: %v", err)
		}
	}
	return buf.Bytes()
}

func fuzzReadFrameSeeds(t testing.TB) [][]byte {
	frame := func(payload []byte) []byte {
		var buf bytes.Buffer
		if err := WriteBlock(&buf, payload); err != nil {
			t.Fatalf("WriteBlock: %v", err)
		}
		return buf.Bytes()
	}
	oversized := make([]byte, 4)
	binary.BigEndian.PutUint32(oversized, MaxBlock+65)
	return [][]byte{
		frame([]byte("hello")),
		frame(nil),
		frame(bytes.Repeat([]byte{0xAB}, 1024)),
		frame([]byte("truncated"))[:6], // header promises more than follows
		oversized,                      // frame length over the MaxBlock cap
		{0x00, 0x00},                   // truncated header
		sealStream(t, []byte("small payload"), 4),
		sealStream(t, bytes.Repeat([]byte{0xCD}, 300), 100),
		sealStream(t, nil, 64),
		sealStreamHeader(t, 1<<30),             // max claimed length, no body
		sealStreamHeader(t, (1<<30)+1),         // over the payload cap
		sealStreamHeader(t, 10, nil, nil, nil), // sealed empty blocks
		sealStreamHeader(t, 4, []byte("toolong")),
	}
}

// FuzzReadFrame asserts the receive side of the provisioning wire protocol
// on arbitrary bytes: ReadBlock (which carries every JSON protocol message)
// and RecvStream (which carries the encrypted content transfer) must return
// an error or a bounded result — never panic, hang, or let a peer-claimed
// length drive allocation past the frame cap.
func FuzzReadFrame(f *testing.F) {
	for _, seed := range fuzzReadFrameSeeds(f) {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		if blk, err := ReadBlock(bytes.NewReader(data)); err == nil {
			if len(blk) > MaxBlock+64 {
				t.Fatalf("ReadBlock accepted %d-byte block over cap", len(blk))
			}
		}
		recv, err := newSession(fuzzKey, nil)
		if err != nil {
			t.Fatalf("newSession: %v", err)
		}
		if payload, err := recv.RecvStream(bytes.NewReader(data)); err == nil {
			if uint64(len(payload)) > 1<<30 {
				t.Fatalf("RecvStream accepted %d-byte payload over cap", len(payload))
			}
		}
	})
}

// TestRecvStreamZeroLengthBlocks pins the fix for the receive-loop hang:
// a peer that streams validly sealed empty blocks after the length header
// makes no progress toward the claimed total, and an unfixed receiver on a
// live connection would spin on them forever. RecvStream must reject the
// first empty block instead.
func TestRecvStreamZeroLengthBlocks(t *testing.T) {
	sender := fuzzSession(t)
	recv := fuzzSession(t)

	pr, pw := io.Pipe()
	defer pr.Close()
	go func() {
		defer pw.Close()
		var hdr [8]byte
		binary.BigEndian.PutUint64(hdr[:], 10)
		if err := sender.SendSealed(pw, hdr[:]); err != nil {
			return
		}
		for { // a misbehaving peer never stops sending empty blocks
			if err := sender.SendSealed(pw, nil); err != nil {
				return
			}
		}
	}()

	type result struct {
		payload []byte
		err     error
	}
	done := make(chan result, 1)
	go func() {
		payload, err := recv.RecvStream(pr)
		done <- result{payload, err}
	}()
	select {
	case res := <-done:
		if res.err == nil {
			t.Fatalf("RecvStream accepted empty-block stream: %d bytes", len(res.payload))
		}
		if !strings.Contains(res.err.Error(), "empty stream block") {
			t.Fatalf("RecvStream error = %v, want empty stream block rejection", res.err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("RecvStream hung on zero-length blocks")
	}
}

// TestRecvStreamHeaderAllocation pins the fix for the allocation bomb: the
// stream header is peer-claimed and arrives before any payload, so a forged
// maximum-length header must not reserve a gigabyte up front.
func TestRecvStreamHeaderAllocation(t *testing.T) {
	wire := sealStreamHeader(t, 1<<30) // claims 1 GiB, carries nothing
	recv := fuzzSession(t)

	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	_, err := recv.RecvStream(bytes.NewReader(wire))
	runtime.ReadMemStats(&after)

	if err == nil {
		t.Fatal("RecvStream accepted a truncated 1 GiB stream")
	}
	if !errors.Is(err, io.EOF) && !errors.Is(err, io.ErrUnexpectedEOF) {
		t.Fatalf("RecvStream error = %v, want EOF after header", err)
	}
	if delta := after.TotalAlloc - before.TotalAlloc; delta > 16<<20 {
		t.Fatalf("RecvStream allocated %d bytes for an empty stream with a forged header", delta)
	}
}

// TestRecvStreamOverlongBody covers the complementary direction: a body
// that overshoots the claimed total is rejected, not silently truncated.
func TestRecvStreamOverlongBody(t *testing.T) {
	wire := sealStreamHeader(t, 4, []byte("toolong"))
	recv := fuzzSession(t)
	_, err := recv.RecvStream(bytes.NewReader(wire))
	if err == nil || !strings.Contains(err.Error(), "stream length") {
		t.Fatalf("RecvStream error = %v, want length mismatch", err)
	}
}

// fuzzEnclaveKey is the fixed enclave key FuzzUnwrapSessionKey unwraps
// under, so checked-in seed frames stay valid across runs.
func fuzzEnclaveKey(t testing.TB) *EnclaveKey {
	t.Helper()
	priv, err := ecdh.X25519().NewPrivateKey(bytes.Repeat([]byte{0x17}, 32))
	if err != nil {
		t.Fatal(err)
	}
	return &EnclaveKey{priv: priv}
}

// fuzzWrap returns a valid session-open frame for the fuzz enclave key,
// made with a fixed ephemeral key so the bytes are reproducible.
func fuzzWrap(t testing.TB, ephSeed byte, extra []byte) []byte {
	t.Helper()
	eph, err := ecdh.X25519().NewPrivateKey(bytes.Repeat([]byte{ephSeed}, 32))
	if err != nil {
		t.Fatal(err)
	}
	_, wrapped, err := wrapWith(eph, fuzzEnclaveKey(t).priv.PublicKey(), nil, extra)
	if err != nil {
		t.Fatal(err)
	}
	return wrapped
}

// FuzzUnwrapSessionKey feeds arbitrary session-open frames to the enclave
// side of the key exchange. The frame arrives from an unauthenticated
// client through an untrusted router, so the unwrap must fail closed: no
// panic, and a success only for a frame of exactly the wire shape whose
// extra opened under the derived key.
func FuzzUnwrapSessionKey(f *testing.F) {
	valid := fuzzWrap(f, 0x21, []byte("0123456789abcdef012345678")) // a trace context's 25 bytes
	badVersion := bytes.Clone(valid)
	badVersion[0] = '{'
	zeroKey := make([]byte, wrapOverhead)
	zeroKey[0] = wrapVersion
	for _, seed := range [][]byte{
		valid,
		fuzzWrap(f, 0x22, nil),
		fuzzWrap(f, 0x23, bytes.Repeat([]byte{0xEE}, MaxSessionExtra)),
		valid[:wrapOverhead-1], // shorter than version + key + tag
		badVersion,
		zeroKey, // low-order point: all-zero shared secret
		nil,
	} {
		f.Add(seed)
	}
	ek := fuzzEnclaveKey(f)
	f.Fuzz(func(t *testing.T, data []byte) {
		sess, extra, err := ek.UnwrapSessionKeyExtra(data, nil)
		if err != nil {
			return
		}
		if sess == nil {
			t.Fatal("unwrap succeeded without a session")
		}
		if data[0] != wrapVersion {
			t.Fatalf("unwrap accepted version byte %#x", data[0])
		}
		if len(extra) > MaxSessionExtra || len(data) != wrapOverhead+len(extra) {
			t.Fatalf("unwrap accepted a %d-byte frame with a %d-byte extra", len(data), len(extra))
		}
		if extra != nil && len(extra) == 0 {
			t.Fatal("empty extra returned non-nil")
		}
	})
}
