// Package secchan implements the end-to-end encrypted provisioning channel
// of the EnGarde protocol (paper §3): the bootstrap code in a fresh enclave
// generates an ephemeral key pair and sends the public key to the client
// (bound into its attestation quote); the client derives a 256-bit AES key
// from that key and one of its own, and all subsequent content flows in
// encrypted blocks under that AES key.
//
// The paper uses RSA-2048 and has the client wrap a random AES key under
// it. This package uses one ephemeral X25519 agreement instead: the client
// sends its ephemeral public key, and both sides derive the session key
// with HKDF-SHA256 over the shared secret and both public keys. The quote
// binds the enclave's key exactly as before, the client stays
// unauthenticated as in the paper, and generating an X25519 key costs
// microseconds where an RSA-2048 key cost hundreds of milliseconds per
// session. DESIGN.md §2 records the deviation.
//
// The enclave side is EnclaveKey (GenerateEnclaveKey, UnwrapSessionKey);
// the client side is WrapSessionKey; both yield a Session. Framing is
// length-prefixed blocks suitable for any io.ReadWriter (net.Conn in the
// examples and cmd tools).
package secchan

import (
	"crypto/aes"
	"crypto/cipher"
	"crypto/ecdh"
	"crypto/hkdf"
	"crypto/rand"
	"crypto/sha256"
	"crypto/x509"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"sync"

	"engarde/internal/cycles"
)

// AESKeySize is the 256-bit session key size mandated by the paper.
const AESKeySize = 32

// MaxBlock bounds a single framed block (plaintext size).
const MaxBlock = 1 << 20

// Channel errors.
var (
	// ErrBlockTooLarge is returned when a frame exceeds MaxBlock.
	ErrBlockTooLarge = errors.New("secchan: block too large")
	// ErrNoSessionKey is returned when encryption is attempted before the
	// AES key exchange completed.
	ErrNoSessionKey = errors.New("secchan: session key not established")
)

// EnclaveKey is the enclave-resident ephemeral X25519 key generated at
// bootstrap.
type EnclaveKey struct {
	priv *ecdh.PrivateKey
}

// GenerateEnclaveKey generates the enclave's ephemeral X25519 key. counter,
// if non-nil, is charged one key agreement.
func GenerateEnclaveKey(counter *cycles.Counter) (*EnclaveKey, error) {
	priv, err := ecdh.X25519().GenerateKey(rand.Reader)
	if err != nil {
		return nil, fmt.Errorf("secchan: generating X25519 key: %w", err)
	}
	if counter != nil {
		counter.Charge(cycles.PhaseProvision, cycles.UnitKeyAgreement, 1)
	}
	return &EnclaveKey{priv: priv}, nil
}

// PublicDER returns the PKIX DER encoding of the X25519 public key, the
// form sent to the client and bound into the attestation quote.
func (k *EnclaveKey) PublicDER() ([]byte, error) {
	der, err := x509.MarshalPKIXPublicKey(k.priv.PublicKey())
	if err != nil {
		return nil, fmt.Errorf("secchan: marshaling public key: %w", err)
	}
	return der, nil
}

// MaxSessionExtra bounds the opaque session-open field WrapSessionKeyExtra
// carries next to the key exchange. The value is the plaintext room the
// earlier RSA-OAEP wrap left beside the AES key, kept so callers see the
// same bound; a trace context needs 25 bytes of it.
const MaxSessionExtra = 190

// The session-open frame is
//
//	wrapVersion | client ephemeral X25519 public key (32) | sealed extra
//
// where the extra is AES-256-GCM sealed under its own derived key, with the
// version and ephemeral key as additional data. An empty extra still
// carries its 16-byte tag, so the enclave confirms the derived keys before
// any content flows: a tampered frame fails here, as a rejected session
// key, never later as a transfer error.
const (
	// wrapVersion is the frame's first byte. It is never '{', so a wrapped
	// key cannot be mistaken for a JSON routing preamble.
	wrapVersion  byte = 0x01
	wrapHeader        = 1 + 32
	wrapOverhead      = wrapHeader + 16
	// kdfLabel starts the HKDF info string; both public keys follow it.
	kdfLabel = "engarde-session/x25519-hkdf-sha256"
)

// deriveKeys runs HKDF-SHA256 over the shared secret, binding both public
// keys into the info string, and returns the session key and the extra's
// sealing key.
func deriveKeys(shared, enclavePub, clientPub []byte) (session, extra []byte, err error) {
	info := kdfLabel + string(enclavePub) + string(clientPub)
	okm, err := hkdf.Key(sha256.New, shared, nil, info, 2*AESKeySize)
	if err != nil {
		return nil, nil, fmt.Errorf("secchan: deriving session keys: %w", err)
	}
	return okm[:AESKeySize], okm[AESKeySize:], nil
}

// extraAEAD returns the AEAD that seals the session-open extra. Its key is
// used for exactly one message, so the all-zero nonce is never reused.
func extraAEAD(key []byte) (cipher.AEAD, error) {
	block, err := aes.NewCipher(key)
	if err != nil {
		return nil, fmt.Errorf("secchan: AES init: %w", err)
	}
	return cipher.NewGCM(block)
}

// UnwrapSessionKey completes the enclave side of the key exchange,
// discarding any session-open extra field the client attached.
func (k *EnclaveKey) UnwrapSessionKey(wrapped []byte, counter *cycles.Counter) (*Session, error) {
	sess, _, err := k.UnwrapSessionKeyExtra(wrapped, counter)
	return sess, err
}

// UnwrapSessionKeyExtra completes the enclave side of the key exchange
// from the client's session-open frame and returns the extra field that
// rode with it (nil when empty). The extra is sealed under a key only the
// two ends of the agreement can derive, so an on-path router can read
// neither the session key nor the extra and can forge neither: any change
// to the frame fails the unwrap.
func (k *EnclaveKey) UnwrapSessionKeyExtra(wrapped []byte, counter *cycles.Counter) (*Session, []byte, error) {
	if len(wrapped) < wrapOverhead || wrapped[0] != wrapVersion {
		return nil, nil, errors.New("secchan: malformed session-open frame")
	}
	if len(wrapped)-wrapOverhead > MaxSessionExtra {
		return nil, nil, fmt.Errorf("secchan: session extra is %d bytes, max %d", len(wrapped)-wrapOverhead, MaxSessionExtra)
	}
	header := wrapped[:wrapHeader]
	clientPub, err := ecdh.X25519().NewPublicKey(header[1:])
	if err != nil {
		return nil, nil, fmt.Errorf("secchan: client key: %w", err)
	}
	shared, err := k.priv.ECDH(clientPub)
	if err != nil {
		return nil, nil, fmt.Errorf("secchan: key agreement: %w", err)
	}
	if counter != nil {
		counter.Charge(cycles.PhaseProvision, cycles.UnitKeyAgreement, 1)
	}
	sessKey, extraKey, err := deriveKeys(shared, k.priv.PublicKey().Bytes(), header[1:])
	if err != nil {
		return nil, nil, err
	}
	aead, err := extraAEAD(extraKey)
	if err != nil {
		return nil, nil, err
	}
	extra, err := aead.Open(nil, make([]byte, aead.NonceSize()), wrapped[wrapHeader:], header)
	if err != nil {
		return nil, nil, fmt.Errorf("secchan: unwrapping session key: %w", err)
	}
	sess, err := newSession(sessKey, counter)
	if err != nil {
		return nil, nil, err
	}
	if len(extra) == 0 {
		extra = nil
	}
	return sess, extra, nil
}

// WrapSessionKey is the client side of the key exchange: agree on a fresh
// 256-bit AES key with the enclave's public key and return the
// session-open frame to send.
func WrapSessionKey(enclavePubDER []byte, counter *cycles.Counter) (*Session, []byte, error) {
	return WrapSessionKeyExtra(enclavePubDER, counter, nil)
}

// WrapSessionKeyExtra is WrapSessionKey with an opaque session-open field
// (at most MaxSessionExtra bytes) sealed into the frame — the
// authenticated carriage for the client's trace context. enclavePubDER
// must be a PKIX X25519 key; any other key type is refused.
func WrapSessionKeyExtra(enclavePubDER []byte, counter *cycles.Counter, extra []byte) (*Session, []byte, error) {
	if len(extra) > MaxSessionExtra {
		return nil, nil, fmt.Errorf("secchan: session extra is %d bytes, max %d", len(extra), MaxSessionExtra)
	}
	pubAny, err := x509.ParsePKIXPublicKey(enclavePubDER)
	if err != nil {
		return nil, nil, fmt.Errorf("secchan: parsing enclave public key: %w", err)
	}
	pub, ok := pubAny.(*ecdh.PublicKey)
	if !ok || pub.Curve() != ecdh.X25519() {
		return nil, nil, errors.New("secchan: enclave key is not X25519")
	}
	eph, err := ecdh.X25519().GenerateKey(rand.Reader)
	if err != nil {
		return nil, nil, fmt.Errorf("secchan: generating ephemeral key: %w", err)
	}
	return wrapWith(eph, pub, counter, extra)
}

// wrapWith builds the session-open frame for the ephemeral key eph.
func wrapWith(eph *ecdh.PrivateKey, pub *ecdh.PublicKey, counter *cycles.Counter, extra []byte) (*Session, []byte, error) {
	shared, err := eph.ECDH(pub)
	if err != nil {
		return nil, nil, fmt.Errorf("secchan: key agreement: %w", err)
	}
	if counter != nil {
		counter.Charge(cycles.PhaseProvision, cycles.UnitKeyAgreement, 2)
	}
	ephPub := eph.PublicKey().Bytes()
	sessKey, extraKey, err := deriveKeys(shared, pub.Bytes(), ephPub)
	if err != nil {
		return nil, nil, err
	}
	aead, err := extraAEAD(extraKey)
	if err != nil {
		return nil, nil, err
	}
	var header [wrapHeader]byte
	header[0] = wrapVersion
	copy(header[1:], ephPub)
	wrapped := append(make([]byte, 0, wrapOverhead+len(extra)), header[:]...)
	wrapped = aead.Seal(wrapped, make([]byte, aead.NonceSize()), extra, header[:])
	sess, err := newSession(sessKey, counter)
	if err != nil {
		return nil, nil, err
	}
	return sess, wrapped, nil
}

// Session is an established AES-256-GCM channel state. Each direction uses
// a monotone nonce counter; Session is not safe for concurrent use.
type Session struct {
	aead    cipher.AEAD
	sendSeq uint64
	recvSeq uint64
	counter *cycles.Counter
}

func newSession(key []byte, counter *cycles.Counter) (*Session, error) {
	if len(key) != AESKeySize {
		return nil, fmt.Errorf("secchan: AES key must be %d bytes, got %d", AESKeySize, len(key))
	}
	block, err := aes.NewCipher(key)
	if err != nil {
		return nil, fmt.Errorf("secchan: AES init: %w", err)
	}
	aead, err := cipher.NewGCM(block)
	if err != nil {
		return nil, fmt.Errorf("secchan: GCM init: %w", err)
	}
	return &Session{aead: aead, counter: counter}, nil
}

func nonceFor(seq uint64) []byte {
	nonce := make([]byte, 12)
	binary.LittleEndian.PutUint64(nonce, seq)
	return nonce
}

// Seal encrypts one block.
func (s *Session) Seal(plain []byte) ([]byte, error) {
	if s == nil || s.aead == nil {
		return nil, ErrNoSessionKey
	}
	ct := s.aead.Seal(nil, nonceFor(s.sendSeq), plain, nil)
	s.sendSeq++
	if s.counter != nil {
		s.counter.Charge(cycles.PhaseProvision, cycles.UnitAESByte, uint64(len(plain)))
	}
	return ct, nil
}

// Open decrypts one block, enforcing in-order delivery via the nonce
// counter.
func (s *Session) Open(ct []byte) ([]byte, error) {
	return s.open(nil, ct)
}

// openInPlace decrypts ct over its own backing array (dst = ct[:0] is the
// exactly-overlapping aliasing GCM documents as safe), so the streaming
// receive path needs no per-block plaintext allocation. The returned slice
// aliases ct.
func (s *Session) openInPlace(ct []byte) ([]byte, error) {
	return s.open(ct[:0], ct)
}

func (s *Session) open(dst, ct []byte) ([]byte, error) {
	if s == nil || s.aead == nil {
		return nil, ErrNoSessionKey
	}
	plain, err := s.aead.Open(dst, nonceFor(s.recvSeq), ct, nil)
	if err != nil {
		return nil, fmt.Errorf("secchan: decrypting block %d: %w", s.recvSeq, err)
	}
	s.recvSeq++
	if s.counter != nil {
		s.counter.Charge(cycles.PhaseProvision, cycles.UnitAESByte, uint64(len(plain)))
	}
	return plain, nil
}

//
// Framing.
//

// WriteBlock writes one length-prefixed block.
func WriteBlock(w io.Writer, data []byte) error {
	if len(data) > MaxBlock+64 { // allow GCM overhead over MaxBlock
		return ErrBlockTooLarge
	}
	var hdr [4]byte
	binary.BigEndian.PutUint32(hdr[:], uint32(len(data)))
	if _, err := w.Write(hdr[:]); err != nil {
		return fmt.Errorf("secchan: writing frame header: %w", err)
	}
	if _, err := w.Write(data); err != nil {
		return fmt.Errorf("secchan: writing frame body: %w", err)
	}
	observeWrite(w, len(data))
	return nil
}

// ReadBlock reads one length-prefixed block.
func ReadBlock(r io.Reader) ([]byte, error) {
	var hdr [4]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return nil, fmt.Errorf("secchan: reading frame header: %w", err)
	}
	n := binary.BigEndian.Uint32(hdr[:])
	if n > MaxBlock+64 {
		return nil, ErrBlockTooLarge
	}
	data := make([]byte, n)
	if _, err := io.ReadFull(r, data); err != nil {
		return nil, fmt.Errorf("secchan: reading frame body: %w", err)
	}
	observeRead(r, int(n))
	return data, nil
}

// blockPool recycles frame buffers on the streaming receive path. Sized
// for SendStream's default 64 KiB blocks plus GCM overhead; oversized
// frames fall back to a fresh allocation. Only RecvStream takes from and
// returns to the pool — its callers receive the assembled payload, never a
// pooled slice.
var blockPool = sync.Pool{
	New: func() any {
		b := make([]byte, 0, 64*1024+64)
		return &b
	},
}

// readBlockPooled is ReadBlock into a pooled buffer. The caller must hand
// the returned pointer back to blockPool when done with the bytes.
func readBlockPooled(r io.Reader) (*[]byte, error) {
	var hdr [4]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return nil, fmt.Errorf("secchan: reading frame header: %w", err)
	}
	n := binary.BigEndian.Uint32(hdr[:])
	if n > MaxBlock+64 {
		return nil, ErrBlockTooLarge
	}
	bp := blockPool.Get().(*[]byte)
	if cap(*bp) < int(n) {
		*bp = make([]byte, n)
	}
	*bp = (*bp)[:n]
	if _, err := io.ReadFull(r, *bp); err != nil {
		blockPool.Put(bp)
		return nil, fmt.Errorf("secchan: reading frame body: %w", err)
	}
	observeRead(r, int(n))
	return bp, nil
}

// SendSealed seals data and writes it as one frame.
func (s *Session) SendSealed(w io.Writer, data []byte) error {
	ct, err := s.Seal(data)
	if err != nil {
		return err
	}
	return WriteBlock(w, ct)
}

// RecvSealed reads one frame and opens it.
func (s *Session) RecvSealed(r io.Reader) ([]byte, error) {
	ct, err := ReadBlock(r)
	if err != nil {
		return nil, err
	}
	return s.Open(ct)
}

// SendStream transfers an arbitrarily large payload as a sequence of
// encrypted blocks of at most blockSize bytes, preceded by an encrypted
// 8-byte length header — "the client sends the content in encrypted
// blocks" (paper §3).
func (s *Session) SendStream(w io.Writer, payload []byte, blockSize int) error {
	if blockSize <= 0 || blockSize > MaxBlock {
		blockSize = 64 * 1024
	}
	var hdr [8]byte
	binary.BigEndian.PutUint64(hdr[:], uint64(len(payload)))
	if err := s.SendSealed(w, hdr[:]); err != nil {
		return err
	}
	for off := 0; off < len(payload); off += blockSize {
		end := off + blockSize
		if end > len(payload) {
			end = len(payload)
		}
		if err := s.SendSealed(w, payload[off:end]); err != nil {
			return err
		}
	}
	return nil
}

// RecvStreamFunc receives a payload sent with SendStream, delivering it
// incrementally instead of assembled: start is called once with the
// header-claimed total, then chunk is called with each decrypted block in
// arrival order. Either callback may abort the receive by returning an
// error. chunk's argument aliases a pooled frame buffer that is reused for
// the next block — callbacks must copy any bytes they keep.
//
// This is the primitive under both RecvStream (which assembles the chunks
// into one buffer) and the streaming provisioning path (which pipes them
// straight into the disassembly pipeline while later frames are still in
// flight).
func (s *Session) RecvStreamFunc(r io.Reader, start func(total uint64) error, chunk func(b []byte) error) error {
	hdr, err := s.RecvSealed(r)
	if err != nil {
		return err
	}
	if len(hdr) != 8 {
		return fmt.Errorf("secchan: bad stream header length %d", len(hdr))
	}
	total := binary.BigEndian.Uint64(hdr)
	const maxPayload = 1 << 30
	if total > maxPayload {
		return ErrBlockTooLarge
	}
	if start != nil {
		if err := start(total); err != nil {
			return err
		}
	}
	var got uint64
	for got < total {
		// Each block cycles one pooled frame buffer: the ciphertext is read
		// into it, decrypted in place, handed to chunk, and returned —
		// zero per-block allocations in steady state.
		bp, err := readBlockPooled(r)
		if err != nil {
			return err
		}
		blk, err := s.openInPlace(*bp)
		if err != nil {
			blockPool.Put(bp)
			return err
		}
		if len(blk) == 0 {
			// A validly sealed empty block makes no progress; looping on
			// them would hang the receiver forever.
			blockPool.Put(bp)
			return fmt.Errorf("secchan: empty stream block at offset %d of %d", got, total)
		}
		got += uint64(len(blk))
		err = chunk(blk)
		blockPool.Put(bp)
		if err != nil {
			return err
		}
	}
	if got != total {
		return fmt.Errorf("secchan: stream length %d != header %d", got, total)
	}
	return nil
}

// recvBufDropped is a test seam: when non-nil, RecvStream reports the
// partial buffer it abandons on a mid-stream error, so tests can assert the
// release actually severs the last reachable reference.
var recvBufDropped func([]byte)

// RecvStream receives a payload sent with SendStream.
func (s *Session) RecvStream(r io.Reader) ([]byte, error) {
	var out []byte
	err := s.RecvStreamFunc(r,
		func(total uint64) error {
			// The header length is peer-claimed: allocate no more than one
			// block up front and let append grow with bytes actually
			// received, so a forged header cannot reserve a gigabyte before
			// the first payload byte arrives.
			initial := total
			if initial > MaxBlock {
				initial = MaxBlock
			}
			out = make([]byte, 0, initial)
			return nil
		},
		func(b []byte) error {
			out = append(out, b...)
			return nil
		})
	if err != nil {
		// A mid-stream failure — idle timeout, budget expiry, a tampered
		// block — must not keep the partial plaintext pinned for as long as
		// the caller holds the error path's session state. Drop it here,
		// where the error is classified, not at session teardown.
		if recvBufDropped != nil {
			recvBufDropped(out)
		}
		out = nil
		return nil, err
	}
	return out, nil
}
