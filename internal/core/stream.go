package core

// Streaming provisioning, the only receive path: RecvImageStreaming
// overlaps the encrypted transfer with the front of the provisioning
// pipeline. As each secchan frame is decrypted it is folded into an
// incremental SHA-256 (so a verdict-cache lookup can fire at last-byte with
// no second full-buffer pass) and, once the ELF program headers have
// arrived, the text segment's bytes are fed straight into a
// nacl.StreamDecoder whose speculative chunk decodes run while later frames
// are still in flight.
//
// The overlap never changes the outcome: speculative decode work is
// uncharged (exactly like PR 2's sharded decoder), and ProvisionStaged
// adopts the streamed decode only after verifying it covers byte-for-byte
// the text section the full ELF parse names — otherwise the decode is
// discarded and the text is decoded from the assembled buffer, making
// streamed and in-memory provisioning produce identical verdicts,
// violations, and per-phase cycle charges by construction.

import (
	"bytes"
	"crypto/sha256"
	"fmt"
	"io"
	"time"

	"engarde/internal/cycles"
	"engarde/internal/elf64"
	"engarde/internal/nacl"
	"engarde/internal/obs"
	"engarde/internal/secchan"
)

// StagedImage is a client executable received over the encrypted channel
// with the streaming pipeline already warmed up behind it: the assembled
// plaintext, its digest (computed incrementally during receive), and —
// privately — the in-flight speculative decode ProvisionStaged may adopt.
type StagedImage struct {
	// Image is the assembled plaintext executable.
	Image []byte
	// Digest is the image's SHA-256, available the instant the last byte
	// arrived — the verdict-cache key needs no separate hashing pass.
	Digest [sha256.Size]byte
	// FirstByteAt is the monotonic arrival time of the stream's first
	// content frame, the anchor for first-byte-to-verdict measurement.
	FirstByteAt time.Time

	dec     *nacl.StreamDecoder
	decAddr uint64 // link-time address the decoder assumed for its region
}

// Release discards any in-flight speculative decode without provisioning.
// Callers that obtain a StagedImage but never pass it to ProvisionStaged —
// e.g. a gateway serving a cached rejection — must call it; Release after
// ProvisionStaged is a harmless no-op.
func (st *StagedImage) Release() {
	if st == nil || st.dec == nil {
		return
	}
	st.dec.Abandon()
	st.dec = nil
}

// maxStreamText bounds the text-segment size the streaming path will
// speculatively decode; the hint is peer-claimed until the full parse, so
// cap it at the stream's own payload bound.
const maxStreamText = 1 << 30

// RecvImageStreaming receives and decrypts the client's executable over the
// encrypted channel (length header + encrypted blocks), pipelined: hashing
// and speculative text-segment decode run chunk-by-chunk as frames arrive
// instead of after assembly. Cycle charges are those of a plain secchan
// RecvStream (the same bytes are decrypted; speculative decode is never
// charged). On any receive error all partial state — buffer, hash,
// decoder — is dropped before returning.
func (g *EnGarde) RecvImageStreaming(r io.Reader) (*StagedImage, error) {
	if g.sess == nil {
		return nil, ErrNoSession
	}
	g.dev.SetPhase(cycles.PhaseProvision)
	tr := g.cfg.Trace
	st := &StagedImage{}
	h := sha256.New()
	var (
		image       []byte
		sniffDone   bool
		hint        elf64.ExecSegmentHint
		fedEnd      uint64 // image offset up to which the decoder has been fed
		overlapFrom time.Time
	)
	err := g.sess.RecvStreamFunc(r,
		func(total uint64) error {
			st.FirstByteAt = time.Now()
			// Same anti-DoS posture as RecvStream: the total is peer-claimed,
			// so reserve at most one block up front.
			initial := total
			if initial > secchan.MaxBlock {
				initial = secchan.MaxBlock
			}
			image = make([]byte, 0, initial)
			return nil
		},
		func(b []byte) error {
			h.Write(b)
			image = append(image, b...)
			if !sniffDone {
				var ok bool
				hint, ok, sniffDone = elf64.SniffExecSegment(image)
				if sniffDone && ok && hint.Filesz <= maxStreamText {
					st.dec = nacl.NewStreamDecoder(hint.Vaddr, int(hint.Filesz), g.cfg.DisasmWorkers)
					st.decAddr = hint.Vaddr
					fedEnd = hint.Off
				}
			}
			if st.dec != nil {
				// Feed the decoder whatever part of the text segment the
				// buffer now covers beyond what it has already seen.
				avail := uint64(len(image))
				if segEnd := hint.Off + hint.Filesz; avail > segEnd {
					avail = segEnd
				}
				if avail > fedEnd {
					if overlapFrom.IsZero() {
						overlapFrom = time.Now()
					}
					if err := st.dec.Feed(image[fedEnd:avail]); err != nil {
						return fmt.Errorf("core: streaming decode: %w", err)
					}
					fedEnd = avail
				}
			}
			return nil
		})
	if err != nil {
		// A failed receive must not pin the partial plaintext or leave chunk
		// goroutines holding pooled buffers until session teardown.
		image = nil
		st.Release()
		return nil, fmt.Errorf("core: receiving content: %w", err)
	}
	st.Image = image
	h.Sum(st.Digest[:0])
	if st.dec != nil && st.dec.Overlapped() && !overlapFrom.IsZero() {
		// The window during which transfer and speculative decode actually
		// ran concurrently — the overlap BENCH_8 attributes its win to.
		tr.RecordSpan("recv-overlap", overlapFrom, time.Since(overlapFrom))
	}
	return st, nil
}

// ProvisionStaged runs the full pipeline over a streamed image, adopting
// its speculative decode when it verifiably covers the text section and
// falling back to the buffered decode otherwise. Verdicts, violations, and
// cycle charges are identical to Provision(st.Image).
func (g *EnGarde) ProvisionStaged(st *StagedImage) (*Report, error) {
	return g.provision(st, nil)
}

// decodeText resolves the disassembly for the verified text section: adopt
// the streamed decode only if it demonstrably decoded these exact bytes at
// this exact address — the full parse is authoritative, the sniff was a
// hint — and otherwise discard it and decode from the buffer. Both paths
// charge and validate identically.
func (g *EnGarde) decodeText(st *StagedImage, text *elf64.Section, tr *obs.Trace) (*nacl.Program, error) {
	if dec := st.dec; dec != nil {
		st.dec = nil
		if st.decAddr == text.Addr && dec.Complete() && bytes.Equal(dec.Bytes(), text.Data) {
			return dec.Finish(g.cfg.Counter, tr)
		}
		dec.Abandon()
	}
	return nacl.DecodeProgramTraced(text.Data, text.Addr, g.cfg.Counter, g.cfg.DisasmWorkers, tr)
}
