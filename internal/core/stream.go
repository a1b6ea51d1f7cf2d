package core

// Streaming provisioning, the only receive path: RecvImageStreaming folds
// each decrypted secchan frame into an incremental SHA-256 as it arrives,
// so the verdict-cache key is ready the instant the last byte lands, with
// no second full-buffer pass. ProvisionStaged then runs the same pipeline
// as Provision over the assembled image, so streamed and in-memory
// provisioning produce identical verdicts, violations and per-phase cycle
// charges by construction.

import (
	"crypto/sha256"
	"fmt"
	"io"
	"time"

	"engarde/internal/cycles"
	"engarde/internal/secchan"
)

// StagedImage is a client executable received over the encrypted channel:
// the assembled plaintext and its digest, computed incrementally during
// receive.
type StagedImage struct {
	// Image is the assembled plaintext executable.
	Image []byte
	// Digest is the image's SHA-256, available the instant the last byte
	// arrived — the verdict-cache key needs no separate hashing pass.
	Digest [sha256.Size]byte
	// FirstByteAt is the monotonic arrival time of the stream's first
	// content frame, the anchor for first-byte-to-verdict measurement.
	FirstByteAt time.Time
}

// RecvImageStreaming receives and decrypts the client's executable over the
// encrypted channel (length header + encrypted blocks), hashing each frame
// as it arrives. Cycle charges are those of a plain secchan RecvStream (the
// same bytes are decrypted).
func (g *EnGarde) RecvImageStreaming(r io.Reader) (*StagedImage, error) {
	if g.sess == nil {
		return nil, ErrNoSession
	}
	g.dev.SetPhase(cycles.PhaseProvision)
	st := &StagedImage{}
	h := sha256.New()
	var image []byte
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
			return nil
		})
	if err != nil {
		return nil, fmt.Errorf("core: receiving content: %w", err)
	}
	st.Image = image
	h.Sum(st.Digest[:0])
	return st, nil
}

// ProvisionStaged runs the full pipeline over a streamed image; verdicts,
// violations and cycle charges are identical to Provision(st.Image).
func (g *EnGarde) ProvisionStaged(st *StagedImage) (*Report, error) {
	return g.provision(st.Image, nil)
}
