package nacl

// Streaming decode: the gateway's provisioning pipeline feeds text-segment
// bytes into a StreamDecoder as secchan frames arrive, so the sharded
// speculative decode of PR 2 runs concurrently with the transfer instead of
// after it. The decoder reuses decodeChunk/mergeChunks/finishProgram from
// the buffered path, so a completed stream produces a Program, rejection,
// and cycle charges identical to DecodeProgramTraced over the same bytes —
// the overlap moves work earlier in wall-clock time, never changes it.

import (
	"fmt"
	"sync"

	"engarde/internal/cycles"
	"engarde/internal/obs"
	"engarde/internal/x86"
)

// streamSpillBytes is how far past its chunk boundary a speculative decode
// may read: one architectural maximum-length instruction starting at the
// chunk's last byte. A chunk is launched only once this margin has arrived
// (or the region is complete), which makes its result byte-identical to a
// decode against the full region.
const streamSpillBytes = 15

// streamInitialBuf caps the up-front buffer reservation. The region size
// is derived from peer-supplied ELF headers, so like RecvStream the decoder
// allocates at most this much before real bytes arrive and lets append
// grow the rest.
const streamInitialBuf = 1 << 20

// StreamDecoder incrementally decodes a text region whose bytes arrive in
// pieces. Feed copies each piece in and launches a chunk's speculative
// decode goroutine the moment the chunk's byte range (plus spill margin) is
// complete; Finish waits, reconciles seams, and runs the bundle and
// branch-target passes. Feed and Finish must be called from one goroutine;
// only the chunk decodes run concurrently.
type StreamDecoder struct {
	base    uint64
	size    int
	workers int // as requested; normalized count lives in len(chunks)

	buf        []byte
	chunkSize  int
	chunks     []chunkDecode
	launched   int // chunks whose decode goroutine has started
	overlapped bool
	wg         sync.WaitGroup
	released   bool
}

// NewStreamDecoder prepares an incremental decode of a size-byte region
// based at base, sharded across workers (<= 0 means GOMAXPROCS, same
// normalization as DecodeProgramTraced). Small regions degrade to one
// sequential decode at Finish, exactly as the buffered path does.
func NewStreamDecoder(base uint64, size, workers int) *StreamDecoder {
	d := &StreamDecoder{base: base, size: size, workers: workers}
	initial := size
	if initial > streamInitialBuf {
		initial = streamInitialBuf
	}
	d.buf = make([]byte, 0, initial)
	if w := normalizeWorkers(workers, size); w > 1 && size >= w {
		d.chunkSize = (size + w - 1) / w
		d.chunks = make([]chunkDecode, (size+d.chunkSize-1)/d.chunkSize)
	}
	return d
}

// Feed appends the next region bytes (copying b, which the caller may
// reuse) and starts any chunk decodes the new bytes complete. Feeding more
// than the declared size is an error.
func (d *StreamDecoder) Feed(b []byte) error {
	if len(d.buf)+len(b) > d.size {
		return fmt.Errorf("nacl: stream decoder fed %d bytes beyond declared size %d", len(d.buf)+len(b)-d.size, d.size)
	}
	d.buf = append(d.buf, b...)
	d.launch()
	return nil
}

// launch starts every not-yet-running chunk whose input is fully buffered.
// The goroutine captures the buffer as it is now: later appends either
// write beyond len into the same array or relocate into a fresh one, so the
// captured prefix is immutable and the decode is race-free.
func (d *StreamDecoder) launch() {
	for d.launched < len(d.chunks) {
		k := d.launched
		start := k * d.chunkSize
		end := start + d.chunkSize
		if end > d.size {
			end = d.size
		}
		need := end + streamSpillBytes
		if need > d.size {
			need = d.size
		}
		if len(d.buf) < need {
			return
		}
		window := d.buf[:len(d.buf)]
		d.launched++
		if len(d.buf) < d.size {
			d.overlapped = true
		}
		d.wg.Add(1)
		go func() {
			defer d.wg.Done()
			decodeChunk(&d.chunks[k], window, d.base, start, end, d.size)
		}()
	}
}

// Complete reports whether the full declared region has been fed.
func (d *StreamDecoder) Complete() bool { return len(d.buf) == d.size }

// Bytes returns the region received so far. The caller must not mutate it
// while chunk decodes may still be running (i.e. before Finish/Abandon).
func (d *StreamDecoder) Bytes() []byte { return d.buf }

// Overlapped reports whether any chunk decode was launched before the last
// region byte arrived — i.e. whether transfer and decode actually ran
// concurrently (telemetry: the recv-overlap span is only meaningful then).
func (d *StreamDecoder) Overlapped() bool { return d.overlapped }

// Finish completes the decode and validation over the fully-fed region:
// seam reconciliation, the decoded-instruction charge, and the bundle and
// branch passes — the same spans, charges, and results as
// DecodeProgramTraced(Bytes(), ...). The decoder cannot be reused after.
func (d *StreamDecoder) Finish(counter *cycles.Counter, tr *obs.Trace) (*Program, error) {
	if !d.Complete() {
		d.Abandon()
		return nil, fmt.Errorf("nacl: stream decoder finished at %d of %d bytes", len(d.buf), d.size)
	}
	var insts []x86.Inst
	var err error
	sp := tr.StartSpan("disasm:decode")
	if d.chunks == nil {
		insts, err = decodeRange(d.buf, d.base, 0, d.size)
	} else {
		d.launch() // zero-byte regions aside, all chunks are launchable now
		d.wg.Wait()
		insts, err = mergeChunks(d.buf, d.base, d.chunks, d.chunkSize)
	}
	sp.End()
	d.released = true
	if err != nil {
		return nil, err
	}
	return finishProgram(insts, d.buf, d.base, counter, d.workers, tr)
}

// Abandon discards the decode — the streaming receive failed, or the
// provisioning pipeline could not adopt it — waiting out any in-flight
// chunk goroutines. Safe to call more than once and after Finish.
func (d *StreamDecoder) Abandon() {
	if d.released {
		return
	}
	d.released = true
	d.wg.Wait()
	d.buf = nil
}
