package sgx

import (
	"bytes"
	"crypto/aes"
	"crypto/cipher"
	"crypto/sha256"
	"encoding/binary"
	"math/rand"
	"testing"
)

// Equivalence pins for the measured build and the EPC encryption: the
// running MRENCLAVE hash must equal SHA-256 over the byte-slice build log
// the device used to keep, and every stored page must equal a full-page
// AES-CTR encryption under the hardware key with the (slot, owner) IV,
// however the device computes it.

// refLog rebuilds the measurement log record by record, in the layout the
// device hashes: ECREATE, then EADD and EEXTEND records in build order.
type refLog []byte

func (l *refLog) ecreate(base, size uint64) {
	var rec [24]byte
	copy(rec[:8], "ECREATE\x00")
	binary.LittleEndian.PutUint64(rec[8:], base)
	binary.LittleEndian.PutUint64(rec[16:], size)
	*l = append(*l, rec[:]...)
}

func (l *refLog) eadd(vaddr uint64, perm Perm, ptype PageType) {
	var rec [24]byte
	copy(rec[:8], "EADD\x00\x00\x00\x00")
	binary.LittleEndian.PutUint64(rec[8:], vaddr)
	binary.LittleEndian.PutUint32(rec[16:], uint32(perm))
	binary.LittleEndian.PutUint32(rec[20:], uint32(ptype))
	*l = append(*l, rec[:]...)
}

func (l *refLog) eextend(vaddr, offset uint64, page []byte) {
	var rec [16]byte
	copy(rec[:8], "EEXTEND\x00")
	binary.LittleEndian.PutUint64(rec[8:], vaddr+offset)
	*l = append(*l, rec[:]...)
	*l = append(*l, page[offset:offset+extendChunk]...)
}

// refCiphertext is the reference EPC encryption: a fresh AES key schedule
// and a full-page CTR pass from the page's first byte.
func refCiphertext(t *testing.T, d *Device, slot int, owner EnclaveID, plain []byte) []byte {
	t.Helper()
	block, err := aes.NewCipher(d.hwKey[:])
	if err != nil {
		t.Fatal(err)
	}
	var iv [16]byte
	binary.LittleEndian.PutUint64(iv[0:], uint64(slot))
	binary.LittleEndian.PutUint64(iv[8:], uint64(owner))
	page := make([]byte, PageSize)
	copy(page, plain)
	cipher.NewCTR(block, iv[:]).XORKeyStream(page, page)
	return page
}

// checkCiphertext asserts that the EPC slot backing va holds exactly the
// reference encryption of plain under e's identity.
func checkCiphertext(t *testing.T, d *Device, e *Enclave, va uint64, plain []byte, when string) {
	t.Helper()
	slot, ok := e.PageSlot(va)
	if !ok {
		t.Fatalf("%s: page %#x not mapped", when, va)
	}
	raw, ok := d.RawEPCPage(slot)
	if !ok {
		t.Fatalf("%s: slot %d not valid", when, slot)
	}
	if want := refCiphertext(t, d, slot, e.ID(), plain); !bytes.Equal(raw, want) {
		t.Fatalf("%s: page %#x (slot %d) ciphertext differs from the reference encryption", when, va, slot)
	}
}

func TestRunningMeasurementMatchesLog(t *testing.T) {
	for _, v := range []Version{V1, V2} {
		d := newTestDevice(t, v)
		rng := rand.New(rand.NewSource(int64(v)))
		const base, n = 0x40000, 9
		var log refLog
		e, err := d.ECreate(base, n*PageSize)
		if err != nil {
			t.Fatal(err)
		}
		log.ecreate(base, n*PageSize)
		for i := 0; i < n; i++ {
			va := uint64(base + i*PageSize)
			perm := []Perm{PermR | PermX, PermR | PermW, PermR | PermW | PermX}[i%3]
			// Short, empty and full contents: EADD zero-fills the rest.
			content := make([]byte, []int{0, 100, PageSize}[i%3])
			rng.Read(content)
			page := make([]byte, PageSize)
			copy(page, content)
			if err := d.EAdd(e, va, perm, PageREG, content); err != nil {
				t.Fatal(err)
			}
			log.eadd(va, perm, PageREG)
			if i%2 == 0 {
				if err := d.EExtendPage(e, va); err != nil {
					t.Fatal(err)
				}
				for off := uint64(0); off < PageSize; off += extendChunk {
					log.eextend(va, off, page)
				}
				continue
			}
			// Single-chunk EEXTENDs, out of order and with a gap.
			for _, off := range []uint64{3 * extendChunk, 0, 15 * extendChunk} {
				if err := d.EExtend(e, va, off); err != nil {
					t.Fatal(err)
				}
				log.eextend(va, off, page)
			}
		}
		if err := d.EInit(e); err != nil {
			t.Fatal(err)
		}
		if got, want := e.Measurement(), Measurement(sha256.Sum256(log)); got != want {
			t.Fatalf("%v: MRENCLAVE %x, want SHA-256 of the build log %x", v, got, want)
		}
	}
}

func TestEPCCiphertextMatchesReference(t *testing.T) {
	d := newTestDevice(t, V2)
	const base = 0x10000
	pages := snapPages(3)
	pages[1] = pages[1][:1000] // a short EADD source is zero-filled
	e := buildEnclave(t, d, base, pages)
	plain := make([][]byte, len(pages))
	for i, p := range pages {
		plain[i] = make([]byte, PageSize)
		copy(plain[i], p)
		checkCiphertext(t, d, e, base+uint64(i*PageSize), plain[i], "after EADD")
	}

	// A partial, unaligned write that straddles pages 0 and 1.
	patch := bytes.Repeat([]byte{0xC3, 0x5A, 0x99}, 21)
	addr := uint64(base + PageSize - 17)
	if err := e.Write(addr, patch); err != nil {
		t.Fatal(err)
	}
	copy(plain[0][PageSize-17:], patch)
	copy(plain[1], patch[17:])
	for i := range plain {
		checkCiphertext(t, d, e, base+uint64(i*PageSize), plain[i], "after partial Write")
	}
	got := make([]byte, len(patch)+6)
	if err := e.Read(addr-3, got); err != nil {
		t.Fatal(err)
	}
	want := append(append([]byte{}, plain[0][PageSize-20:]...), plain[1][:len(patch)-17+3]...)
	if !bytes.Equal(got, want) {
		t.Fatalf("partial Read = %x, want %x", got, want)
	}

	// EAUG: a zero page under the enclave's identity.
	augVA := uint64(base + 3*PageSize)
	e2 := buildEnclaveSized(t, d, base, 4, pages)
	if err := d.EAug(e2, augVA, PermR|PermW); err != nil {
		t.Fatal(err)
	}
	checkCiphertext(t, d, e2, augVA, nil, "after EAUG")

	// Snapshot, clone and scrub re-encrypt under the clone's identity.
	snap, err := d.SnapshotEnclave(e)
	if err != nil {
		t.Fatal(err)
	}
	clone, err := d.CloneEnclave(snap)
	if err != nil {
		t.Fatal(err)
	}
	for i := range plain {
		checkCiphertext(t, d, clone, base+uint64(i*PageSize), plain[i], "after clone")
	}
	if err := clone.Write(base+PageSize+5, []byte("session residue")); err != nil {
		t.Fatal(err)
	}
	if err := d.ScrubEnclave(clone, snap); err != nil {
		t.Fatal(err)
	}
	for i := range plain {
		checkCiphertext(t, d, clone, base+uint64(i*PageSize), plain[i], "after scrub")
	}

	// EWB then ELDU lands in a fresh slot, encrypted for that slot.
	ep, err := d.EWB(e, base+PageSize)
	if err != nil {
		t.Fatal(err)
	}
	if err := d.ELDU(e, ep); err != nil {
		t.Fatal(err)
	}
	checkCiphertext(t, d, e, base+PageSize, plain[1], "after EWB/ELDU")
}

// buildEnclaveSized builds an enclave spanning n pages with only the given
// pages added, leaving the rest free for EAUG.
func buildEnclaveSized(t *testing.T, d *Device, base uint64, n int, pages [][]byte) *Enclave {
	t.Helper()
	e, err := d.ECreate(base, uint64(n*PageSize))
	if err != nil {
		t.Fatal(err)
	}
	for i, pg := range pages {
		va := base + uint64(i*PageSize)
		if err := d.EAdd(e, va, PermR|PermW|PermX, PageREG, pg); err != nil {
			t.Fatal(err)
		}
	}
	if err := d.EInit(e); err != nil {
		t.Fatal(err)
	}
	return e
}
