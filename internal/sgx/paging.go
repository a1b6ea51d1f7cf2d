package sgx

import (
	"crypto/hmac"
	"crypto/rand"
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"fmt"
)

// EPC paging: the EPC is a scarce resource (8-128 MB), so SGX lets the OS
// evict enclave pages to ordinary memory with EWB and reload them with
// ELDU/ELDB. Evicted pages stay confidential (encrypted under a paging
// key), integrity-protected (MACed), and rollback-protected (a per-page
// version counter stored in EPC-resident version arrays prevents replaying
// a stale copy). The paper's motivation for raising OpenSGX's EPC limit
// (§4) is exactly the pressure this mechanism exists to relieve.

// Paging errors.
var (
	// ErrEvictBroken is returned when an evicted blob fails MAC
	// verification.
	ErrEvictBroken = errors.New("sgx: evicted page authentication failed")
	// ErrEvictReplay is returned when a stale (rolled-back) evicted page
	// is reloaded.
	ErrEvictReplay = errors.New("sgx: evicted page version mismatch (rollback)")
	// ErrNotEvicted is returned when reloading a page that is not
	// currently evicted.
	ErrNotEvicted = errors.New("sgx: page is not evicted")
)

// EvictedPage is the out-of-EPC representation of an enclave page, safe to
// keep anywhere in untrusted memory.
type EvictedPage struct {
	Enclave EnclaveID
	Vaddr   uint64
	Version uint64
	Nonce   [16]byte
	Data    [PageSize]byte // ciphertext under the device paging key
	Perm    Perm
	PType   PageType
	MAC     [sha256.Size]byte
}

// pagingKey derives the device key that protects evicted pages.
func (d *Device) pagingKey() []byte {
	mac := hmac.New(sha256.New, d.sealKey[:])
	mac.Write([]byte("PAGING-KEY"))
	return mac.Sum(nil)
}

func (d *Device) evictMAC(ep *EvictedPage) [sha256.Size]byte {
	mac := hmac.New(sha256.New, d.pagingKey())
	var hdr [40]byte
	binary.LittleEndian.PutUint64(hdr[0:], uint64(ep.Enclave))
	binary.LittleEndian.PutUint64(hdr[8:], ep.Vaddr)
	binary.LittleEndian.PutUint64(hdr[16:], ep.Version)
	binary.LittleEndian.PutUint32(hdr[24:], uint32(ep.Perm))
	binary.LittleEndian.PutUint32(hdr[28:], uint32(ep.PType))
	mac.Write(hdr[:])
	mac.Write(ep.Nonce[:])
	mac.Write(ep.Data[:])
	var out [sha256.Size]byte
	copy(out[:], mac.Sum(nil))
	return out
}

// evictCrypt en/decrypts page content with the paging key and a fresh
// nonce (XOR keystream derived per nonce; same operation both ways).
func (d *Device) evictCrypt(nonce [16]byte, in []byte) [PageSize]byte {
	var out [PageSize]byte
	key := d.pagingKey()
	var stream []byte
	counter := uint64(0)
	for len(stream) < PageSize {
		mac := hmac.New(sha256.New, key)
		mac.Write(nonce[:])
		var c [8]byte
		binary.LittleEndian.PutUint64(c[:], counter)
		mac.Write(c[:])
		stream = append(stream, mac.Sum(nil)...)
		counter++
	}
	for i := 0; i < PageSize; i++ {
		out[i] = in[i] ^ stream[i]
	}
	return out
}

// EWB evicts one enclave page: its plaintext is re-encrypted under the
// paging key, the EPC slot is freed, and the page's version counter is
// bumped so only the freshest copy can ever be reloaded.
func (d *Device) EWB(e *Enclave, vaddr uint64) (*EvictedPage, error) {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.chargeLocked(1)
	slot, ok := e.pages[vaddr]
	if !ok {
		return nil, fmt.Errorf("%w: EWB %#x", ErrPageNotMapped, vaddr)
	}
	pg := &d.epc[slot]
	plain := d.scratch.page[:]
	if pg.zero {
		clear(plain)
	} else {
		copy(plain, d.page(slot))
		d.cryptPage(slot, e.id, 0, plain)
	}

	if e.evicted == nil {
		e.evicted = make(map[uint64]uint64)
		e.evictVer = make(map[uint64]uint64)
	}
	e.evictVer[vaddr]++
	e.evicted[vaddr] = e.evictVer[vaddr]
	ep := &EvictedPage{
		Enclave: e.id,
		Vaddr:   vaddr,
		Version: e.evictVer[vaddr],
		Perm:    pg.perm,
		PType:   pg.ptype,
	}
	if _, err := rand.Read(ep.Nonce[:]); err != nil {
		return nil, fmt.Errorf("sgx: EWB nonce: %w", err)
	}
	ep.Data = d.evictCrypt(ep.Nonce, plain)
	ep.MAC = d.evictMAC(ep)

	delete(e.pages, vaddr)
	d.freeSlotLocked(slot)
	return ep, nil
}

// ELDU reloads an evicted page into a free EPC slot after verifying its
// MAC and that it is the freshest eviction of that page.
func (d *Device) ELDU(e *Enclave, ep *EvictedPage) error {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.chargeLocked(1)
	if ep.Enclave != e.id {
		return fmt.Errorf("%w: enclave mismatch", ErrEvictBroken)
	}
	if want := d.evictMAC(ep); !hmac.Equal(want[:], ep.MAC[:]) {
		return ErrEvictBroken
	}
	current, ok := e.evicted[ep.Vaddr]
	if !ok {
		return fmt.Errorf("%w: %#x", ErrNotEvicted, ep.Vaddr)
	}
	if ep.Version != current {
		return fmt.Errorf("%w: blob v%d, current v%d", ErrEvictReplay, ep.Version, current)
	}
	if _, dup := e.pages[ep.Vaddr]; dup {
		return fmt.Errorf("%w: %#x", ErrPageMapped, ep.Vaddr)
	}
	slot, err := d.allocSlotLocked()
	if err != nil {
		return err
	}
	pg := &d.epc[slot]
	pg.setEPCM(e.id, ep.Vaddr, ep.Perm, ep.PType)
	plain := d.evictCrypt(ep.Nonce, ep.Data[:])
	data := d.page(slot)
	copy(data, plain[:])
	d.cryptPage(slot, e.id, 0, data)
	e.pages[ep.Vaddr] = slot
	delete(e.evicted, ep.Vaddr)
	return nil
}
