package sgx

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"hash"
)

// Measurement is an enclave measurement (MRENCLAVE), the SHA-256 digest of
// the log of all build-time activities (ECREATE/EADD/EEXTEND), as produced
// by the quoting flow in the paper's §2. As on hardware, the digest runs:
// each build instruction hashes its record as it executes and EINIT only
// finalizes the sum, so the log itself is never stored.
type Measurement [sha256.Size]byte

// Enclave is a linear span of some process's address space whose pages are
// drawn from the EPC.
type Enclave struct {
	id   EnclaveID
	dev  *Device
	base uint64
	size uint64

	// pages maps page-aligned virtual addresses to EPC slots.
	pages map[uint64]int

	mr          hash.Hash // running MRENCLAVE hash until EINIT, then nil
	mrEnclave   Measurement
	initialized bool
	// evictVer is the monotone per-page eviction counter (never reset —
	// the rollback-protection property of SGX's version arrays); evicted
	// maps pages currently paged out to the version that left.
	evictVer map[uint64]uint64
	evicted  map[uint64]uint64
	// locked forbids further EADD/EAUG; EnGarde's host component locks the
	// enclave once provisioning completes (paper §3).
	locked bool
	// lost means the host reclaimed the enclave's EPC pages (see loss.go);
	// every subsequent access fails with ErrEnclaveLost.
	lost bool
}

// ID returns the enclave's identifier.
func (e *Enclave) ID() EnclaveID { return e.id }

// Dev returns the device hosting the enclave.
func (e *Enclave) Dev() *Device { return e.dev }

// Base returns the enclave's base virtual address.
func (e *Enclave) Base() uint64 { return e.base }

// Size returns the enclave's span in bytes.
func (e *Enclave) Size() uint64 { return e.size }

// Contains reports whether [addr, addr+n) lies inside the enclave span.
func (e *Enclave) Contains(addr, n uint64) bool {
	end := addr + n
	return addr >= e.base && end >= addr && end <= e.base+e.size
}

// Measurement returns MRENCLAVE; valid only after EINIT.
func (e *Enclave) Measurement() Measurement { return e.mrEnclave }

// Initialized reports whether EINIT has run.
func (e *Enclave) Initialized() bool {
	e.dev.mu.Lock()
	defer e.dev.mu.Unlock()
	return e.initialized
}

// Locked reports whether the enclave has been locked against growth.
func (e *Enclave) Locked() bool {
	e.dev.mu.Lock()
	defer e.dev.mu.Unlock()
	return e.locked
}

// MappedPages returns the page-aligned virtual addresses currently backed
// by EPC pages, in no particular order.
func (e *Enclave) MappedPages() []uint64 {
	e.dev.mu.Lock()
	defer e.dev.mu.Unlock()
	out := make([]uint64, 0, len(e.pages))
	for va := range e.pages {
		out = append(out, va)
	}
	return out
}

// PageSlot returns the EPC slot backing the page containing addr; the host
// OS uses it as the physical frame number when building page tables.
func (e *Enclave) PageSlot(addr uint64) (int, bool) {
	e.dev.mu.Lock()
	defer e.dev.mu.Unlock()
	slot, ok := e.pages[addr&^uint64(PageSize-1)]
	return slot, ok
}

// PagePerm returns the EPCM permissions of the page containing addr.
func (e *Enclave) PagePerm(addr uint64) (Perm, error) {
	e.dev.mu.Lock()
	defer e.dev.mu.Unlock()
	slot, ok := e.pages[addr&^uint64(PageSize-1)]
	if !ok {
		return 0, ErrPageNotMapped
	}
	return e.dev.epc[slot].perm, nil
}

//
// Lifecycle instructions (each charged as one SGX instruction).
//

// ECreate allocates a new enclave covering [base, base+size) and starts its
// measurement. size must be a multiple of the page size.
func (d *Device) ECreate(base, size uint64) (*Enclave, error) {
	if size == 0 || size%PageSize != 0 || base%PageSize != 0 {
		return nil, fmt.Errorf("%w: base %#x size %#x not page-aligned", ErrBadAddress, base, size)
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	d.chargeLocked(1)
	e := &Enclave{
		id:    d.nextID,
		dev:   d,
		base:  base,
		size:  size,
		pages: make(map[uint64]int),
		mr:    sha256.New(),
	}
	d.nextID++
	d.enclaves[e.id] = e
	// The measurement starts with the ECREATE record.
	rec := d.scratch.rec[:24]
	copy(rec[:8], "ECREATE\x00")
	binary.LittleEndian.PutUint64(rec[8:], base)
	binary.LittleEndian.PutUint64(rec[16:], size)
	e.mr.Write(rec)
	return e, nil
}

// EAdd copies a 4 KiB source page into a free EPC page, records it in the
// EPCM with the given permissions, and extends the measurement with the
// page's metadata. Content is measured separately via EExtend, as on real
// hardware. Empty content adds a zero page, whose ciphertext is written on
// first touch.
func (d *Device) EAdd(e *Enclave, vaddr uint64, perm Perm, ptype PageType, content []byte) error {
	if vaddr%PageSize != 0 {
		return fmt.Errorf("%w: EADD vaddr %#x not page-aligned", ErrBadAddress, vaddr)
	}
	if len(content) > PageSize {
		return fmt.Errorf("sgx: EADD content %d bytes exceeds page size", len(content))
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	d.chargeLocked(1)
	if !e.Contains(vaddr, PageSize) {
		return fmt.Errorf("%w: EADD vaddr %#x outside enclave", ErrBadAddress, vaddr)
	}
	if e.initialized && d.version == V1 {
		// SGXv1 requires all enclave memory committed at build time
		// (paper §4); post-EINIT growth needs v2's EAUG.
		return fmt.Errorf("%w: EADD after EINIT requires SGXv2 EAUG", ErrInitialized)
	}
	if e.locked {
		return ErrEnclaveLocked
	}
	if e.lost {
		return fmt.Errorf("%w: enclave %d", ErrEnclaveLost, e.id)
	}
	if _, dup := e.pages[vaddr]; dup {
		return fmt.Errorf("%w: %#x", ErrPageMapped, vaddr)
	}
	slot, err := d.allocSlotLocked()
	if err != nil {
		return err
	}
	pg := &d.epc[slot]
	pg.setEPCM(e.id, vaddr, perm, ptype)
	if len(content) == 0 {
		pg.zero = true
	} else {
		data := d.page(slot)
		clear(data[copy(data, content):]) // zero-fill a short source
		d.cryptPage(slot, e.id, 0, data)
	}
	e.pages[vaddr] = slot

	if e.mr != nil {
		rec := d.scratch.rec[:24]
		copy(rec[:8], "EADD\x00\x00\x00\x00")
		binary.LittleEndian.PutUint64(rec[8:], vaddr)
		binary.LittleEndian.PutUint32(rec[16:], uint32(perm))
		binary.LittleEndian.PutUint32(rec[20:], uint32(ptype))
		e.mr.Write(rec)
	}
	return nil
}

// extendChunk is the EEXTEND measurement granularity.
const extendChunk = 256

// zeroChunk is what EEXTEND measures over any chunk of a zero page.
var zeroChunk [extendChunk]byte

// EExtend measures one 256-byte chunk of an added page into the enclave's
// measurement.
func (d *Device) EExtend(e *Enclave, vaddr uint64, offset uint64) error {
	if offset%extendChunk != 0 || offset+extendChunk > PageSize {
		return fmt.Errorf("%w: EEXTEND offset %#x", ErrBadAddress, offset)
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	d.chargeLocked(1)
	slot, ok := e.pages[vaddr]
	if !ok {
		return fmt.Errorf("%w: EEXTEND %#x", ErrPageNotMapped, vaddr)
	}
	if e.mr == nil {
		return nil
	}
	if d.epc[slot].zero {
		d.extendLocked(e, vaddr+offset, zeroChunk[:])
		return nil
	}
	chunk := d.scratch.page[:extendChunk]
	copy(chunk, d.page(slot)[offset:])
	d.cryptPage(slot, e.id, int(offset), chunk)
	d.extendLocked(e, vaddr+offset, chunk)
	return nil
}

// EExtendPage measures a whole page. It is semantically identical to 16
// consecutive EEXTENDs (same measurement, same 16-instruction charge) but
// decrypts the page once, and a zero page not at all.
func (d *Device) EExtendPage(e *Enclave, vaddr uint64) error {
	d.mu.Lock()
	defer d.mu.Unlock()
	slot, ok := e.pages[vaddr]
	if !ok {
		return fmt.Errorf("%w: EEXTEND %#x", ErrPageNotMapped, vaddr)
	}
	d.chargeLocked(PageSize / extendChunk)
	if e.mr == nil {
		return nil
	}
	if d.epc[slot].zero {
		for off := uint64(0); off < PageSize; off += extendChunk {
			d.extendLocked(e, vaddr+off, zeroChunk[:])
		}
		return nil
	}
	pt := d.scratch.page[:]
	copy(pt, d.page(slot))
	d.cryptPage(slot, e.id, 0, pt)
	for off := uint64(0); off < PageSize; off += extendChunk {
		d.extendLocked(e, vaddr+off, pt[off:off+extendChunk])
	}
	return nil
}

// extendLocked hashes one EEXTEND record and the plaintext chunk it
// covers into the running measurement; callers hold d.mu.
func (d *Device) extendLocked(e *Enclave, vaddr uint64, chunk []byte) {
	rec := d.scratch.rec[:16]
	copy(rec[:8], "EEXTEND\x00")
	binary.LittleEndian.PutUint64(rec[8:], vaddr)
	e.mr.Write(rec)
	e.mr.Write(chunk)
}

// EInit finalizes the measurement: MRENCLAVE becomes the SHA-256 of the
// build records and the enclave becomes executable. Build instructions
// that run after EINIT (SGXv2 growth) no longer reach MRENCLAVE.
func (d *Device) EInit(e *Enclave) error {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.chargeLocked(1)
	if e.initialized {
		return ErrInitialized
	}
	e.mr.Sum(e.mrEnclave[:0])
	e.mr = nil
	e.initialized = true
	return nil
}

// ERemove evicts one page from the enclave and returns its EPC slot to the
// free pool.
func (d *Device) ERemove(e *Enclave, vaddr uint64) error {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.chargeLocked(1)
	slot, ok := e.pages[vaddr]
	if !ok {
		return fmt.Errorf("%w: EREMOVE %#x", ErrPageNotMapped, vaddr)
	}
	delete(e.pages, vaddr)
	d.freeSlotLocked(slot)
	return nil
}

// DestroyEnclave removes every page and forgets the enclave.
func (d *Device) DestroyEnclave(e *Enclave) {
	d.mu.Lock()
	defer d.mu.Unlock()
	for _, slot := range e.pages {
		d.freeSlotLocked(slot)
	}
	e.pages = make(map[uint64]int)
	delete(d.enclaves, e.id)
}

// Lock forbids any further EADD/EAUG on the enclave. EnGarde's host-level
// component invokes this after provisioning so the client cannot inject
// code after the policy check (paper §3).
func (e *Enclave) Lock() {
	e.dev.mu.Lock()
	defer e.dev.mu.Unlock()
	e.locked = true
}

func (d *Device) allocSlotLocked() (int, error) {
	if len(d.free) == 0 {
		return 0, ErrEPCFull
	}
	slot := d.free[len(d.free)-1]
	d.free = d.free[:len(d.free)-1]
	return slot, nil
}

//
// SGXv2 dynamic-memory instructions.
//

// EAug adds a zeroed page to an already-initialized enclave (v2 only). The
// page is pending until the enclave EAccepts it.
func (d *Device) EAug(e *Enclave, vaddr uint64, perm Perm) error {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.chargeLocked(1)
	if d.version != V2 {
		return ErrV2Only
	}
	if !e.initialized {
		return ErrNotInitialized
	}
	if e.locked {
		return ErrEnclaveLocked
	}
	if e.lost {
		return fmt.Errorf("%w: enclave %d", ErrEnclaveLost, e.id)
	}
	if !e.Contains(vaddr, PageSize) {
		return fmt.Errorf("%w: EAUG vaddr %#x", ErrBadAddress, vaddr)
	}
	if _, dup := e.pages[vaddr]; dup {
		return fmt.Errorf("%w: %#x", ErrPageMapped, vaddr)
	}
	slot, err := d.allocSlotLocked()
	if err != nil {
		return err
	}
	pg := &d.epc[slot]
	pg.setEPCM(e.id, vaddr, perm, PageREG)
	pg.pending = true
	pg.zero = true
	e.pages[vaddr] = slot
	return nil
}

// EAccept completes an EAUG or EMODPR from inside the enclave.
func (d *Device) EAccept(e *Enclave, vaddr uint64) error {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.chargeLocked(1)
	if d.version != V2 {
		return ErrV2Only
	}
	slot, ok := e.pages[vaddr]
	if !ok {
		return fmt.Errorf("%w: EACCEPT %#x", ErrPageNotMapped, vaddr)
	}
	d.epc[slot].pending = false
	return nil
}

// EModPR restricts the EPCM permissions of a page (v2 only; OS-initiated).
// The new permissions must be a subset of the current ones.
func (d *Device) EModPR(e *Enclave, vaddr uint64, perm Perm) error {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.chargeLocked(1)
	if d.version != V2 {
		return ErrV2Only
	}
	slot, ok := e.pages[vaddr]
	if !ok {
		return fmt.Errorf("%w: EMODPR %#x", ErrPageNotMapped, vaddr)
	}
	cur := d.epc[slot].perm
	if perm&^cur != 0 {
		return fmt.Errorf("%w: EMODPR cannot add permissions (%s → %s)", ErrPermission, cur, perm)
	}
	d.epc[slot].perm = perm
	return nil
}

// EModPE extends the EPCM permissions of a page (v2 only;
// enclave-initiated).
func (d *Device) EModPE(e *Enclave, vaddr uint64, perm Perm) error {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.chargeLocked(1)
	if d.version != V2 {
		return ErrV2Only
	}
	slot, ok := e.pages[vaddr]
	if !ok {
		return fmt.Errorf("%w: EMODPE %#x", ErrPageNotMapped, vaddr)
	}
	d.epc[slot].perm |= perm
	return nil
}

//
// Enclave memory access.
//

// access validates and performs an enclave-mediated memory access.
// checkPerm is the EPCM permission required; on SGXv1 EPCM permissions are
// not enforced for REG pages beyond validity (the v1/v2 difference EnGarde
// cares about), so the perm check applies only on V2 devices.
func (e *Enclave) access(addr uint64, buf []byte, write bool) error {
	d := e.dev
	d.mu.Lock()
	defer d.mu.Unlock()
	if e.lost {
		return fmt.Errorf("%w: enclave %d", ErrEnclaveLost, e.id)
	}
	if !e.Contains(addr, uint64(len(buf))) {
		return fmt.Errorf("%w: %#x+%d", ErrBadAddress, addr, len(buf))
	}
	pos := 0
	for pos < len(buf) {
		va := addr + uint64(pos)
		pageVA := va &^ uint64(PageSize-1)
		slot, ok := e.pages[pageVA]
		if !ok {
			return fmt.Errorf("%w: %#x", ErrPageNotMapped, pageVA)
		}
		pg := &d.epc[slot]
		if d.version == V2 {
			need := PermR
			if write {
				need = PermW
			}
			if pg.perm&need == 0 {
				return fmt.Errorf("%w: %s access to %#x (%s)", ErrPermission,
					map[bool]string{true: "write", false: "read"}[write], pageVA, pg.perm)
			}
			if pg.pending {
				return fmt.Errorf("%w: page %#x pending EACCEPT", ErrPermission, pageVA)
			}
		}
		off := int(va - pageVA)
		n := len(buf) - pos
		if n > PageSize-off {
			n = PageSize - off
		}
		switch {
		case !write && pg.zero:
			clear(buf[pos : pos+n])
		case !write:
			copy(buf[pos:pos+n], d.page(slot)[off:off+n])
			d.cryptPage(slot, e.id, off, buf[pos:pos+n])
		default:
			if n < PageSize {
				d.materializeLocked(slot) // the rest of the page keeps its zeros
			}
			pg.zero = false
			data := d.page(slot)[off : off+n]
			copy(data, buf[pos:pos+n])
			d.cryptPage(slot, e.id, off, data)
		}
		pos += n
	}
	return nil
}

// Read copies enclave memory at addr into buf (in-enclave view: plaintext).
func (e *Enclave) Read(addr uint64, buf []byte) error { return e.access(addr, buf, false) }

// Write copies buf into enclave memory at addr.
func (e *Enclave) Write(addr uint64, buf []byte) error { return e.access(addr, buf, true) }
