package sgx

import (
	"fmt"
	"sort"
)

// Enclave snapshotting: the serverless-cold-start answer to EADD/EEXTEND
// dominating enclave creation. Every EnGarde session uses the *identical*
// measured bootstrap image, so the device can capture one post-EINIT
// enclave — page contents, EPCM attributes, and the finalized SECS state
// (measurement, span) — and later restore it into fresh EPC slots at
// memcpy speed instead of replaying the measured build.
//
// The security argument mirrors SGX fork/snapshot designs (cf. the
// Confidential Attestation line of work, which reuses one measured
// bootstrap enclave across tasks): the snapshot is taken from an enclave
// whose measurement the build already finalized, clones carry that exact
// MRENCLAVE, and each clone gets a fresh enclave identity so reports and
// quotes are per-instance. Page ciphertext is never shared between
// enclaves — the EPC encryption IV is (slot, owner), so a clone's pages
// are re-encrypted under its own identity and a bus-level adversary sees
// unrelated ciphertext for identical plaintext.
//
// Cost model: capturing charges one SGX instruction per page (an EWB-style
// read-out); cloning and scrubbing charge one per page (an ELDU-style
// restore) plus one for the SECS setup — 17× fewer SGX instructions than
// the EADD + 16×EEXTEND build, and none of the measurement hashing.
//
// Zero pages (the heap and client regions of an EnGarde enclave) are
// captured without bytes and restored as zero pages, whose ciphertext is
// written on first touch. That changes no charge: it only keeps the
// simulation from encrypting pages a session never reads.

// snapPage is one captured page: plaintext content plus its EPCM entry.
type snapPage struct {
	vaddr uint64
	perm  Perm
	ptype PageType
	data  *[PageSize]byte // plaintext, re-encrypted per clone; nil for a zero page
}

// Snapshot is a reusable post-EINIT enclave image. It lives in host memory
// (outside the EPC), holding plaintext page contents — acceptable here
// because the snapshot is taken from the *bootstrap* enclave before any
// client secret enters it; both parties can already inspect that code.
// Zero pages hold no bytes.
type Snapshot struct {
	base      uint64
	size      uint64
	mrEnclave Measurement
	pages     []snapPage // sorted by vaddr
}

// Base returns the snapshotted enclave's base virtual address.
func (s *Snapshot) Base() uint64 { return s.base }

// Size returns the snapshotted enclave's span in bytes.
func (s *Snapshot) Size() uint64 { return s.size }

// Measurement returns the MRENCLAVE every clone will carry.
func (s *Snapshot) Measurement() Measurement { return s.mrEnclave }

// Pages returns the number of captured pages.
func (s *Snapshot) Pages() int { return len(s.pages) }

// PageVaddrs returns the captured page addresses in ascending order; the
// host OS uses it to rebuild page-table mappings for a clone.
func (s *Snapshot) PageVaddrs() []uint64 {
	out := make([]uint64, len(s.pages))
	for i := range s.pages {
		out[i] = s.pages[i].vaddr
	}
	return out
}

// SnapshotEnclave captures an initialized enclave's page image and SECS
// state. The enclave must be fully resident (no pages evicted by demand
// paging) and not locked; it is left untouched. Charges one SGX
// instruction per page.
func (d *Device) SnapshotEnclave(e *Enclave) (*Snapshot, error) {
	d.mu.Lock()
	defer d.mu.Unlock()
	if !e.initialized {
		return nil, fmt.Errorf("%w: snapshot requires EINIT", ErrNotInitialized)
	}
	if e.locked {
		return nil, fmt.Errorf("%w: cannot snapshot a locked enclave", ErrEnclaveLocked)
	}
	if len(e.evicted) != 0 {
		return nil, fmt.Errorf("sgx: cannot snapshot enclave %d: %d pages evicted", e.id, len(e.evicted))
	}
	d.chargeLocked(uint64(len(e.pages)))
	s := &Snapshot{
		base:      e.base,
		size:      e.size,
		mrEnclave: e.mrEnclave,
		pages:     make([]snapPage, 0, len(e.pages)),
	}
	for vaddr, slot := range e.pages {
		pg := &d.epc[slot]
		sp := snapPage{vaddr: vaddr, perm: pg.perm, ptype: pg.ptype}
		if !pg.zero {
			pt := &d.scratch.page
			copy(pt[:], d.page(slot))
			d.cryptPage(slot, e.id, 0, pt[:])
			if *pt != ([PageSize]byte{}) {
				sp.data = new([PageSize]byte)
				*sp.data = *pt
			}
		}
		s.pages = append(s.pages, sp)
	}
	sort.Slice(s.pages, func(i, j int) bool { return s.pages[i].vaddr < s.pages[j].vaddr })
	return s, nil
}

// CloneEnclave restores a snapshot into fresh EPC slots under a new enclave
// identity: the clone is already initialized, carries the snapshot's
// MRENCLAVE, and its pages are re-encrypted under its own (slot, id) IVs.
// On EPC exhaustion every slot allocated so far is returned and the clone
// never existed. Charges one SGX instruction per page plus one for the
// SECS setup.
func (d *Device) CloneEnclave(s *Snapshot) (*Enclave, error) {
	d.mu.Lock()
	defer d.mu.Unlock()
	if len(d.free) < len(s.pages) {
		return nil, fmt.Errorf("%w: clone needs %d pages, %d free", ErrEPCFull, len(s.pages), len(d.free))
	}
	d.chargeLocked(uint64(len(s.pages)) + 1)
	e := &Enclave{
		id:          d.nextID,
		dev:         d,
		base:        s.base,
		size:        s.size,
		mrEnclave:   s.mrEnclave,
		initialized: true,
		pages:       make(map[uint64]int, len(s.pages)),
	}
	d.nextID++
	for i := range s.pages {
		sp := &s.pages[i]
		slot, err := d.allocSlotLocked()
		if err != nil {
			// Unreachable given the free-list check above, but roll back
			// defensively so a bug never leaks slots.
			for _, used := range e.pages {
				d.freeSlotLocked(used)
			}
			return nil, err
		}
		pg := &d.epc[slot]
		pg.setEPCM(e.id, sp.vaddr, sp.perm, sp.ptype)
		d.restoreLocked(slot, sp)
		e.pages[sp.vaddr] = slot
	}
	d.enclaves[e.id] = e
	return e, nil
}

// ScrubEnclave restores a clone to its snapshot state in place: every page's
// content, EPCM permissions and type are reset from the snapshot (keeping
// the EPC slots already allocated), and the growth lock is cleared. The
// measurement is untouched — scrubbing recreates exactly the state a fresh
// clone would have, which is what makes returning a used enclave to a pool
// sound: no bytes a previous session wrote survive. Charges one SGX
// instruction per page.
func (d *Device) ScrubEnclave(e *Enclave, s *Snapshot) error {
	d.mu.Lock()
	defer d.mu.Unlock()
	if e.base != s.base || e.size != s.size {
		return fmt.Errorf("%w: enclave span %#x+%#x does not match snapshot %#x+%#x",
			ErrBadAddress, e.base, e.size, s.base, s.size)
	}
	if e.mrEnclave != s.mrEnclave {
		return fmt.Errorf("sgx: scrub measurement mismatch: enclave %x, snapshot %x",
			e.mrEnclave[:8], s.mrEnclave[:8])
	}
	if len(e.pages) != len(s.pages) {
		return fmt.Errorf("sgx: scrub page-count mismatch: enclave has %d, snapshot %d",
			len(e.pages), len(s.pages))
	}
	d.chargeLocked(uint64(len(s.pages)))
	for i := range s.pages {
		sp := &s.pages[i]
		slot, ok := e.pages[sp.vaddr]
		if !ok {
			return fmt.Errorf("%w: scrub: %#x", ErrPageNotMapped, sp.vaddr)
		}
		pg := &d.epc[slot]
		d.restoreLocked(slot, sp)
		pg.perm = sp.perm
		pg.ptype = sp.ptype
		pg.pending = false
	}
	e.locked = false
	return nil
}

// restoreLocked writes a captured page's content into slot under the
// slot's current owner: re-encrypted bytes, or the zero mark. Callers hold
// d.mu.
func (d *Device) restoreLocked(slot int, sp *snapPage) {
	pg := &d.epc[slot]
	if sp.data == nil {
		pg.zero = true
		return
	}
	pg.zero = false
	data := d.page(slot)
	copy(data, sp.data[:])
	d.cryptPage(slot, pg.owner, 0, data)
}
