// Package sgx is a software model of the Intel SGX architecture, playing
// the role OpenSGX plays in the EnGarde paper (§4): it provides enclaves
// whose pages live in an encrypted page cache (EPC), the enclave lifecycle
// instructions (ECREATE/EADD/EEXTEND/EINIT/EREMOVE), enclave entry and exit
// (EENTER/EEXIT) with OpenSGX-style trampolines for host calls, local
// reports (EREPORT/EGETKEY) for attestation, and — switchable — the SGX
// version-1 and version-2 permission semantics whose difference the paper
// depends on (EPCM-level page permissions exist only in v2).
//
// EPC pages are stored AES-CTR-encrypted under a hardware key that the
// device never reveals, so tests can verify that plaintext enclave content
// is unobservable from outside the enclave, the property EnGarde's threat
// model builds on.
package sgx

import (
	"crypto/aes"
	"crypto/cipher"
	"crypto/rand"
	"encoding/binary"
	"errors"
	"fmt"
	"math/bits"
	"sync"

	"engarde/internal/cycles"
)

// PageSize is the EPC page granularity.
const PageSize = 4096

// DefaultEPCPages is OpenSGX's default EPC size (2000 pages ≈ 8 MB). The
// paper raised it to 32000 pages (128 MB) to fit client executables plus
// their decoded instruction buffers; see ModifiedEPCPages.
const DefaultEPCPages = 2000

// ModifiedEPCPages is the EPC size after the paper's OpenSGX modification
// (§4 "Modifications to OpenSGX").
const ModifiedEPCPages = 32000

// DefaultHeapPages is OpenSGX's default number of initial heap page frames;
// the paper raises it from 300 to 5000.
const (
	DefaultHeapPages  = 300
	ModifiedHeapPages = 5000
)

// Version selects the SGX instruction-set generation.
type Version int

// SGX instruction-set versions.
const (
	// V1 is the Skylake instruction set: EPC page permissions cannot be
	// changed at the hardware level, so W^X can only be enforced in host
	// page tables (subvertible by the host OS — paper §3, [39]).
	V1 Version = iota + 1
	// V2 adds EAUG/EMODPR/EMODPE: EPCM-level permissions are enforced on
	// every enclave access, which EnGarde requires for security.
	V2
)

func (v Version) String() string {
	switch v {
	case V1:
		return "SGXv1"
	case V2:
		return "SGXv2"
	default:
		return fmt.Sprintf("SGXv(%d)", int(v))
	}
}

// Perm is an EPCM page-permission bitmask.
type Perm uint8

// Page permissions.
const (
	PermR Perm = 1 << iota
	PermW
	PermX
)

func (p Perm) String() string {
	b := []byte("---")
	if p&PermR != 0 {
		b[0] = 'r'
	}
	if p&PermW != 0 {
		b[1] = 'w'
	}
	if p&PermX != 0 {
		b[2] = 'x'
	}
	return string(b)
}

// PageType is the EPCM page-type field.
type PageType uint8

// EPC page types.
const (
	PageSECS PageType = iota + 1
	PageTCS
	PageREG
)

// EnclaveID identifies an enclave on a device.
type EnclaveID uint64

// Errors returned by the device.
var (
	ErrEPCFull        = errors.New("sgx: EPC exhausted")
	ErrNotInitialized = errors.New("sgx: enclave not initialized")
	ErrInitialized    = errors.New("sgx: enclave already initialized")
	ErrBadAddress     = errors.New("sgx: address outside enclave range")
	ErrPageMapped     = errors.New("sgx: page already mapped")
	ErrPageNotMapped  = errors.New("sgx: page not mapped")
	ErrPermission     = errors.New("sgx: EPCM permission violation")
	ErrV2Only         = errors.New("sgx: instruction requires SGX version 2")
	ErrEnclaveLocked  = errors.New("sgx: enclave is locked against growth")
	ErrEnclaveLost    = errors.New("sgx: enclave lost (EPC pages reclaimed by host)")
)

// epcPage is one ciphertext page plus its EPCM entry.
type epcPage struct {
	data [PageSize]byte // AES-CTR ciphertext under the hardware key

	valid   bool
	owner   EnclaveID
	vaddr   uint64
	perm    Perm
	ptype   PageType
	pending bool // EAUG'd but not yet EACCEPT'd (v2)
	// zero means the page's plaintext is all zeros and data does not hold
	// its ciphertext yet: the keystream is written on first touch
	// (materializeLocked). A simulation shortcut only — no instruction is
	// charged differently, and every observer sees the eager page.
	zero bool
}

// setEPCM makes a freshly allocated slot a valid, accepted page of owner.
// The page data is left for the caller to fill, or to mark zero.
func (pg *epcPage) setEPCM(owner EnclaveID, vaddr uint64, perm Perm, ptype PageType) {
	pg.valid, pg.owner, pg.vaddr, pg.perm, pg.ptype, pg.pending, pg.zero = true, owner, vaddr, perm, ptype, false, false
}

// freeSlotLocked invalidates a slot's EPCM entry and returns the slot to
// the free pool. The stale ciphertext stays: no path can read an invalid
// slot, and every allocation path writes the whole page or marks it zero
// before the slot becomes valid again. Callers hold d.mu.
func (d *Device) freeSlotLocked(slot int) {
	pg := &d.epc[slot]
	pg.valid, pg.owner, pg.vaddr, pg.perm, pg.ptype, pg.pending, pg.zero = false, 0, 0, 0, 0, false, false
	d.free = append(d.free, slot)
}

// materializeLocked writes a zero page's ciphertext, the keystream of an
// all-zero page under its (slot, owner) IV, so data holds what an eager
// write would have left. Callers hold d.mu.
func (d *Device) materializeLocked(slot int) {
	pg := &d.epc[slot]
	if !pg.zero {
		return
	}
	clear(pg.data[:])
	d.cryptPage(slot, pg.owner, 0, pg.data[:])
	pg.zero = false
}

// Config configures a Device.
type Config struct {
	// EPCPages is the EPC capacity in pages; DefaultEPCPages if zero.
	EPCPages int
	// Version is the instruction-set generation; V1 if zero.
	Version Version
	// Counter, if non-nil, is charged for every SGX instruction executed
	// (10K cycles each, per the paper's methodology).
	Counter *cycles.Counter
}

// Device models one SGX-capable machine: an EPC, its EPCM, and a hardware
// key hierarchy.
type Device struct {
	mu       sync.Mutex
	version  Version
	epc      []epcPage
	free     []int // free EPC slot indexes
	enclaves map[EnclaveID]*Enclave
	nextID   EnclaveID

	hwKey   [16]byte     // hardware-managed memory-encryption key (never exposed)
	hwBlock cipher.Block // hwKey's AES key schedule, expanded once
	sealKey [32]byte     // root for EGETKEY derivations

	// scratch is working memory for the instruction in flight, guarded
	// by mu. Buffers handed to crypto/cipher and hash.Hash methods escape
	// to the heap; device-owned ones cost no allocation per instruction.
	scratch struct {
		page    [PageSize]byte // one page of plaintext
		iv, pad [aes.BlockSize]byte
		rec     [24]byte // one measurement-log record
	}

	counter *cycles.Counter
	phase   cycles.Phase
}

// NewDevice creates a device.
func NewDevice(cfg Config) (*Device, error) {
	n := cfg.EPCPages
	if n == 0 {
		n = DefaultEPCPages
	}
	v := cfg.Version
	if v == 0 {
		v = V1
	}
	d := &Device{
		version:  v,
		epc:      make([]epcPage, n),
		free:     make([]int, n),
		enclaves: make(map[EnclaveID]*Enclave),
		nextID:   1,
		counter:  cfg.Counter,
		phase:    cycles.PhaseProvision,
	}
	for i := range d.free {
		d.free[i] = n - 1 - i // pop from the end → ascending allocation
	}
	if _, err := rand.Read(d.hwKey[:]); err != nil {
		return nil, fmt.Errorf("sgx: generating hardware key: %w", err)
	}
	block, err := aes.NewCipher(d.hwKey[:])
	if err != nil {
		return nil, fmt.Errorf("sgx: hardware key schedule: %w", err)
	}
	d.hwBlock = block
	if _, err := rand.Read(d.sealKey[:]); err != nil {
		return nil, fmt.Errorf("sgx: generating seal key: %w", err)
	}
	return d, nil
}

// Version reports the device's instruction-set generation.
func (d *Device) Version() Version { return d.version }

// EPCCapacity returns the EPC size in pages.
func (d *Device) EPCCapacity() int { return len(d.epc) }

// EPCFree returns the number of free EPC pages.
func (d *Device) EPCFree() int {
	d.mu.Lock()
	defer d.mu.Unlock()
	return len(d.free)
}

// SetPhase directs subsequent SGX-instruction charges at the given
// accounting phase.
func (d *Device) SetPhase(p cycles.Phase) {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.phase = p
}

// chargeLocked charges n SGX instructions; callers hold d.mu.
func (d *Device) chargeLocked(n uint64) {
	if d.counter != nil {
		d.counter.Charge(d.phase, cycles.UnitSGXInstr, n)
	}
}

// ChargeSGX charges n SGX-instruction crossings from outside the device
// (used by the runtime's trampoline helpers).
func (d *Device) ChargeSGX(n uint64) {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.chargeLocked(n)
}

// cryptPage en/decrypts part of one EPC page in place: it XORs buf with
// the AES-CTR keystream under the hardware key and the per-slot,
// per-enclave IV, starting at byte off of the page. The keystream at off
// is the one a whole-page pass would use there, so any byte range of a
// page en/decrypts independently of the rest. Encryption and decryption
// are the same operation. Callers hold d.mu.
func (d *Device) cryptPage(slot int, owner EnclaveID, off int, buf []byte) {
	iv := d.scratch.iv[:]
	binary.LittleEndian.PutUint64(iv[0:], uint64(slot))
	binary.LittleEndian.PutUint64(iv[8:], uint64(owner))
	// CTR counts the IV up as one big-endian 128-bit integer: advance it
	// to the block holding off, then discard the bytes before off.
	lo, carry := bits.Add64(binary.BigEndian.Uint64(iv[8:]), uint64(off/aes.BlockSize), 0)
	binary.BigEndian.PutUint64(iv[0:], binary.BigEndian.Uint64(iv[0:])+carry)
	binary.BigEndian.PutUint64(iv[8:], lo)
	stream := cipher.NewCTR(d.hwBlock, iv)
	if skip := off % aes.BlockSize; skip != 0 {
		stream.XORKeyStream(d.scratch.pad[:skip], d.scratch.pad[:skip])
	}
	stream.XORKeyStream(buf, buf)
}

// RawEPCPage exposes the stored (encrypted) bytes of an EPC slot — the view
// an adversary probing the memory bus would get. Test-and-demo API.
func (d *Device) RawEPCPage(slot int) ([]byte, bool) {
	d.mu.Lock()
	defer d.mu.Unlock()
	if slot < 0 || slot >= len(d.epc) || !d.epc[slot].valid {
		return nil, false
	}
	d.materializeLocked(slot)
	out := make([]byte, PageSize)
	copy(out, d.epc[slot].data[:])
	return out, true
}

// Enclave returns the enclave with the given ID.
func (d *Device) Enclave(id EnclaveID) (*Enclave, bool) {
	d.mu.Lock()
	defer d.mu.Unlock()
	e, ok := d.enclaves[id]
	return e, ok
}
