// Package hostos simulates the host operating system underneath the SGX
// device: x86-64 4-level page tables, the SGX driver that services enclave
// build requests, and EnGarde's in-kernel component (paper §3), which marks
// provisioned code pages executable-but-not-writable, data pages
// writable-but-not-executable, and locks the enclave against growth.
//
// Page tables matter here because SGX version 1 enforces page permissions
// only at this level — a malicious or compromised host OS can rewrite them
// after EnGarde's check, which is why the paper concludes EnGarde requires
// SGX v2's EPCM-level permissions for security. The package reproduces both
// sides of that argument (see the AsyncShock-style tests).
package hostos

import (
	"errors"
	"fmt"
	"sync"

	"engarde/internal/sgx"
)

// PageSize is the translation granularity.
const PageSize = sgx.PageSize

// Page-table errors.
var (
	// ErrNotMapped is returned when a translation misses.
	ErrNotMapped = errors.New("hostos: page not mapped")
	// ErrPageFault is returned when an access violates page-table
	// permissions.
	ErrPageFault = errors.New("hostos: page fault (permission)")
	// ErrBadAlign is returned for unaligned mapping requests.
	ErrBadAlign = errors.New("hostos: address not page-aligned")
)

// Perm is a page-table permission set (software view of PTE bits: present,
// writable, and the inverted NX bit).
type Perm uint8

// Page-table permissions.
const (
	PermR Perm = 1 << iota // present/readable
	PermW                  // writable
	PermX                  // executable (NX clear)
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

// pte is a leaf page-table entry. A zero pte is not present.
type pte struct {
	present bool
	perm    Perm
	frame   int // backing frame (EPC slot for enclave pages)
}

// The radix tree's four 512-entry levels. Leaf tables hold their PTEs by
// value, so mapping a page allocates nothing once its leaf table exists.
type (
	ptLeaf [512]pte     // PT
	ptDir  [512]*ptLeaf // PD
	ptMid  [512]*ptDir  // PDPT
	ptRoot [512]*ptMid  // PML4
)

// AddressSpace is a 4-level x86-64 page table.
type AddressSpace struct {
	mu   sync.RWMutex
	root ptRoot
}

// NewAddressSpace returns an empty address space.
func NewAddressSpace() *AddressSpace {
	return &AddressSpace{}
}

// levelIndex extracts the 9-bit index for the given level (0 = PML4).
func levelIndex(va uint64, level int) int {
	shift := uint(39 - 9*level)
	return int(va>>shift) & 0x1FF
}

// child returns the table *slot points to, allocating it first if it is
// missing and create is set; nil if it is missing otherwise.
func child[T any](slot **T, create bool) *T {
	if *slot == nil && create {
		*slot = new(T)
	}
	return *slot
}

// walkLocked returns the leaf PTE for va, optionally allocating the tables
// on the way. It returns nil when a table is missing and create is unset;
// callers treat that like a PTE that is not present.
func (as *AddressSpace) walkLocked(va uint64, create bool) *pte {
	mid := child(&as.root[levelIndex(va, 0)], create)
	if mid == nil {
		return nil
	}
	dir := child(&mid[levelIndex(va, 1)], create)
	if dir == nil {
		return nil
	}
	leaf := child(&dir[levelIndex(va, 2)], create)
	if leaf == nil {
		return nil
	}
	return &leaf[levelIndex(va, 3)]
}

// Map installs a translation for the page containing va.
func (as *AddressSpace) Map(va uint64, frame int, perm Perm) error {
	if va%PageSize != 0 {
		return fmt.Errorf("%w: %#x", ErrBadAlign, va)
	}
	as.mu.Lock()
	defer as.mu.Unlock()
	entry := as.walkLocked(va, true)
	entry.present = true
	entry.perm = perm | PermR
	entry.frame = frame
	return nil
}

// Unmap removes the translation for the page containing va.
func (as *AddressSpace) Unmap(va uint64) error {
	as.mu.Lock()
	defer as.mu.Unlock()
	entry := as.walkLocked(va&^uint64(PageSize-1), false)
	if entry == nil || !entry.present {
		return fmt.Errorf("%w: %#x", ErrNotMapped, va)
	}
	entry.present = false
	return nil
}

// Protect changes the permissions of an existing mapping. This is the
// host-controlled operation that makes SGXv1-only enforcement subvertible.
func (as *AddressSpace) Protect(va uint64, perm Perm) error {
	as.mu.Lock()
	defer as.mu.Unlock()
	entry := as.walkLocked(va&^uint64(PageSize-1), false)
	if entry == nil || !entry.present {
		return fmt.Errorf("%w: %#x", ErrNotMapped, va)
	}
	entry.perm = perm | PermR
	return nil
}

// Translate walks the table for va and returns the frame and permissions.
func (as *AddressSpace) Translate(va uint64) (frame int, perm Perm, err error) {
	as.mu.RLock()
	defer as.mu.RUnlock()
	entry := as.walkLocked(va&^uint64(PageSize-1), false)
	if entry == nil || !entry.present {
		return 0, 0, fmt.Errorf("%w: %#x", ErrNotMapped, va)
	}
	return entry.frame, entry.perm, nil
}

// Check validates an access of the given kind against the page-table
// permissions for every page in [va, va+n).
func (as *AddressSpace) Check(va, n uint64, need Perm) error {
	if n == 0 {
		return nil
	}
	first := va &^ uint64(PageSize-1)
	last := (va + n - 1) &^ uint64(PageSize-1)
	for page := first; ; page += PageSize {
		_, perm, err := as.Translate(page)
		if err != nil {
			return err
		}
		if perm&need != need {
			return fmt.Errorf("%w: need %s at %#x, have %s", ErrPageFault, need, page, perm)
		}
		if page == last {
			break
		}
	}
	return nil
}
