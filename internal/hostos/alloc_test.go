//go:build !race

package hostos

import "testing"

// TestMapAllocs pins that mapping a page whose leaf table already exists
// allocates nothing: leaf tables hold their entries by value.
func TestMapAllocs(t *testing.T) {
	as := NewAddressSpace()
	const base = 0x40000000 // 1 GiB: the start of a leaf table's 2 MiB span
	if err := as.Map(base, 0, PermR); err != nil {
		t.Fatal(err)
	}
	next := 0
	var mapErr error
	allocs := testing.AllocsPerRun(500, func() {
		next = next%511 + 1
		if err := as.Map(base+uint64(next)*PageSize, next, PermR|PermW); err != nil {
			mapErr = err
		}
	})
	if mapErr != nil {
		t.Fatal(mapErr)
	}
	if allocs != 0 {
		t.Errorf("Map into an existing leaf table: %.1f allocs/op, want 0", allocs)
	}
	if frame, perm, err := as.Translate(base + 7*PageSize); err != nil || frame != 7 || perm != PermR|PermW {
		t.Errorf("Translate = (%d, %s, %v), want (7, rw-, nil)", frame, perm, err)
	}
}
