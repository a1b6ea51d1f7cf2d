package sgx

import (
	"bytes"
	"testing"
)

// Zero pages are a simulation shortcut: a page whose plaintext is all
// zeros carries no ciphertext until something touches it. These tests pin
// that no observer — the enclave, the paging path, the memory bus, or the
// next owner of a freed slot — can tell a lazy zero page from an eager one.

// zeroTemplate builds and snapshots a small enclave of two content pages
// followed by nZero zero pages (EAdd with no content), all writable so tests can
// overwrite every page.
func zeroTemplate(t *testing.T, d *Device, base uint64, nZero int) (*Enclave, *Snapshot, [][]byte) {
	t.Helper()
	pages := append(snapPages(2), make([][]byte, nZero)...)
	e := buildEnclave(t, d, base, pages)
	snap, err := d.SnapshotEnclave(e)
	if err != nil {
		t.Fatal(err)
	}
	return e, snap, pages
}

// readPage returns the in-enclave view of the page at va.
func readPage(t *testing.T, e *Enclave, va uint64) []byte {
	t.Helper()
	buf := make([]byte, PageSize)
	if err := e.Read(va, buf); err != nil {
		t.Fatalf("Read(%#x): %v", va, err)
	}
	return buf
}

func TestLazyZeroPageMatchesEager(t *testing.T) {
	d := newTestDevice(t, V2)
	const base = 0x20000
	_, snap, pages := zeroTemplate(t, d, base, 6)
	zeros := make([]byte, PageSize)
	zeroVA := func(i int) uint64 { return base + uint64((2+i)*PageSize) }

	// EAdd(nil) measures exactly like an explicit page of zeros.
	eager := make([][]byte, len(pages))
	for i := range pages {
		eager[i] = pages[i]
		if eager[i] == nil {
			eager[i] = make([]byte, PageSize)
		}
	}
	if ref := buildEnclave(t, d, base, eager); ref.Measurement() != snap.Measurement() {
		t.Fatal("EAdd(nil) and an explicit page of zeros measure differently")
	}
	if got := snap.pages[3].data; got != nil {
		t.Fatal("snapshot stores bytes for a zero page")
	}

	a, err := d.CloneEnclave(snap)
	if err != nil {
		t.Fatal(err)
	}
	b, err := d.CloneEnclave(snap)
	if err != nil {
		t.Fatal(err)
	}

	// The bus sees the AES-CTR encryption of zeros under the page's own
	// (slot, enclave id), on an untouched page.
	checkCiphertext(t, d, a, zeroVA(0), zeros, "untouched zero page")
	// The enclave reads zeros.
	if got := readPage(t, a, zeroVA(1)); !bytes.Equal(got, zeros) {
		t.Fatal("zero page does not read as zeros")
	}
	checkCiphertext(t, d, a, zeroVA(1), zeros, "zero page after a read")

	// EWB→ELDU restores zeros.
	ep, err := d.EWB(a, zeroVA(2))
	if err != nil {
		t.Fatal(err)
	}
	if err := d.ELDU(a, ep); err != nil {
		t.Fatal(err)
	}
	if got := readPage(t, a, zeroVA(2)); !bytes.Equal(got, zeros) {
		t.Fatal("zero page reloaded by ELDU does not read as zeros")
	}
	checkCiphertext(t, d, a, zeroVA(2), zeros, "zero page after EWB/ELDU")

	// A partial write keeps the rest of the page zero.
	if err := a.Write(zeroVA(3)+100, []byte("mark")); err != nil {
		t.Fatal(err)
	}
	want := make([]byte, PageSize)
	copy(want[100:], "mark")
	if got := readPage(t, a, zeroVA(3)); !bytes.Equal(got, want) {
		t.Fatal("partial write into a zero page disturbed the rest of it")
	}
	checkCiphertext(t, d, a, zeroVA(3), want, "zero page after a partial write")

	// Two clones hold unrelated ciphertext for the same zero plaintext.
	for i := 0; i < 6; i++ {
		slotA, _ := a.PageSlot(zeroVA(i))
		slotB, _ := b.PageSlot(zeroVA(i))
		rawA, _ := d.RawEPCPage(slotA)
		rawB, _ := d.RawEPCPage(slotB)
		if bytes.Equal(rawA, rawB) {
			t.Fatalf("zero page %d: both clones hold the same ciphertext", i)
		}
		checkCiphertext(t, d, b, zeroVA(i), zeros, "second clone's zero page")
	}

	// An EAUG'd page is a zero page too.
	grow, err := d.ECreate(0x100000, 2*PageSize)
	if err != nil {
		t.Fatal(err)
	}
	if err := d.EInit(grow); err != nil {
		t.Fatal(err)
	}
	if err := d.EAug(grow, 0x100000, PermR|PermW); err != nil {
		t.Fatal(err)
	}
	if err := d.EAccept(grow, 0x100000); err != nil {
		t.Fatal(err)
	}
	if got := readPage(t, grow, 0x100000); !bytes.Equal(got, zeros) {
		t.Fatal("EAUG'd page does not read as zeros")
	}
	checkCiphertext(t, d, grow, 0x100000, zeros, "EAUG'd page")
}

func TestFreedSlotLeaksNothing(t *testing.T) {
	const base, nZero = 0x20000, 6
	// The device fits exactly one clone once the template is gone, so every
	// later allocation re-takes a slot the marked clone held.
	d, err := NewDevice(Config{EPCPages: 2 + nZero, Version: V2})
	if err != nil {
		t.Fatal(err)
	}
	tmpl, snap, pages := zeroTemplate(t, d, base, nZero)
	d.DestroyEnclave(tmpl)

	c, err := d.CloneEnclave(snap)
	if err != nil {
		t.Fatal(err)
	}
	marker := bytes.Repeat([]byte("RESIDUE!"), PageSize/8)
	var slots []int
	for i := range pages {
		va := base + uint64(i*PageSize)
		if err := c.Write(va, marker); err != nil {
			t.Fatal(err)
		}
		slot, _ := c.PageSlot(va)
		slots = append(slots, slot)
	}
	d.DestroyEnclave(c)
	for _, slot := range slots {
		if _, ok := d.RawEPCPage(slot); ok {
			t.Fatalf("freed slot %d is still readable", slot)
		}
	}

	zeros := make([]byte, PageSize)
	expectZero := func(e *Enclave, va uint64, via string) {
		t.Helper()
		got := readPage(t, e, va)
		if bytes.Contains(got, []byte("RESIDUE!")) {
			t.Fatalf("%s: re-taken slot reads back the marker", via)
		}
		if !bytes.Equal(got, zeros) {
			t.Fatalf("%s: re-taken slot reads non-zero bytes", via)
		}
	}

	added, err := d.ECreate(0x100000, 2*PageSize)
	if err != nil {
		t.Fatal(err)
	}
	for _, va := range []uint64{0x100000, 0x101000} {
		if err := d.EAdd(added, va, PermR|PermW, PageREG, nil); err != nil {
			t.Fatal(err)
		}
		expectZero(added, va, "EAdd(nil)")
	}
	d.DestroyEnclave(added)

	augd, err := d.ECreate(0x100000, 2*PageSize)
	if err != nil {
		t.Fatal(err)
	}
	if err := d.EInit(augd); err != nil {
		t.Fatal(err)
	}
	for _, va := range []uint64{0x100000, 0x101000} {
		if err := d.EAug(augd, va, PermR|PermW); err != nil {
			t.Fatal(err)
		}
		if err := d.EAccept(augd, va); err != nil {
			t.Fatal(err)
		}
		expectZero(augd, va, "EAug")
	}
	d.DestroyEnclave(augd)

	// EWB frees the page's slot and ELDU re-takes a marked one: it must
	// restore the evicted zeros, not the marker.
	paged, err := d.ECreate(0x100000, PageSize)
	if err != nil {
		t.Fatal(err)
	}
	if err := d.EAdd(paged, 0x100000, PermR|PermW, PageREG, nil); err != nil {
		t.Fatal(err)
	}
	if err := d.EInit(paged); err != nil {
		t.Fatal(err)
	}
	ep, err := d.EWB(paged, 0x100000)
	if err != nil {
		t.Fatal(err)
	}
	if err := d.ELDU(paged, ep); err != nil {
		t.Fatal(err)
	}
	expectZero(paged, 0x100000, "ELDU")
	d.DestroyEnclave(paged)

	// A clone over the marked slots shows the snapshot, nothing else.
	again, err := d.CloneEnclave(snap)
	if err != nil {
		t.Fatal(err)
	}
	for i, want := range pages {
		va := base + uint64(i*PageSize)
		if want == nil {
			expectZero(again, va, "CloneEnclave")
			continue
		}
		if got := readPage(t, again, va); !bytes.Equal(got, want) {
			t.Fatalf("CloneEnclave: page %#x differs from the snapshot", va)
		}
	}
	if d.EPCFree() != 0 {
		t.Fatalf("clone did not re-take every slot: %d free", d.EPCFree())
	}
}
