//go:build !race

package sgx

import (
	"runtime"
	"testing"
)

// The ceiling on what one EADD, EEXTENDPage, Read or Write may allocate:
// the CTR stream state crypto/cipher builds for each page the call
// touches (about 512 B), plus map growth amortized over many EADDs, but
// never a page-sized buffer.
const (
	allocsPerPagePiece = 1
	pageOpMaxBytes     = PageSize / 2
)

// perOp runs f n times and returns the mean allocations and bytes per run.
func perOp(n int, f func()) (allocs, bytes float64) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	f() // warm up, as testing.AllocsPerRun does
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < n; i++ {
		f()
	}
	runtime.ReadMemStats(&after)
	return float64(after.Mallocs-before.Mallocs) / float64(n),
		float64(after.TotalAlloc-before.TotalAlloc) / float64(n)
}

func TestPageInstructionAllocs(t *testing.T) {
	const n = 1000
	d, err := NewDevice(Config{EPCPages: n + 2, Version: V2})
	if err != nil {
		t.Fatal(err)
	}
	const base = 0x100000
	e, err := d.ECreate(base, (n+2)*PageSize)
	if err != nil {
		t.Fatal(err)
	}
	content := make([]byte, PageSize)
	for i := range content {
		content[i] = byte(i)
	}
	buf := make([]byte, 3*PageSize/2)
	check := func(name string, pieces int, op func() error) {
		t.Helper()
		var opErr error
		allocs, bytes := perOp(n, func() {
			if err := op(); err != nil && opErr == nil {
				opErr = err
			}
		})
		if opErr != nil {
			t.Fatalf("%s: %v", name, opErr)
		}
		t.Logf("%s: %.2f allocs/op, %.0f B/op", name, allocs, bytes)
		if max := float64(pieces * allocsPerPagePiece); allocs > max+0.05 || bytes > pageOpMaxBytes {
			t.Errorf("%s: %.2f allocs/op, %.0f B/op; ceiling is %.0f allocs and %d B (no page buffers)",
				name, allocs, bytes, max, pageOpMaxBytes)
		}
	}
	next := uint64(base)
	check("EADD", 1, func() error {
		va := next
		next += PageSize
		return d.EAdd(e, va, PermR|PermW|PermX, PageREG, content)
	})
	next = base
	check("EEXTENDPage", 1, func() error {
		va := next
		next += PageSize
		return d.EExtendPage(e, va)
	})
	if err := d.EInit(e); err != nil {
		t.Fatal(err)
	}
	// A page and a half from an unaligned address spans two pages, or
	// three when it starts near a page end.
	check("Read", 2, func() error { return e.Read(base+PageSize+13, buf) })
	check("Write", 3, func() error { return e.Write(base+2*PageSize-7, buf) })
}

// cloneMaxAllocs bounds CloneEnclave plus DestroyEnclave at the default
// EnGarde shape. Zero pages cost no allocation, so what remains is the
// enclave, its page map and one CTR stream per content page.
const cloneMaxAllocs = 64

func TestCloneAllocs(t *testing.T) {
	d, snap := defaultSnapshot(t)
	var opErr error
	allocs, bytes := perOp(20, func() {
		e, err := d.CloneEnclave(snap)
		if err != nil {
			opErr = err
			return
		}
		d.DestroyEnclave(e)
	})
	if opErr != nil {
		t.Fatal(opErr)
	}
	t.Logf("clone+destroy of %d pages: %.1f allocs/op, %.0f B/op", snap.Pages(), allocs, bytes)
	if allocs > cloneMaxAllocs {
		t.Errorf("clone+destroy: %.1f allocs/op, ceiling %d", allocs, cloneMaxAllocs)
	}
}

// newDeviceMaxHeap bounds what NewDevice takes from the Go heap at the
// paper's EPC size: the EPCM entries and the free list, never the page
// storage, which is mapped outside the heap and backed on first touch.
const newDeviceMaxHeap = 2 << 20

func TestNewDeviceHeapAllocs(t *testing.T) {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	d, err := NewDevice(Config{EPCPages: ModifiedEPCPages, Version: V2})
	if err != nil {
		t.Fatal(err)
	}
	runtime.ReadMemStats(&after)
	runtime.KeepAlive(d)
	grew := after.TotalAlloc - before.TotalAlloc
	t.Logf("NewDevice(%d pages): %d B of Go heap", ModifiedEPCPages, grew)
	if grew > newDeviceMaxHeap {
		t.Errorf("NewDevice(%d pages) took %d B of Go heap, ceiling %d", ModifiedEPCPages, grew, newDeviceMaxHeap)
	}
}
