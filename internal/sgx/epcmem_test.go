package sgx

import (
	"runtime"
	"testing"
	"time"
)

// settledEPCMappings collects garbage until the live-mapping count stops
// falling, so devices other tests dropped do not count.
func settledEPCMappings() int64 {
	n := liveEPCMappings.Load()
	for {
		runtime.GC()
		time.Sleep(10 * time.Millisecond) // let queued finalizers run
		m := liveEPCMappings.Load()
		if m == n {
			return n
		}
		n = m
	}
}

func TestDroppedDeviceReleasesEPC(t *testing.T) {
	base := settledEPCMappings()
	// The device lives only inside this call. An enclave points back at
	// it: the cycle must not pin the storage.
	func() {
		d, err := NewDevice(Config{EPCPages: 64, Version: V2})
		if err != nil {
			t.Fatal(err)
		}
		e, err := d.ECreate(0x100000, 4*PageSize)
		if err != nil {
			t.Fatal(err)
		}
		if err := d.EAdd(e, 0x100000, PermR|PermW, PageREG, []byte("resident")); err != nil {
			t.Fatal(err)
		}
		if got := liveEPCMappings.Load(); got != base+1 {
			t.Fatalf("live EPC mappings with one device: %d, want %d", got, base+1)
		}
	}()
	deadline := time.Now().Add(5 * time.Second)
	for liveEPCMappings.Load() > base {
		if time.Now().After(deadline) {
			t.Fatalf("dropped device's EPC still mapped: %d live, want %d", liveEPCMappings.Load(), base)
		}
		runtime.GC()
		time.Sleep(10 * time.Millisecond)
	}
}
