package sgx

import (
	"runtime"
	"sync/atomic"
)

// epcMem is the EPC's page storage: one region of n*PageSize bytes that
// lives off the Go heap where the platform allows (epcmem_unix.go), so
// the GC neither scans it nor counts it toward the heap goal, and the
// kernel backs each page only when it is first touched. The region is
// released when the epcMem becomes unreachable. epcMem references nothing
// on the Go heap, so a Device ↔ Enclave cycle cannot keep it alive.
type epcMem struct {
	b []byte
}

// liveEPCMappings counts epcMem regions not yet released.
var liveEPCMappings atomic.Int64

// newEPCMem maps storage for n pages and arranges for its release.
func newEPCMem(n int) (*epcMem, error) {
	b, err := mapEPC(n * PageSize)
	if err != nil {
		return nil, err
	}
	m := &epcMem{b: b}
	liveEPCMappings.Add(1)
	runtime.SetFinalizer(m, func(m *epcMem) {
		unmapEPC(m.b)
		liveEPCMappings.Add(-1)
	})
	return m, nil
}
