package sgx

import "testing"

// measuredBuildPages is the EnGarde enclave the gatewayd builds by default:
// 16 bootstrap pages, 5000 heap pages and 1024 client pages.
const measuredBuildPages = 16 + 5000 + 1024

// BenchmarkMeasuredBuild times the SGX side of one default EnGarde enclave
// build: ECREATE, EADD plus EEXTENDPage (16 EEXTENDs) per page, EINIT. The
// bootstrap pages carry content, the rest are zero pages, as in
// core.NewOnDevice. Each iteration destroys the enclave to free the EPC.
func BenchmarkMeasuredBuild(b *testing.B) {
	d, err := NewDevice(Config{EPCPages: measuredBuildPages, Version: V2})
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		d.DestroyEnclave(measuredBuild(b, d))
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*measuredBuildPages), "ns/page")
}

// measuredBuild runs the default EnGarde build on d and returns the
// initialized enclave.
func measuredBuild(tb testing.TB, d *Device) *Enclave {
	tb.Helper()
	const base = 0x10000000
	boot := make([]byte, PageSize)
	for i := range boot {
		boot[i] = byte(i * 7)
	}
	e, err := d.ECreate(base, measuredBuildPages*PageSize)
	if err != nil {
		tb.Fatal(err)
	}
	for p := 0; p < measuredBuildPages; p++ {
		va := uint64(base + p*PageSize)
		var content []byte
		if p < 16 {
			content = boot
		}
		if err := d.EAdd(e, va, PermR|PermW|PermX, PageREG, content); err != nil {
			tb.Fatal(err)
		}
		if err := d.EExtendPage(e, va); err != nil {
			tb.Fatal(err)
		}
	}
	if err := d.EInit(e); err != nil {
		tb.Fatal(err)
	}
	return e
}

// defaultSnapshot captures the default EnGarde build on a device sized for
// one clone, and destroys the template.
func defaultSnapshot(tb testing.TB) (*Device, *Snapshot) {
	tb.Helper()
	d, err := NewDevice(Config{EPCPages: measuredBuildPages, Version: V2})
	if err != nil {
		tb.Fatal(err)
	}
	e := measuredBuild(tb, d)
	snap, err := d.SnapshotEnclave(e)
	if err != nil {
		tb.Fatal(err)
	}
	d.DestroyEnclave(e)
	return d, snap
}

// BenchmarkCloneDestroy times the SGX side of one default EnGarde enclave
// minted from a snapshot instead: CloneEnclave of the captured build, then
// DestroyEnclave to free the EPC. It is the per-session cost of the
// gateway's clone path.
func BenchmarkCloneDestroy(b *testing.B) {
	d, snap := defaultSnapshot(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e, err := d.CloneEnclave(snap)
		if err != nil {
			b.Fatal(err)
		}
		d.DestroyEnclave(e)
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*measuredBuildPages), "ns/page")
}
