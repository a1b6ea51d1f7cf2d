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
	boot := make([]byte, PageSize)
	for i := range boot {
		boot[i] = byte(i * 7)
	}
	const base = 0x10000000
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e, err := d.ECreate(base, measuredBuildPages*PageSize)
		if err != nil {
			b.Fatal(err)
		}
		for p := 0; p < measuredBuildPages; p++ {
			va := uint64(base + p*PageSize)
			var content []byte
			if p < 16 {
				content = boot
			}
			if err := d.EAdd(e, va, PermR|PermW|PermX, PageREG, content); err != nil {
				b.Fatal(err)
			}
			if err := d.EExtendPage(e, va); err != nil {
				b.Fatal(err)
			}
		}
		if err := d.EInit(e); err != nil {
			b.Fatal(err)
		}
		d.DestroyEnclave(e)
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*measuredBuildPages), "ns/page")
}
