package elf64

import (
	"math/rand"
	"testing"
	"testing/quick"
)

// TestQuickParseNeverPanics feeds random byte blobs to Parse: every input
// must produce a *File or an error, never a panic or an out-of-bounds
// access. EnGarde parses attacker-supplied images, so this is a security
// property of the pipeline, not just robustness.
func TestQuickParseNeverPanics(t *testing.T) {
	f := func(data []byte) bool {
		file, err := Parse(data)
		if err != nil {
			return true
		}
		// Walk every accessor over a successfully parsed file; none may
		// panic.
		_ = file.VerifyPIE()
		_ = file.TextSections()
		_, _ = file.Symbols()
		_, _ = file.Dynamic()
		_, _ = file.Relocations()
		_, _ = file.DataAt(0, 1)
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
}

// TestQuickMutatedImageNeverPanics takes a valid image and flips random
// bytes — closer to real attack inputs than pure noise, since headers stay
// mostly plausible.
func TestQuickMutatedImageNeverPanics(t *testing.T) {
	base := buildTestPIEImage(t)
	f := func(seed int64, flips uint8) bool {
		r := rand.New(rand.NewSource(seed))
		img := append([]byte(nil), base...)
		for k := 0; k < int(flips%32)+1; k++ {
			img[r.Intn(len(img))] ^= byte(1 << r.Intn(8))
		}
		file, err := Parse(img)
		if err != nil {
			return true
		}
		_ = file.VerifyPIE()
		_ = file.TextSections()
		_, _ = file.Symbols()
		_, _ = file.Relocations()
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 1000}); err != nil {
		t.Error(err)
	}
}

// TestQuickTruncationNeverPanics parses every prefix of a valid image.
func TestQuickTruncationNeverPanics(t *testing.T) {
	img := buildTestPIEImage(t)
	for n := 0; n <= len(img); n += 7 {
		file, err := Parse(img[:n])
		if err != nil {
			continue
		}
		_, _ = file.Symbols()
		_, _ = file.Relocations()
	}
}

func buildTestPIEImage(t testing.TB) []byte {
	t.Helper()
	return buildTestPIE(t, make([]byte, 512), make([]byte, 128))
}

// FuzzParseELF drives Parse over attacker-shaped images: Parse and every
// accessor of a parsed file return, never panic.
func FuzzParseELF(f *testing.F) {
	img := buildTestPIEImage(f)
	f.Add(img)
	for _, n := range []int{0, 4, EhdrSize - 1, EhdrSize, EhdrSize + PhdrSize, len(img) / 2, len(img) - 1} {
		f.Add(img[:n])
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		file, err := Parse(data)
		if err != nil {
			return
		}
		_ = file.VerifyPIE()
		_ = file.TextSections()
		_ = file.Section(".text")
		_, _ = file.Symbols()
		_, _ = file.Dynamic()
		_, _ = file.DynValue(DTRela)
		_, _ = file.Relocations()
		_ = file.Raw()
		for _, p := range file.Progs {
			_, _ = file.DataAt(p.Vaddr, p.Filesz)
			_, _ = file.DataAt(p.Vaddr+p.Filesz, 1)
		}
		_, _ = file.DataAt(0, 1)
		_, _ = file.DataAt(^uint64(0), 2)
	})
}
