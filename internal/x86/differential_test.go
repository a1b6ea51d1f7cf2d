package x86

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
)

// errClass maps a decode error to the sentinel it wraps.
func errClass(err error) error {
	for _, class := range []error{ErrTruncated, ErrInvalidOpcode, ErrTooLong} {
		if errors.Is(err, class) {
			return class
		}
	}
	return err
}

// diffDecode compares one decode of code at addr (in, err) with the
// reference decoder's. A rejection must carry the same error class; an
// accepted instruction must match the reference field for field: address,
// length, mnemonic, condition, both operands, immediates, displacement,
// layout, raw bytes, branch and RIP targets, text, and the Encode
// round-trip.
func diffDecode(in *Inst, err error, code []byte, addr uint64) error {
	ref, refErr := refDecode(code, addr)
	if err != nil || refErr != nil {
		if errClass(err) != errClass(refErr) {
			return fmt.Errorf("% x: error %v, reference %v", code[:min(len(code), maxInstLen)], err, refErr)
		}
		return nil
	}
	raw := code[:in.Len]
	got, want := in.String(), ref.String()
	bad := func(field string, g, w any) error {
		return fmt.Errorf("% x (%s): %s = %v, reference %v", raw, want, field, g, w)
	}
	switch {
	case in.Addr != ref.Addr:
		return bad("Addr", in.Addr, ref.Addr)
	case int(in.Len) != ref.Len || !bytes.Equal(raw, ref.Raw):
		return bad("raw bytes", raw, ref.Raw)
	case in.Op != ref.Op || in.Cond != ref.Cond:
		return bad("Op/Cond", got, want)
	case in.NArgs() != ref.NArgs:
		return bad("NArgs", in.NArgs(), ref.NArgs)
	case in.Arg(0) != ref.Args[0]:
		return bad("Arg(0)", in.Arg(0), ref.Args[0])
	case in.Arg(1) != ref.Args[1]:
		return bad("Arg(1)", in.Arg(1), ref.Args[1])
	case in.Imm != ref.Imm || int64(in.Imm2) != ref.Imm2:
		return bad("Imm/Imm2", [2]int64{in.Imm, int64(in.Imm2)}, [2]int64{ref.Imm, ref.Imm2})
	case int64(in.Disp) != ref.Disp:
		return bad("Disp", in.Disp, ref.Disp)
	case int(in.NumPrefix) != ref.NumPrefix || int(in.NumOpcode) != ref.NumOpcode ||
		int(in.NumDisp) != ref.NumDisp || int(in.NumImm) != ref.NumImm:
		return bad("layout", []uint8{in.NumPrefix, in.NumOpcode, in.NumDisp, in.NumImm},
			[]int{ref.NumPrefix, ref.NumOpcode, ref.NumDisp, ref.NumImm})
	case in.REX != ref.REX || in.ModRM != ref.ModRM || in.SIB != ref.SIB || in.Seg != ref.Seg ||
		in.Has(FlagModRM) != ref.HasModRM || in.Has(FlagSIB) != ref.HasSIB ||
		in.Has(FlagLock) != ref.Lock || in.Has(FlagRepF2) != ref.RepF2 || in.Has(FlagRepF3) != ref.RepF3 ||
		in.Has(FlagOpSize16) != ref.OpSize16 || in.Has(FlagAddr32) != ref.Addr32:
		return bad("prefix/ModRM/SIB", fmt.Sprintf("%+v", *in), fmt.Sprintf("%+v", ref))
	case got != want:
		return bad("String", got, want)
	}
	gt, gok := in.BranchTarget()
	wt, wok := ref.BranchTarget()
	if gt != wt || gok != wok {
		return bad("BranchTarget", gt, wt)
	}
	gt, gok = in.RIPTarget()
	wt, wok = ref.RIPTarget()
	if gt != wt || gok != wok {
		return bad("RIPTarget", gt, wt)
	}
	genc, gerr := Encode(in, raw)
	wenc, werr := refEncode(&ref)
	if !bytes.Equal(genc, wenc) || (gerr == nil) != (werr == nil) {
		return bad("Encode", fmt.Sprintf("% x (%v)", genc, gerr), fmt.Sprintf("% x (%v)", wenc, werr))
	}
	return nil
}

// DiffReference decodes the region code (based at base) front to back
// with DecodeInto, checking every instruction against the reference
// decoder. It returns the decoded sequence, the offset and error of the
// rejection that ended the walk (-1 and nil if the region decoded
// completely), and the first disagreement with the reference. It is
// exported for the program-level differential test (package x86_test).
func DiffReference(code []byte, base uint64) (insts []Inst, rejOff int, rej, diff error) {
	for off := 0; off < len(code); {
		var in Inst
		addr := base + uint64(off)
		err := DecodeInto(&in, code[off:], addr)
		if d := diffDecode(&in, err, code[off:], addr); d != nil {
			return insts, off, err, fmt.Errorf("at %#x: %w", addr, d)
		}
		if err != nil {
			return insts, off, err, nil
		}
		insts = append(insts, in)
		off += int(in.Len)
	}
	return insts, -1, nil, nil
}

// readCorpus returns the inputs of a checked-in fuzz corpus directory.
func readCorpus(t *testing.T, dir string) [][]byte {
	t.Helper()
	paths, err := filepath.Glob(filepath.Join(dir, "*"))
	if err != nil {
		t.Fatal(err)
	}
	if len(paths) == 0 {
		t.Fatalf("no corpus under %s", dir)
	}
	var inputs [][]byte
	for _, path := range paths {
		raw, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		lines := strings.Split(strings.TrimSpace(string(raw)), "\n")
		lit, ok := strings.CutPrefix(lines[len(lines)-1], "[]byte(")
		if !ok {
			t.Fatalf("%s: unexpected corpus entry %q", path, lines[len(lines)-1])
		}
		s, err := strconv.Unquote(strings.TrimSuffix(lit, ")"))
		if err != nil {
			t.Fatalf("%s: %v", path, err)
		}
		inputs = append(inputs, []byte(s))
	}
	return inputs
}

// TestDecodeMatchesReference runs the decoder and the reference decoder
// over the FuzzDecode seeds and corpus, the FuzzValidate corpus (as whole
// regions), every two-byte opcode prefix followed by seeded random bytes,
// and seeded random prefix/REX soups.
func TestDecodeMatchesReference(t *testing.T) {
	const addr = 0x401000
	check := func(code []byte) {
		t.Helper()
		var in Inst
		err := DecodeInto(&in, code, addr)
		if d := diffDecode(&in, err, code, addr); d != nil {
			t.Fatal(d)
		}
	}
	for _, code := range fuzzSeeds {
		check(code)
	}
	for _, code := range readCorpus(t, filepath.Join("testdata", "fuzz", "FuzzDecode")) {
		check(code)
	}
	for _, code := range readCorpus(t, filepath.Join("..", "nacl", "testdata", "fuzz", "FuzzValidate")) {
		if _, _, _, d := DiffReference(code, 0x1000); d != nil {
			t.Fatal(d)
		}
	}

	rng := rand.New(rand.NewSource(27))
	code := make([]byte, 20)
	for b := 0; b < 1<<16; b++ {
		rng.Read(code)
		code[0], code[1] = byte(b>>8), byte(b)
		check(code)
		check(code[:2+rng.Intn(8)]) // and truncated
	}
	prefixes := []byte{0xF0, 0xF2, 0xF3, 0x66, 0x67, 0x26, 0x2E, 0x36, 0x3E, 0x64, 0x65, 0x41, 0x48, 0x4C, 0x0F}
	for n := 0; n < 50000; n++ {
		rng.Read(code)
		for i := rng.Intn(5); i > 0; i-- {
			code[rng.Intn(6)] = prefixes[rng.Intn(len(prefixes))]
		}
		check(code[:1+rng.Intn(len(code))])
	}
}
