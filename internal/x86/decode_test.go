package x86

import (
	"bytes"
	"testing"
)

// mustDecode decodes one instruction or fails the test.
func mustDecode(t *testing.T, code []byte, addr uint64) Inst {
	t.Helper()
	in, err := Decode(code, addr)
	if err != nil {
		t.Fatalf("Decode(% x) error: %v", code, err)
	}
	return in
}

func TestDecodeStackProtectorPattern(t *testing.T) {
	// The exact canary-load sequence from the paper (§5):
	//   19311: mov %fs:0x28, %rax
	in := mustDecode(t, []byte{0x64, 0x48, 0x8B, 0x04, 0x25, 0x28, 0x00, 0x00, 0x00}, 0x19311)
	if in.Op != OpMov {
		t.Fatalf("Op = %v, want mov", in.Op)
	}
	if in.Len != 9 {
		t.Fatalf("Len = %d, want 9", in.Len)
	}
	if !in.Arg(0).IsReg(RegAX) {
		t.Errorf("dst = %+v, want %%rax", in.Arg(0))
	}
	if !in.Arg(1).IsSegDisp(SegFS, 0x28) {
		t.Errorf("src = %+v, want %%fs:0x28", in.Arg(1))
	}
	if in.NumPrefix != 2 || in.NumOpcode != 1 || in.NumDisp != 4 {
		t.Errorf("layout = (%d,%d,%d), want (2,1,4)", in.NumPrefix, in.NumOpcode, in.NumDisp)
	}
}

func TestDecodeCanaryStore(t *testing.T) {
	// 1931a: mov %rax, (%rsp)  =  48 89 04 24
	in := mustDecode(t, []byte{0x48, 0x89, 0x04, 0x24}, 0x1931a)
	if in.Op != OpMov || in.Len != 4 {
		t.Fatalf("got %v len %d", in.Op, in.Len)
	}
	if !in.Arg(0).IsMemBaseDisp(RegSP, 0) {
		t.Errorf("dst = %+v, want (%%rsp)", in.Arg(0))
	}
	if !in.Arg(1).IsReg(RegAX) {
		t.Errorf("src = %+v, want %%rax", in.Arg(1))
	}
}

func TestDecodeCanaryCompare(t *testing.T) {
	// 19407: cmp (%rsp), %rax  =  48 3B 04 24
	in := mustDecode(t, []byte{0x48, 0x3B, 0x04, 0x24}, 0x19407)
	if in.Op != OpCmp {
		t.Fatalf("Op = %v, want cmp", in.Op)
	}
	if !in.Arg(0).IsReg(RegAX) || !in.Arg(1).IsMemBaseDisp(RegSP, 0) {
		t.Errorf("args = %s", in.String())
	}
}

func TestDecodeIFCCPattern(t *testing.T) {
	// The IFCC guard sequence from the paper (§5):
	//   1b459: lea 0x85c70(%rip), %rax
	//   1b460: sub %eax, %ecx
	//   1b462: and $0x1ff8, %rcx
	//   1b469: add %rax, %rcx
	//   1b475: callq *%rcx
	code := []byte{
		0x48, 0x8D, 0x05, 0x70, 0x5C, 0x08, 0x00, // lea
		0x29, 0xC1, // sub %eax,%ecx
		0x48, 0x81, 0xE1, 0xF8, 0x1F, 0x00, 0x00, // and $0x1ff8,%rcx
		0x48, 0x01, 0xC1, // add %rax,%rcx
		0xFF, 0xD1, // callq *%rcx
	}
	insts, err := DecodeAll(code, 0x1b459)
	if err != nil {
		t.Fatalf("DecodeAll: %v", err)
	}
	if len(insts) != 5 {
		t.Fatalf("decoded %d instructions, want 5", len(insts))
	}

	lea := insts[0]
	if lea.Op != OpLea || !lea.Arg(0).IsReg(RegAX) {
		t.Errorf("inst 0 = %v, want lea → rax", lea.String())
	}
	if tgt, ok := lea.RIPTarget(); !ok || tgt != 0x1b459+7+0x85c70 {
		t.Errorf("lea RIP target = %#x, %v", tgt, ok)
	}

	sub := insts[1]
	if sub.Op != OpSub || !sub.Arg(0).IsReg(RegCX) || !sub.Arg(1).IsReg(RegAX) {
		t.Errorf("inst 1 = %v, want sub %%eax, %%ecx", sub.String())
	}
	if sub.Arg(0).Width != 4 {
		t.Errorf("sub width = %d, want 4", sub.Arg(0).Width)
	}

	and := insts[2]
	if and.Op != OpAnd || !and.Arg(0).IsReg(RegCX) || and.Arg(1).Imm != 0x1ff8 {
		t.Errorf("inst 2 = %v, want and $0x1ff8, %%rcx", and.String())
	}

	add := insts[3]
	if add.Op != OpAdd || !add.Arg(0).IsReg(RegCX) || !add.Arg(1).IsReg(RegAX) {
		t.Errorf("inst 3 = %v, want add %%rax, %%rcx", add.String())
	}

	call := insts[4]
	if !call.IsIndirectCall() || !call.Arg(0).IsReg(RegCX) {
		t.Errorf("inst 4 = %v, want callq *%%rcx", call.String())
	}
}

func TestDecodeDirectCall(t *testing.T) {
	// E8 rel32 at 0x1000, target 0x2000: rel = 0x2000 - 0x1005 = 0xFFB
	in := mustDecode(t, []byte{0xE8, 0xFB, 0x0F, 0x00, 0x00}, 0x1000)
	if !in.IsDirectCall() {
		t.Fatalf("not a direct call: %v", in.String())
	}
	if tgt, ok := in.BranchTarget(); !ok || tgt != 0x2000 {
		t.Errorf("target = %#x, want 0x2000", tgt)
	}
}

func TestDecodeJccForms(t *testing.T) {
	// jne rel8 (75 xx) and jne rel32 (0F 85 xx).
	in8 := mustDecode(t, []byte{0x75, 0x12}, 0x1941f-0x14)
	if in8.Op != OpJcc || in8.Cond != CondNE {
		t.Errorf("rel8: %v cond %v", in8.Op, in8.Cond)
	}
	in32 := mustDecode(t, []byte{0x0F, 0x85, 0x10, 0x00, 0x00, 0x00}, 0x100)
	if in32.Op != OpJcc || in32.Cond != CondNE {
		t.Errorf("rel32: %v cond %v", in32.Op, in32.Cond)
	}
	if tgt, _ := in32.BranchTarget(); tgt != 0x100+6+0x10 {
		t.Errorf("rel32 target = %#x", tgt)
	}
}

func TestDecodeJumpTableEntry(t *testing.T) {
	// jmpq rel32 followed by nopl (%rax) — an IFCC jump-table slot.
	code := []byte{
		0xE9, 0x00, 0x10, 0x00, 0x00, // jmpq
		0x0F, 0x1F, 0x00, // nopl (%rax)
	}
	insts, err := DecodeAll(code, 0xa19d0)
	if err != nil {
		t.Fatalf("DecodeAll: %v", err)
	}
	if insts[0].Op != OpJmp {
		t.Errorf("inst 0 = %v, want jmp", insts[0].Op)
	}
	if insts[1].Op != OpNop || insts[1].Len != 3 {
		t.Errorf("inst 1 = %v len %d, want 3-byte nop", insts[1].Op, insts[1].Len)
	}
}

func TestDecodeInvalidOpcodes(t *testing.T) {
	for _, b := range []byte{0x06, 0x0E, 0x27, 0x62, 0x9A, 0xC4, 0xEA} {
		if _, err := Decode([]byte{b, 0, 0, 0, 0, 0, 0, 0}, 0); err == nil {
			t.Errorf("opcode %#02x: expected error in 64-bit mode", b)
		}
	}
}

func TestDecodeTruncated(t *testing.T) {
	cases := [][]byte{
		{0x48},                   // lone REX
		{0xE8, 0x01},             // call with short rel32
		{0x48, 0x8B},             // mov missing ModRM
		{0x48, 0x8B, 0x04},       // missing SIB
		{0x48, 0x8B, 0x84, 0x24}, // missing disp32
	}
	for _, c := range cases {
		if _, err := Decode(c, 0); err == nil {
			t.Errorf("Decode(% x): expected truncation error", c)
		}
	}
}

func TestDecodeTooLong(t *testing.T) {
	// 15 segment prefixes exceed the architectural limit.
	code := bytes.Repeat([]byte{0x2E}, 16)
	if _, err := Decode(code, 0); err == nil {
		t.Error("expected ErrTooLong")
	}
}

func TestDecodeRexRegisters(t *testing.T) {
	// mov %r8, %r15 = 4D 89 C7
	in := mustDecode(t, []byte{0x4D, 0x89, 0xC7}, 0)
	if !in.Arg(0).IsReg(RegR15) || !in.Arg(1).IsReg(RegR8) {
		t.Errorf("args = %v", in.String())
	}
}

func TestDecodePushPop(t *testing.T) {
	in := mustDecode(t, []byte{0x55}, 0) // push %rbp
	if in.Op != OpPush || !in.Arg(0).IsReg(RegBP) {
		t.Errorf("got %v", in.String())
	}
	in = mustDecode(t, []byte{0x41, 0x54}, 0) // push %r12
	if in.Op != OpPush || !in.Arg(0).IsReg(RegR12) {
		t.Errorf("got %v", in.String())
	}
	if in.Arg(0).Width != 8 {
		t.Errorf("push width = %d, want 8 (64-bit default)", in.Arg(0).Width)
	}
}

func TestDecodeGroup5(t *testing.T) {
	// call *(%rax) — indirect through memory (FF 10).
	in := mustDecode(t, []byte{0xFF, 0x10}, 0)
	if !in.IsIndirectCall() || in.Arg(0).Kind != KindMem {
		t.Errorf("got %v", in.String())
	}
	// jmp *%rdx (FF E2)
	in = mustDecode(t, []byte{0xFF, 0xE2}, 0)
	if in.Op != OpJmpInd {
		t.Errorf("got %v, want jmp*", in.Op)
	}
	// push (%rbx) (FF 33)
	in = mustDecode(t, []byte{0xFF, 0x33}, 0)
	if in.Op != OpPush {
		t.Errorf("got %v, want push", in.Op)
	}
}

func TestDecodeMovImm64(t *testing.T) {
	// movabs $0x1122334455667788, %rax = 48 B8 88 77 66 55 44 33 22 11
	in := mustDecode(t, []byte{0x48, 0xB8, 0x88, 0x77, 0x66, 0x55, 0x44, 0x33, 0x22, 0x11}, 0)
	if in.Op != OpMov || in.NumImm != 8 || in.Imm != 0x1122334455667788 {
		t.Errorf("got %v imm=%#x numimm=%d", in.Op, in.Imm, in.NumImm)
	}
}

func TestDecodeRIPRelative(t *testing.T) {
	// mov 0x200010(%rip), %rax = 48 8B 05 10 00 20 00
	in := mustDecode(t, []byte{0x48, 0x8B, 0x05, 0x10, 0x00, 0x20, 0x00}, 0x400000)
	tgt, ok := in.RIPTarget()
	if !ok || tgt != 0x400000+7+0x200010 {
		t.Errorf("RIP target = %#x, ok=%v", tgt, ok)
	}
}

func TestDecodeSIBScaledIndex(t *testing.T) {
	// mov (%rax,%rcx,8), %rdx = 48 8B 14 C8
	in := mustDecode(t, []byte{0x48, 0x8B, 0x14, 0xC8}, 0)
	m := in.Arg(1).Mem
	if m.Base != RegAX || m.Index != RegCX || m.Scale != 8 {
		t.Errorf("mem = %+v", m)
	}
}

func TestDecodeHigh8Registers(t *testing.T) {
	// mov %ah, %bl without REX = 88 E3
	in := mustDecode(t, []byte{0x88, 0xE3}, 0)
	if !in.Arg(1).High8 {
		t.Errorf("src should be AH (High8): %+v", in.Arg(1))
	}
	// With REX, the same bits mean %spl: 40 88 E3
	in = mustDecode(t, []byte{0x40, 0x88, 0xE3}, 0)
	if in.Arg(1).High8 {
		t.Errorf("src should be SPL, not AH: %+v", in.Arg(1))
	}
}

func TestDecodeNopFamily(t *testing.T) {
	for n := 1; n <= 9; n++ {
		var a Assembler
		a.Nop(n)
		code, _, err := a.Finish()
		if err != nil {
			t.Fatal(err)
		}
		in := mustDecode(t, code, 0)
		if in.Op != OpNop {
			t.Errorf("nop(%d): op = %v", n, in.Op)
		}
		if int(in.Len) != n {
			t.Errorf("nop(%d): len = %d", n, in.Len)
		}
	}
}

func TestDecodeSyscallAndFriends(t *testing.T) {
	tests := []struct {
		code []byte
		op   Op
	}{
		{[]byte{0x0F, 0x05}, OpSyscall},
		{[]byte{0x0F, 0x0B}, OpUd2},
		{[]byte{0xF4}, OpHlt},
		{[]byte{0xC3}, OpRet},
		{[]byte{0xC9}, OpLeave},
		{[]byte{0xCC}, OpInt3},
		{[]byte{0x0F, 0xA2}, OpCpuid},
		{[]byte{0x0F, 0x31}, OpRdtsc},
	}
	for _, tt := range tests {
		in := mustDecode(t, tt.code, 0)
		if in.Op != tt.op {
			t.Errorf("% x: op = %v, want %v", tt.code, in.Op, tt.op)
		}
	}
}

func TestDecodeAllStopsAtError(t *testing.T) {
	code := []byte{0x90, 0x90, 0x06} // nop, nop, invalid
	insts, err := DecodeAll(code, 0x100)
	if err == nil {
		t.Fatal("expected error")
	}
	if len(insts) != 2 {
		t.Errorf("decoded %d before error, want 2", len(insts))
	}
}

func TestControlTransferClassification(t *testing.T) {
	ops := map[Op]bool{
		OpCall: true, OpCallInd: true, OpJmp: true, OpJmpInd: true,
		OpJcc: true, OpRet: true, OpMov: false, OpAdd: false,
	}
	for op, want := range ops {
		if got := op.IsControlTransfer(); got != want {
			t.Errorf("%v.IsControlTransfer() = %v, want %v", op, got, want)
		}
	}
}
