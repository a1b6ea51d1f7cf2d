package x86

import "testing"

// TestKnownEncodings decodes a corpus of hand-verified x86-64 encodings
// spanning the opcode map well beyond what the toolchain emits: extension
// groups, string ops, moffs forms, SSE (one-, two- and three-byte maps),
// lock/rep prefixes and address-size overrides. For each, the decoded
// mnemonic and total length must be exact — lengths are what NaCl-style
// reliable disassembly lives or dies by.
func TestKnownEncodings(t *testing.T) {
	tests := []struct {
		name string
		code []byte
		op   Op
		len  int
	}{
		{"movzx rax, bl", []byte{0x48, 0x0F, 0xB6, 0xC3}, OpMovzx, 4},
		{"movzx ecx, ax", []byte{0x0F, 0xB7, 0xC8}, OpMovzx, 3},
		{"movsx rax, al", []byte{0x48, 0x0F, 0xBE, 0xC0}, OpMovsx, 4},
		{"movsxd rcx, eax", []byte{0x48, 0x63, 0xC8}, OpMovsxd, 3},
		{"sete al", []byte{0x0F, 0x94, 0xC0}, OpSetcc, 3},
		{"setg bl", []byte{0x0F, 0x9F, 0xC3}, OpSetcc, 3},
		{"cmove rcx, rax", []byte{0x48, 0x0F, 0x44, 0xC8}, OpCmovcc, 4},
		{"bswap eax", []byte{0x0F, 0xC8}, OpBswap, 2},
		{"bswap rcx", []byte{0x48, 0x0F, 0xC9}, OpBswap, 3},
		{"lock cmpxchg [rbx], rcx", []byte{0xF0, 0x48, 0x0F, 0xB1, 0x0B}, OpCmpxchg, 5},
		{"lock xadd [rbx], rax", []byte{0xF0, 0x48, 0x0F, 0xC1, 0x03}, OpXadd, 5},
		{"rep movsb", []byte{0xF3, 0xA4}, OpMovs, 2},
		{"movsq", []byte{0x48, 0xA5}, OpMovs, 2},
		{"rep stosq", []byte{0xF3, 0x48, 0xAB}, OpStos, 3},
		{"scasb", []byte{0xAE}, OpScas, 1},
		{"lodsd", []byte{0xAD}, OpLods, 1},
		{"syscall", []byte{0x0F, 0x05}, OpSyscall, 2},
		{"cpuid", []byte{0x0F, 0xA2}, OpCpuid, 2},
		{"rdtsc", []byte{0x0F, 0x31}, OpRdtsc, 2},
		{"6-byte nop", []byte{0x66, 0x0F, 0x1F, 0x44, 0x00, 0x00}, OpNop, 6},
		{"movaps xmm0, xmm1", []byte{0x0F, 0x28, 0xC1}, OpSSE, 3},
		{"movdqa xmm0, [rip+0]", []byte{0x66, 0x0F, 0x6F, 0x05, 0, 0, 0, 0}, OpSSE, 8},
		{"movsd xmm1, [rip+16]", []byte{0xF2, 0x0F, 0x10, 0x0D, 0x10, 0, 0, 0}, OpSSE, 8},
		{"pshufb mm0, mm1 (0F38)", []byte{0x0F, 0x38, 0x00, 0xC1}, OpSSE, 4},
		{"palignr xmm0, xmm1, 8 (0F3A)", []byte{0x66, 0x0F, 0x3A, 0x0F, 0xC1, 0x08}, OpSSE, 6},
		{"pshufd xmm0, xmm1, 0", []byte{0x66, 0x0F, 0x70, 0xC1, 0x00}, OpSSE, 5},
		{"mov eax, moffs", []byte{0xA1, 1, 2, 3, 4, 5, 6, 7, 8}, OpMov, 9},
		{"mov moffs, rax", []byte{0x48, 0xA3, 1, 2, 3, 4, 5, 6, 7, 8}, OpMov, 10},
		{"cqo", []byte{0x48, 0x99}, OpCdq, 2},
		{"cdqe", []byte{0x48, 0x98}, OpCwde, 2},
		{"jmp [rip+0]", []byte{0xFF, 0x25, 0, 0, 0, 0}, OpJmpInd, 6},
		{"call [r8+rcx*8]", []byte{0x41, 0xFF, 0x14, 0xC8}, OpCallInd, 4},
		{"inc dword [rax]", []byte{0xFF, 0x00}, OpInc, 2},
		{"dec bl", []byte{0xFE, 0xCB}, OpDec, 2},
		{"push qword [rbp+8]", []byte{0xFF, 0x75, 0x08}, OpPush, 3},
		{"addr32 mov eax, [eax]", []byte{0x67, 0x8B, 0x00}, OpMov, 3},
		{"neg eax", []byte{0xF7, 0xD8}, OpNeg, 2},
		{"not rax", []byte{0x48, 0xF7, 0xD0}, OpNot, 3},
		{"mul rcx", []byte{0x48, 0xF7, 0xE1}, OpMul, 3},
		{"idiv ecx", []byte{0xF7, 0xF9}, OpIdiv, 2},
		{"test bl, 1", []byte{0xF6, 0xC3, 0x01}, OpTest, 3},
		{"test rdi, 1", []byte{0x48, 0xF7, 0xC7, 1, 0, 0, 0}, OpTest, 7},
		{"enter 16, 1", []byte{0xC8, 0x10, 0x00, 0x01}, OpEnter, 4},
		{"leave", []byte{0xC9}, OpLeave, 1},
		{"push 0x7f", []byte{0x6A, 0x7F}, OpPush, 2},
		{"push 0x100", []byte{0x68, 0x00, 0x01, 0x00, 0x00}, OpPush, 5},
		{"imul eax, eax, 10000", []byte{0x69, 0xC0, 0x10, 0x27, 0, 0}, OpImul, 6},
		{"imul eax, eax, 100", []byte{0x6B, 0xC0, 0x64}, OpImul, 3},
		{"imul rax, rcx", []byte{0x48, 0x0F, 0xAF, 0xC1}, OpImul, 4},
		{"pop qword [rsp]", []byte{0x8F, 0x04, 0x24}, OpPop, 3},
		{"shl eax, 1", []byte{0xD1, 0xE0}, OpShl, 2},
		{"shr eax, cl", []byte{0xD3, 0xE8}, OpShr, 2},
		{"sar rdx, 3", []byte{0x48, 0xC1, 0xFA, 0x03}, OpSar, 4},
		{"rol cl, 1", []byte{0xD0, 0xC1}, OpRol, 2},
		{"mfence", []byte{0x0F, 0xAE, 0xF0}, OpFence, 3},
		{"bt eax, 4", []byte{0x0F, 0xBA, 0xE0, 0x04}, OpBt, 4},
		{"bt eax, ebx", []byte{0x0F, 0xA3, 0xD8}, OpBt, 3},
		{"bts rdx, rax", []byte{0x48, 0x0F, 0xAB, 0xC2}, OpBts, 4},
		{"bsf eax, ecx", []byte{0x0F, 0xBC, 0xC1}, OpBsf, 3},
		{"bsr rax, rcx", []byte{0x48, 0x0F, 0xBD, 0xC1}, OpBsr, 4},
		{"ud2", []byte{0x0F, 0x0B}, OpUd2, 2},
		{"int 0x80", []byte{0xCD, 0x80}, OpInt, 2},
		{"int3", []byte{0xCC}, OpInt3, 1},
		{"in al, dx", []byte{0xEC}, OpIn, 1},
		{"out 0x70, al", []byte{0xE6, 0x70}, OpOut, 2},
		{"xchg rax, rbx", []byte{0x48, 0x93}, OpXchg, 2},
		{"xchg [rax], ecx", []byte{0x87, 0x08}, OpXchg, 2},
		{"pushf", []byte{0x9C}, OpPushf, 1},
		{"popf", []byte{0x9D}, OpPopf, 1},
		{"ret 0x10", []byte{0xC2, 0x10, 0x00}, OpRet, 3},
		{"loop -2", []byte{0xE2, 0xFE}, OpLoop, 2},
		{"jrcxz +0", []byte{0xE3, 0x00}, OpJrcxz, 2},
		{"adc rax, rbx", []byte{0x48, 0x11, 0xD8}, OpAdc, 3},
		{"sbb ecx, edx", []byte{0x19, 0xD1}, OpSbb, 2},
		{"or byte [rdi], 0x40", []byte{0x80, 0x0F, 0x40}, OpOr, 3},
		{"xlat", []byte{0xD7}, OpOther, 1},
		{"fld qword [rax] (x87)", []byte{0xDD, 0x00}, OpOther, 2},
		{"fstp st1 (x87)", []byte{0xDD, 0xD9}, OpOther, 2},
		{"mov gs:[0x10], eax", []byte{0x65, 0x89, 0x04, 0x25, 0x10, 0, 0, 0}, OpMov, 8},
		{"cmpxchg8b [rsi]", []byte{0x0F, 0xC7, 0x0E}, OpCmpxchg, 3},
		{"mov r15b, 7", []byte{0x41, 0xB7, 0x07}, OpMov, 3},
		{"movabs r9", []byte{0x49, 0xB9, 1, 2, 3, 4, 5, 6, 7, 8}, OpMov, 10},
		{"lea r12, [r13+r14*4+0x100]", []byte{0x4F, 0x8D, 0xA4, 0xB5, 0x00, 0x01, 0x00, 0x00}, OpLea, 8},
		{"shld eax, ebx, 4", []byte{0x0F, 0xA4, 0xD8, 0x04}, OpOther, 4},
		{"prefetcht0 [rax]", []byte{0x0F, 0x18, 0x08}, OpNop, 3},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			in, err := Decode(tt.code, 0x1000)
			if err != nil {
				t.Fatalf("Decode: %v", err)
			}
			if in.Op != tt.op {
				t.Errorf("op = %v, want %v", in.Op, tt.op)
			}
			if int(in.Len) != tt.len {
				t.Errorf("len = %d, want %d", in.Len, tt.len)
			}
		})
	}
}

// TestEncodingsLayoutSums re-decodes the corpus asserting the NaCl layout
// metadata always sums to the instruction length.
func TestEncodingsLayoutSums(t *testing.T) {
	corpus := [][]byte{
		{0x48, 0x0F, 0xB6, 0xC3},
		{0xF0, 0x48, 0x0F, 0xB1, 0x0B},
		{0x66, 0x0F, 0x3A, 0x0F, 0xC1, 0x08},
		{0x48, 0xA3, 1, 2, 3, 4, 5, 6, 7, 8},
		{0x4F, 0x8D, 0xA4, 0xB5, 0x00, 0x01, 0x00, 0x00},
		{0xC8, 0x10, 0x00, 0x01},
		{0x65, 0x89, 0x04, 0x25, 0x10, 0, 0, 0},
	}
	for _, code := range corpus {
		in, err := Decode(code, 0)
		if err != nil {
			t.Fatalf("Decode(% x): %v", code, err)
		}
		sum := in.NumPrefix + in.NumOpcode + in.NumDisp + in.NumImm
		if in.Has(FlagModRM) {
			sum++
		}
		if in.Has(FlagSIB) {
			sum++
		}
		if sum != in.Len {
			t.Errorf("% x: layout sum %d != len %d", code, sum, in.Len)
		}
	}
}

// TestOperandDirection verifies dst/src assignment for both ModRM
// direction bits.
func TestOperandDirection(t *testing.T) {
	// 01 D8: add eax(rm), ebx(reg)  → dst=rm=eax
	in, err := Decode([]byte{0x01, 0xD8}, 0)
	if err != nil {
		t.Fatal(err)
	}
	if !in.Arg(0).IsReg(RegAX) || !in.Arg(1).IsReg(RegBX) {
		t.Errorf("01 D8: %v", in.String())
	}
	// 03 D8: add ebx(reg), eax(rm) → dst=reg=ebx
	in, err = Decode([]byte{0x03, 0xD8}, 0)
	if err != nil {
		t.Fatal(err)
	}
	if !in.Arg(0).IsReg(RegBX) || !in.Arg(1).IsReg(RegAX) {
		t.Errorf("03 D8: %v", in.String())
	}
}

// TestStringFormatting smoke-tests the AT&T formatter across operand
// shapes (it is a debugging aid, so exact text is asserted only loosely).
func TestStringFormatting(t *testing.T) {
	cases := map[string][]byte{
		"mov":  {0x48, 0x89, 0xD8},                            // mov %rbx, %rax
		"lea":  {0x48, 0x8D, 0x05, 0x10, 0x00, 0x00, 0x00},    // lea 0x10(%rip), %rax
		"call": {0xE8, 0x00, 0x00, 0x00, 0x00},                // call .+5
		"jne":  {0x75, 0x10},                                  // jne .+0x12
		"fs":   {0x64, 0x48, 0x8B, 0x04, 0x25, 0x28, 0, 0, 0}, // mov %fs:0x28, %rax
		"sib":  {0x48, 0x8B, 0x54, 0xC8, 0x08},                // mov 8(%rax,%rcx,8), %rdx
	}
	for name, code := range cases {
		in, err := Decode(code, 0x1000)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if s := in.String(); len(s) < 3 {
			t.Errorf("%s: suspicious formatting %q", name, s)
		}
	}
}
