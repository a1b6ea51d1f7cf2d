package x86

// Op is an instruction mnemonic. The decoder assigns a concrete Op to every
// instruction form that EnGarde's policy modules reason about; forms that
// are decodable (length and metadata are always exact) but semantically
// uninteresting to the policies are grouped under coarse mnemonics such as
// OpSSE or OpOther.
type Op int16

// Mnemonics. Ordered roughly by opcode-map appearance; the zero value is
// reserved for "invalid" so that an uninitialized Inst is never mistaken
// for a real instruction.
const (
	OpInvalid Op = iota
	OpAdd
	OpOr
	OpAdc
	OpSbb
	OpAnd
	OpSub
	OpXor
	OpCmp
	OpPush
	OpPop
	OpMovsxd
	OpImul
	OpJcc // conditional jump; condition in Inst.Cond
	OpTest
	OpXchg
	OpMov
	OpLea
	OpNop
	OpCwde
	OpCdq
	OpPushf
	OpPopf
	OpMovs
	OpCmps
	OpStos
	OpLods
	OpScas
	OpRet
	OpCall    // direct near call (E8 rel32)
	OpCallInd // indirect call (FF /2)
	OpJmp     // direct jump (E9/EB)
	OpJmpInd  // indirect jump (FF /4)
	OpEnter
	OpLeave
	OpInt3
	OpInt
	OpRol
	OpRor
	OpRcl
	OpRcr
	OpShl
	OpShr
	OpSar
	OpNot
	OpNeg
	OpMul
	OpDiv
	OpIdiv
	OpInc
	OpDec
	OpHlt
	OpCmc
	OpClc
	OpStc
	OpCli
	OpSti
	OpCld
	OpStd
	OpSyscall
	OpUd2
	OpCmovcc // conditional move; condition in Inst.Cond
	OpSetcc  // conditional set; condition in Inst.Cond
	OpMovzx
	OpMovsx
	OpBt
	OpBts
	OpBtr
	OpBtc
	OpBsf
	OpBsr
	OpBswap
	OpXadd
	OpCmpxchg
	OpCpuid
	OpRdtsc
	OpLoop
	OpJrcxz
	OpIn
	OpOut
	OpFence // lfence/mfence/sfence and the rest of group 15
	OpSSE   // SSE/SSE2 and other vector forms: decoded for length/metadata only
	OpOther // any remaining decodable form
)

var opNames = [...]string{
	OpInvalid: "(invalid)",
	OpAdd:     "add", OpOr: "or", OpAdc: "adc", OpSbb: "sbb",
	OpAnd: "and", OpSub: "sub", OpXor: "xor", OpCmp: "cmp",
	OpPush: "push", OpPop: "pop", OpMovsxd: "movsxd", OpImul: "imul",
	OpJcc: "j", OpTest: "test", OpXchg: "xchg", OpMov: "mov",
	OpLea: "lea", OpNop: "nop", OpCwde: "cwde", OpCdq: "cdq",
	OpPushf: "pushf", OpPopf: "popf", OpMovs: "movs", OpCmps: "cmps",
	OpStos: "stos", OpLods: "lods", OpScas: "scas", OpRet: "ret",
	OpCall: "call", OpCallInd: "call*", OpJmp: "jmp", OpJmpInd: "jmp*",
	OpEnter: "enter", OpLeave: "leave", OpInt3: "int3", OpInt: "int",
	OpRol: "rol", OpRor: "ror", OpRcl: "rcl", OpRcr: "rcr",
	OpShl: "shl", OpShr: "shr", OpSar: "sar", OpNot: "not",
	OpNeg: "neg", OpMul: "mul", OpDiv: "div", OpIdiv: "idiv",
	OpInc: "inc", OpDec: "dec", OpHlt: "hlt", OpCmc: "cmc",
	OpClc: "clc", OpStc: "stc", OpCli: "cli", OpSti: "sti",
	OpCld: "cld", OpStd: "std", OpSyscall: "syscall", OpUd2: "ud2",
	OpCmovcc: "cmov", OpSetcc: "set", OpMovzx: "movzx", OpMovsx: "movsx",
	OpBt: "bt", OpBts: "bts", OpBtr: "btr", OpBtc: "btc",
	OpBsf: "bsf", OpBsr: "bsr", OpBswap: "bswap", OpXadd: "xadd",
	OpCmpxchg: "cmpxchg", OpCpuid: "cpuid", OpRdtsc: "rdtsc",
	OpLoop: "loop", OpJrcxz: "jrcxz", OpIn: "in", OpOut: "out",
	OpFence: "fence", OpSSE: "(sse)", OpOther: "(other)",
}

func (op Op) String() string {
	if op >= 0 && int(op) < len(opNames) && opNames[op] != "" {
		return opNames[op]
	}
	return "op?"
}

// IsControlTransfer reports whether the mnemonic transfers control
// (calls, jumps, conditional jumps and returns).
func (op Op) IsControlTransfer() bool {
	switch op {
	case OpJcc, OpCall, OpCallInd, OpJmp, OpJmpInd, OpRet, OpLoop, OpJrcxz:
		return true
	}
	return false
}
