// Package elf64 implements a from-scratch reader and writer for 64-bit ELF
// executables, covering exactly the structures EnGarde's in-enclave loader
// consumes (paper §4): the ELF header, program headers, section headers,
// symbol tables, the .dynamic section and RELA relocation tables.
//
// The writer half is used by the synthetic toolchain (internal/toolchain)
// to produce statically-linked position-independent executables, so that
// the reader half — the code under test — parses real binaries rather than
// mocks.
package elf64

// ELF identification and header constants (System V ABI, ELF-64 object
// file format).
const (
	// Magic is the 4-byte ELF signature.
	Magic = "\x7fELF"

	// e_ident indices.
	EIClass   = 4
	EIData    = 5
	EIVersion = 6
	EIOSABI   = 7

	// Classes.
	Class64 = 2

	// Data encodings.
	Data2LSB = 1 // little-endian

	// Object file types.
	TypeNone = 0
	TypeRel  = 1
	TypeExec = 2
	TypeDyn  = 3 // shared object / position-independent executable

	// Machines.
	MachineX8664 = 62

	// Current version.
	VersionCurrent = 1

	// Fixed structure sizes.
	EhdrSize = 64
	PhdrSize = 56
	ShdrSize = 64
	SymSize  = 24
	DynSize  = 16
	RelaSize = 24
)

// Program header types and flags.
const (
	PTNull    = 0
	PTLoad    = 1
	PTDynamic = 2

	PFX = 1 // executable
	PFW = 2 // writable
	PFR = 4 // readable
)

// Section header types.
const (
	SHTNull     = 0
	SHTProgbits = 1
	SHTSymtab   = 2
	SHTStrtab   = 3
	SHTRela     = 4
	SHTDynamic  = 6
	SHTNobits   = 8
)

// Section flags.
const (
	SHFWrite     = 1
	SHFAlloc     = 2
	SHFExecinstr = 4
)

// Dynamic table tags.
const (
	DTNull    = 0
	DTStrtab  = 5
	DTSymtab  = 6
	DTRela    = 7
	DTRelasz  = 8
	DTRelaent = 9
	DTFlags   = 30
)

// Relocation types (x86-64).
const (
	// RX8664Relative is R_X86_64_RELATIVE: *(u64*)(base+r_offset) =
	// base + r_addend. The only relocation a statically-linked PIE needs.
	RX8664Relative = 8
)

// Symbol binding and type encodings (st_info = binding<<4 | type).
const (
	STBLocal  = 0
	STBGlobal = 1

	STTNotype = 0
	STTObject = 1
	STTFunc   = 2
)

// SHNUndef is the undefined-section index.
const SHNUndef = 0

// Ehdr is the ELF-64 file header. Field order and widths match the on-disk
// layout so the struct can be serialized directly.
type Ehdr struct {
	Ident     [16]byte
	Type      uint16
	Machine   uint16
	Version   uint32
	Entry     uint64
	Phoff     uint64
	Shoff     uint64
	Flags     uint32
	Ehsize    uint16
	Phentsize uint16
	Phnum     uint16
	Shentsize uint16
	Shnum     uint16
	Shstrndx  uint16
}

// Phdr is an ELF-64 program header.
type Phdr struct {
	Type   uint32
	Flags  uint32
	Off    uint64
	Vaddr  uint64
	Paddr  uint64
	Filesz uint64
	Memsz  uint64
	Align  uint64
}

// Shdr is an ELF-64 section header.
type Shdr struct {
	Name      uint32
	Type      uint32
	Flags     uint64
	Addr      uint64
	Off       uint64
	Size      uint64
	Link      uint32
	Info      uint32
	Addralign uint64
	Entsize   uint64
}

// Sym is an ELF-64 symbol table entry.
type Sym struct {
	Name  uint32
	Info  uint8
	Other uint8
	Shndx uint16
	Value uint64
	Size  uint64
}

// Bind returns the symbol binding (upper nibble of Info).
func (s Sym) Bind() uint8 { return s.Info >> 4 }

// SymType returns the symbol type (lower nibble of Info).
func (s Sym) SymType() uint8 { return s.Info & 0xf }

// Dyn is an entry of the .dynamic section.
type Dyn struct {
	Tag uint64
	Val uint64
}

// Rela is an ELF-64 relocation with addend.
type Rela struct {
	Off    uint64
	Info   uint64
	Addend int64
}

// RelaType returns the relocation type (low 32 bits of Info).
func (r Rela) RelaType() uint32 { return uint32(r.Info) }
