// Package symtab implements the symbol hash table EnGarde's loader builds
// while disassembling (paper §4): "It constructs a symbol hash table whose
// key is the address of a function and value is the name of the function.
// This symbol hash table could be used by the policy checking component."
//
// Policy modules use it to resolve direct-call targets to function names
// (library-linking check), to find function boundaries (a function's body
// ends where the next function begins), and to identify instrumentation
// helpers such as __stack_chk_fail.
package symtab

import (
	"errors"
	"sort"

	"engarde/internal/elf64"
)

// ErrEmpty is returned when a binary defines no function symbols; EnGarde
// rejects such binaries because its policy modules cannot run (paper §6).
var ErrEmpty = errors.New("symtab: no function symbols")

// Entry is one function symbol.
type Entry struct {
	Name string
	Addr uint64
	Size uint64
}

// Table is the address-keyed symbol hash table.
type Table struct {
	byAddr map[uint64]Entry
	byName map[string]uint64
	sorted []uint64 // function start addresses, ascending
}

// FromELF builds the table from a parsed binary's .symtab, keeping
// function symbols only. Returns ErrEmpty if the binary has no function
// symbols, and elf64.ErrNoSymtab if it is stripped.
func FromELF(f *elf64.File) (*Table, error) {
	syms, err := f.Symbols()
	if err != nil {
		return nil, err
	}
	t := New()
	for _, s := range syms {
		if s.SymType() != elf64.STTFunc || s.SymName == "" {
			continue
		}
		t.Add(Entry{Name: s.SymName, Addr: s.Value, Size: s.Size})
	}
	if t.Len() == 0 {
		return nil, ErrEmpty
	}
	return t, nil
}

// New returns an empty table.
func New() *Table {
	return &Table{
		byAddr: make(map[uint64]Entry),
		byName: make(map[string]uint64),
	}
}

// Add inserts or replaces a function entry.
func (t *Table) Add(e Entry) {
	if _, exists := t.byAddr[e.Addr]; !exists {
		i := sort.Search(len(t.sorted), func(i int) bool { return t.sorted[i] >= e.Addr })
		t.sorted = append(t.sorted, 0)
		copy(t.sorted[i+1:], t.sorted[i:])
		t.sorted[i] = e.Addr
	}
	t.byAddr[e.Addr] = e
	t.byName[e.Name] = e.Addr
}

// Len returns the number of functions.
func (t *Table) Len() int { return len(t.byAddr) }

// NameAt returns the function name starting exactly at addr — the hash
// table lookup the policies perform per direct call.
func (t *Table) NameAt(addr uint64) (string, bool) {
	e, ok := t.byAddr[addr]
	return e.Name, ok
}

// AddrOf returns the start address of the named function.
func (t *Table) AddrOf(name string) (uint64, bool) {
	a, ok := t.byName[name]
	return a, ok
}

// IsFuncStart reports whether addr is the beginning of a function — the
// predicate the library-linking policy uses to stop hashing a function
// body (paper §5).
func (t *Table) IsFuncStart(addr uint64) bool {
	_, ok := t.byAddr[addr]
	return ok
}

// NextFuncAfter returns the smallest function start strictly greater than
// addr.
func (t *Table) NextFuncAfter(addr uint64) (uint64, bool) {
	i := sort.Search(len(t.sorted), func(i int) bool { return t.sorted[i] > addr })
	if i == len(t.sorted) {
		return 0, false
	}
	return t.sorted[i], true
}

// FuncContaining returns the entry of the function whose half-open span
// [start, nextStart) contains addr.
func (t *Table) FuncContaining(addr uint64) (Entry, bool) {
	i := sort.Search(len(t.sorted), func(i int) bool { return t.sorted[i] > addr })
	if i == 0 {
		return Entry{}, false
	}
	return t.byAddr[t.sorted[i-1]], true
}

// Functions returns all entries in ascending address order.
func (t *Table) Functions() []Entry {
	out := make([]Entry, 0, len(t.sorted))
	for _, a := range t.sorted {
		out = append(out, t.byAddr[a])
	}
	return out
}
