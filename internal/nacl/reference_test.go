package nacl

import (
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"engarde/internal/elf64"
	"engarde/internal/symtab"
	"engarde/internal/toolchain"
	"engarde/internal/workload"
	"engarde/internal/x86"
)

// checkReachabilityReference is CheckReachability as it was before the
// fall-through edge learned to take the next index: every edge, branch or
// fall-through, resolves its target with the InstAt binary search. It is
// the oracle for TestReachabilityMatchesReference.
func (p *Program) checkReachabilityReference(entry uint64, tab *symtab.Table) error {
	reached := make([]bool, len(p.Insts))
	var stack []int
	push := func(addr uint64) {
		if i, ok := p.InstAt(addr); ok && !reached[i] {
			reached[i] = true
			stack = append(stack, i)
		}
	}
	push(entry)
	if tab != nil {
		for _, fn := range tab.Functions() {
			push(fn.Addr)
		}
	}
	for len(stack) > 0 {
		i := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		in := &p.Insts[i]
		if tgt, ok := in.BranchTarget(); ok {
			push(tgt)
		}
		switch in.Op {
		case x86.OpRet, x86.OpJmp, x86.OpJmpInd, x86.OpUd2, x86.OpHlt:
		default:
			push(in.Addr + uint64(in.Len))
		}
	}
	for i := range p.Insts {
		if !reached[i] && p.Insts[i].Op != x86.OpNop {
			return fmt.Errorf("%w: %s at %#x", ErrUnreachable, p.Insts[i].String(), p.Insts[i].Addr)
		}
	}
	return nil
}

// fuzzCorpus returns the FuzzValidate seeds plus the checked-in corpus
// under testdata/fuzz/FuzzValidate.
func fuzzCorpus(t *testing.T) [][]byte {
	t.Helper()
	inputs := fuzzValidateSeeds()
	paths, err := filepath.Glob(filepath.Join("testdata", "fuzz", "FuzzValidate", "*"))
	if err != nil {
		t.Fatal(err)
	}
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

// TestReachabilityMatchesReference runs CheckReachability and its
// reference over the fuzz corpus and the toolchain corpora: the paper's
// seven benchmarks in all three variants plus the validator's own
// toolchain cases. Each binary is walked twice, seeded by its symbol
// table and by its entry point alone; the second leaves most functions
// unreachable, so the error path is compared too. Both walks must return
// the same error, naming the same unreachable address.
func TestReachabilityMatchesReference(t *testing.T) {
	var rejected int
	same := func(t *testing.T, name string, p *Program, entry uint64, tab *symtab.Table) {
		t.Helper()
		got, want := p.CheckReachability(entry, tab), p.checkReachabilityReference(entry, tab)
		if fmt.Sprint(got) != fmt.Sprint(want) {
			t.Errorf("%s: CheckReachability = %v, reference = %v", name, got, want)
		}
		if want != nil {
			rejected++
		}
	}

	const base = 0x1000
	for i, code := range fuzzCorpus(t) {
		p, err := DecodeProgramTraced(code, base, nil, 1, nil)
		if err != nil {
			continue // rejected before the reachability rule
		}
		same(t, fmt.Sprintf("fuzz input %d", i), p, base, nil)
	}

	cfgs := []toolchain.Config{
		{Name: "v", Seed: 11, NumFuncs: 12, AvgFuncInsts: 80},
		{Name: "v", Seed: 12, NumFuncs: 12, AvgFuncInsts: 80, StackProtector: true},
		{Name: "v", Seed: 13, NumFuncs: 12, AvgFuncInsts: 80, IFCC: true, IndirectRate: 0.02},
	}
	if !testing.Short() {
		for _, spec := range workload.Specs() {
			cfg := spec.Base
			cfgs = append(cfgs, cfg)
			cfg.StackProtector = true
			cfgs = append(cfgs, cfg)
			cfg.StackProtector, cfg.IFCC = false, true
			cfgs = append(cfgs, cfg)
		}
	}
	for _, cfg := range cfgs {
		bin, err := toolchain.Build(cfg)
		if err != nil {
			t.Fatal(err)
		}
		f, err := elf64.Parse(bin.Image)
		if err != nil {
			t.Fatal(err)
		}
		tab, err := symtab.FromELF(f)
		if err != nil {
			t.Fatal(err)
		}
		text := f.Section(".text")
		p, err := DecodeProgramTraced(text.Data, text.Addr, nil, 1, nil)
		if err != nil {
			t.Fatalf("%s: decode: %v", cfg.Name, err)
		}
		name := fmt.Sprintf("%s sp=%v ifcc=%v", cfg.Name, cfg.StackProtector, cfg.IFCC)
		same(t, name+" symtab", p, f.Header.Entry, tab)
		same(t, name+" entry-only", p, f.Header.Entry, nil)
	}
	if rejected == 0 {
		t.Error("no input reached the unreachable-instruction error; the error path went uncompared")
	}
}
