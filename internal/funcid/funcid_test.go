package funcid

import (
	"testing"

	"engarde/internal/elf64"
	"engarde/internal/nacl"
	"engarde/internal/symtab"
	"engarde/internal/toolchain"
)

// buildStripped produces a stripped binary plus the ground-truth symbol
// table from an identical non-stripped build.
func buildStripped(t *testing.T, cfg toolchain.Config) (*nacl.Program, uint64, *symtab.Table) {
	t.Helper()
	cfg.Strip = true
	stripped, err := toolchain.Build(cfg)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Strip = false
	full, err := toolchain.Build(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ff, err := elf64.Parse(full.Image)
	if err != nil {
		t.Fatal(err)
	}
	truth, err := symtab.FromELF(ff)
	if err != nil {
		t.Fatal(err)
	}

	sf, err := elf64.Parse(stripped.Image)
	if err != nil {
		t.Fatal(err)
	}
	text := sf.Section(".text")
	prog, err := nacl.DecodeProgramTraced(text.Data, text.Addr, nil, 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	return prog, sf.Header.Entry, truth
}

func cfg() toolchain.Config {
	return toolchain.Config{
		Name: "fi", Seed: 61,
		NumFuncs: 12, AvgFuncInsts: 60,
		LibcCallRate: 0.05, AppCallRate: 0.02,
	}
}

func TestRecoverFindsCalledFunctions(t *testing.T) {
	prog, entry, truth := buildStripped(t, cfg())
	rec := Recover(prog, entry)

	// Every ground-truth function must be recovered (our generator calls
	// or indirectly references them all, and prologues are canonical).
	missed := 0
	for _, fn := range truth.Functions() {
		if !rec.IsFuncStart(fn.Addr) {
			missed++
			t.Logf("missed: %s at %#x", fn.Name, fn.Addr)
		}
	}
	// Allow a small tail of misses (functions never referenced and with
	// unusual first instructions), but the bulk must be found.
	if missed > truth.Len()/10 {
		t.Errorf("missed %d of %d functions", missed, truth.Len())
	}
}

func TestRecoverNoFalseMidFunctionStarts(t *testing.T) {
	prog, entry, truth := buildStripped(t, cfg())
	rec := Recover(prog, entry)
	// No recovered start may fall strictly inside a ground-truth function
	// body (starts at padding boundaries after the body are tolerable).
	for _, fn := range rec.Functions() {
		owner, ok := truth.FuncContaining(fn.Addr)
		if !ok {
			continue
		}
		if fn.Addr > owner.Addr && fn.Addr < owner.Addr+owner.Size {
			t.Errorf("false start %#x inside %s [%#x, %#x)",
				fn.Addr, owner.Name, owner.Addr, owner.Addr+owner.Size)
		}
	}
}

func TestRecoverSupportsReachability(t *testing.T) {
	// The recovered table must be good enough for the NaCl reachability
	// rule — the property the stripped-binary pipeline needs.
	prog, entry, _ := buildStripped(t, cfg())
	rec := Recover(prog, entry)
	if err := prog.CheckReachability(entry, rec); err != nil {
		t.Errorf("reachability with recovered table: %v", err)
	}
}

func TestRecoverWithIFCC(t *testing.T) {
	c := cfg()
	c.IFCC = true
	c.IndirectRate = 0.02
	prog, entry, _ := buildStripped(t, c)
	rec := Recover(prog, entry)
	if err := prog.CheckReachability(entry, rec); err != nil {
		t.Errorf("reachability (IFCC build): %v", err)
	}
}

func TestRecoveredNamesAreSynthetic(t *testing.T) {
	prog, entry, _ := buildStripped(t, cfg())
	rec := Recover(prog, entry)
	if rec.Len() == 0 {
		t.Fatal("nothing recovered")
	}
	if name, ok := rec.NameAt(entry); !ok || name != "fn_1000" {
		t.Errorf("entry name = %q, want fn_1000", name)
	}
}
