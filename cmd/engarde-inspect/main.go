// Command engarde-inspect runs EnGarde's static pipeline over an ELF file
// offline — no enclave, no provider. The paper notes that "the client can
// also use EnGarde to independently verify policy compliance of the
// enclave code that it wants to provision" (§3); this tool is that
// pre-flight check, and also a handy disassembler for generated binaries.
//
// Usage:
//
//	engarde-inspect -binary app.elf -policies stack-protector,ifcc
//	engarde-inspect -binary app.elf -disasm | head      # instruction dump
//	engarde-inspect -binary app.elf -symbols            # symbol table
package main

import (
	"flag"
	"fmt"
	"os"

	"engarde"
	"engarde/internal/cycles"
	"engarde/internal/elf64"
	"engarde/internal/nacl"
	"engarde/internal/policy"
	"engarde/internal/symtab"
)

func main() {
	binPath := flag.String("binary", "", "ELF64 PIE executable to inspect")
	policyList := flag.String("policies", "", "comma-separated policies to check (musl, musl-sp, stack-protector, ifcc, no-forbidden, asan)")
	disasm := flag.Bool("disasm", false, "dump the disassembly")
	symbols := flag.Bool("symbols", false, "dump the symbol hash table")
	flag.Parse()

	if err := run(*binPath, *policyList, *disasm, *symbols); err != nil {
		fmt.Fprintln(os.Stderr, "engarde-inspect:", err)
		os.Exit(1)
	}
}

func run(binPath, policyList string, disasm, symbols bool) error {
	if binPath == "" {
		return fmt.Errorf("-binary is required")
	}
	image, err := os.ReadFile(binPath)
	if err != nil {
		return err
	}

	// The same pipeline EnGarde's core runs, sans enclave.
	f, err := elf64.Parse(image)
	if err != nil {
		return fmt.Errorf("REJECT (malformed): %w", err)
	}
	if err := f.VerifyPIE(); err != nil {
		return fmt.Errorf("REJECT: %w", err)
	}
	tab, err := symtab.FromELF(f)
	if err != nil {
		return fmt.Errorf("REJECT (symbols): %w", err)
	}
	texts := f.TextSections()
	if len(texts) != 1 {
		return fmt.Errorf("REJECT: %d text sections", len(texts))
	}
	text := texts[0]

	counter := cycles.NewCounter(cycles.DefaultModel())
	prog, err := nacl.Validate(text.Data, text.Addr, f.Header.Entry, tab, counter)
	if err != nil {
		return fmt.Errorf("REJECT (disassembly): %w", err)
	}

	fmt.Printf("%s: ELF64 PIE, entry %#x\n", binPath, f.Header.Entry)
	fmt.Printf("  .text        %d bytes, %d instructions (all NaCl constraints hold)\n",
		len(text.Data), len(prog.Insts))
	fmt.Printf("  functions    %d\n", tab.Len())
	if relas, err := f.Relocations(); err == nil {
		fmt.Printf("  relocations  %d\n", len(relas))
	}

	if symbols {
		for _, fn := range tab.Functions() {
			fmt.Printf("  %#08x %6d %s\n", fn.Addr, fn.Size, fn.Name)
		}
	}
	if disasm {
		for i := range prog.Insts {
			in := &prog.Insts[i]
			fmt.Printf("  %#08x: %-24x %s\n", in.Addr, prog.Raw(i), in.String())
		}
	}

	if policyList != "" {
		set, err := engarde.ParsePolicies(policyList)
		if err != nil {
			return err
		}
		ctx := &policy.Context{Program: prog, Symbols: tab, Counter: counter}
		if err := set.Check(ctx); err != nil {
			fmt.Printf("  policy       VIOLATION: %v\n", err)
			return fmt.Errorf("content is NOT policy compliant")
		}
		fmt.Printf("  policy       compliant with %v\n", set.Names())
		fmt.Printf("  check cost   %d cycles (%.1f ms at 3.5 GHz)\n",
			counter.Cycles(cycles.PhasePolicy),
			cycles.Milliseconds(counter.Cycles(cycles.PhasePolicy)))
	}
	return nil
}
