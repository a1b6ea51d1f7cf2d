// Package policytest provides shared helpers for policy-module tests: it
// runs a built binary through the same parse → symtab → validate pipeline
// EnGarde's core uses and hands back a ready policy.Context.
package policytest

import (
	"reflect"
	"testing"

	"engarde/internal/cycles"
	"engarde/internal/elf64"
	"engarde/internal/nacl"
	"engarde/internal/policy"
	"engarde/internal/symtab"
	"engarde/internal/toolchain"
)

// Context disassembles and validates bin and returns a policy context over
// it, with a fresh default-model counter attached.
func Context(t *testing.T, bin *toolchain.Binary) *policy.Context {
	t.Helper()
	f, err := elf64.Parse(bin.Image)
	if err != nil {
		t.Fatalf("policytest: parse: %v", err)
	}
	tab, err := symtab.FromELF(f)
	if err != nil {
		t.Fatalf("policytest: symtab: %v", err)
	}
	text := f.Section(".text")
	ctr := cycles.NewCounter(cycles.DefaultModel())
	prog, err := nacl.Validate(text.Data, text.Addr, f.Header.Entry, tab, ctr)
	if err != nil {
		t.Fatalf("policytest: validate: %v", err)
	}
	return &policy.Context{Program: prog, Symbols: tab, Counter: ctr}
}

// Build builds a toolchain config or fails the test.
func Build(t *testing.T, cfg toolchain.Config) *toolchain.Binary {
	t.Helper()
	bin, err := toolchain.Build(cfg)
	if err != nil {
		t.Fatalf("policytest: build: %v", err)
	}
	return bin
}

// Fresh returns a copy of ctx with a new default-model counter, so two
// checks of one program can be compared charge for charge.
func Fresh(ctx *policy.Context) *policy.Context {
	c := *ctx
	c.Counter = cycles.NewCounter(cycles.DefaultModel())
	return &c
}

// PolicyUnits returns the policy-phase count of every cycle-model unit,
// keyed by unit name, plus the phase's cycle total under "cycles".
func PolicyUnits(c *cycles.Counter) map[string]uint64 {
	out := map[string]uint64{"cycles": c.Cycles(cycles.PhasePolicy)}
	for u := range len(cycles.Model{}) {
		unit := cycles.Unit(u)
		out[unit.String()] = c.Units(cycles.PhasePolicy, unit)
	}
	return out
}

// SameCheck fails t unless two checks had the same outcome — both nil, or
// errors whose Violations (or, for other errors, texts) are equal — and
// charged exactly the same policy-phase units.
func SameCheck(t testing.TB, label string, got, want error, gotCtr, wantCtr *cycles.Counter) {
	t.Helper()
	gv, gok := policy.AsViolation(got)
	wv, wok := policy.AsViolation(want)
	switch {
	case gok != wok || (got == nil) != (want == nil):
		t.Errorf("%s: err = %v, reference %v", label, got, want)
	case gok && !reflect.DeepEqual(gv, wv):
		t.Errorf("%s: violation = %+v, reference %+v", label, gv, wv)
	case !gok && got != nil && got.Error() != want.Error():
		t.Errorf("%s: err = %v, reference %v", label, got, want)
	}
	if g, w := PolicyUnits(gotCtr), PolicyUnits(wantCtr); !reflect.DeepEqual(g, w) {
		t.Errorf("%s: charged units = %v, reference %v", label, g, w)
	}
}
