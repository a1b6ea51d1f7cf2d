// Package policy defines EnGarde's pluggable policy-module architecture
// (paper §3): "EnGarde checks policies using pluggable policy modules. Each
// policy module checks compliance for a specific property, and specific
// policy modules that are loaded during enclave creation depend upon the
// policies that the client and cloud provider have agreed upon."
//
// A Module receives a Context with the validated instruction buffer, the
// symbol hash table, and a cycle counter; it reports either compliance or
// a Violation that names the offending address. The three modules of the
// paper's evaluation live in the liblink, stackprot and ifcc subpackages.
package policy

import (
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"fmt"

	"engarde/internal/cycles"
	"engarde/internal/nacl"
	"engarde/internal/obs"
	"engarde/internal/policy/memo"
	"engarde/internal/symtab"
)

// Context is what a policy module gets to inspect. The instruction buffer
// and symbol table are read-only; all metered work must go through the
// Charge helpers so the evaluation tables come out right.
type Context struct {
	// Program is the validated, fully decoded instruction buffer.
	Program *nacl.Program
	// Symbols is the symbol hash table built during disassembly.
	Symbols *symtab.Table
	// Counter receives policy-phase work charges; may be nil.
	Counter *cycles.Counter
	// Memo, when non-nil, is the per-image view of the function-result
	// cache: the digest table plus the per-module hit sets fixed by
	// Set.ProbeMemo. Nil means cold checking (the default).
	Memo *memo.Session
	// Trace, when non-nil, receives one wall-clock span per policy module.
	// Module spans may run concurrently under CheckParallel, so they carry
	// no cycle attribution — the enclosing pipeline phase span does.
	Trace *obs.Trace
	// JumpTableHint carries binary metadata some policies need (unused by
	// the built-in modules, reserved for extensions).
	JumpTableHint uint64
}

// ChargeScan records n instruction-buffer visit steps.
func (c *Context) ChargeScan(n uint64) { c.charge(cycles.UnitScanInst, n) }

// ChargeLookup records n symbol hash-table lookups.
func (c *Context) ChargeLookup(n uint64) { c.charge(cycles.UnitSymLookup, n) }

// ChargePattern records n operand/pattern predicate evaluations.
func (c *Context) ChargePattern(n uint64) { c.charge(cycles.UnitPatternStep, n) }

// ChargeHash records one SHA-256 computation over n bytes.
func (c *Context) ChargeHash(n uint64) {
	c.charge(cycles.UnitHashInit, 1)
	c.charge(cycles.UnitHashedByte, n)
}

func (c *Context) charge(u cycles.Unit, n uint64) {
	if c.Counter != nil && n != 0 {
		c.Counter.Charge(cycles.PhasePolicy, u, n)
	}
}

// Tally counts policy-phase work in locals, so a hot loop pays one counter
// update per unit instead of one atomic add per step. Charges are sums, so
// a flushed tally leaves every unit and cycle total exactly where the
// per-step Charge calls would have. Flush before every return, violations
// included: CheckParallel folds a failing span's stage, and it must hold
// everything the span did up to the failure.
type Tally struct {
	Scan, Lookup, Pattern uint64
	// Hashes and HashedBytes count SHA-256 computations and their input.
	Hashes, HashedBytes uint64
}

// Hash records one SHA-256 computation over n bytes, like ChargeHash.
func (t *Tally) Hash(n uint64) {
	t.Hashes++
	t.HashedBytes += n
}

// Flush charges the tally to ctx and zeroes it.
func (t *Tally) Flush(ctx *Context) {
	ctx.ChargeScan(t.Scan)
	ctx.ChargeLookup(t.Lookup)
	ctx.ChargePattern(t.Pattern)
	ctx.charge(cycles.UnitHashInit, t.Hashes)
	ctx.charge(cycles.UnitHashedByte, t.HashedBytes)
	*t = Tally{}
}

// Violation is the error a module returns when the client's code is not
// policy compliant. EnGarde reports only the fact of non-compliance to the
// cloud provider; the details stay with the client.
type Violation struct {
	// Module is the reporting policy module's name.
	Module string
	// Addr is the offending code address (0 if not address-specific).
	Addr uint64
	// Reason is a human-readable explanation.
	Reason string
}

func (v *Violation) Error() string {
	if v.Addr != 0 {
		return fmt.Sprintf("policy %s: violation at %#x: %s", v.Module, v.Addr, v.Reason)
	}
	return fmt.Sprintf("policy %s: violation: %s", v.Module, v.Reason)
}

// AsViolation extracts a *Violation from an error chain.
func AsViolation(err error) (*Violation, bool) {
	var v *Violation
	if errors.As(err, &v) {
		return v, true
	}
	return nil, false
}

// Module is one pluggable compliance check.
type Module interface {
	// Name identifies the module in reports.
	Name() string
	// Check inspects the program; it returns nil for compliant code and a
	// *Violation (possibly wrapped) otherwise. Any other error kind means
	// the check itself failed.
	Check(ctx *Context) error
}

// Set is an ordered collection of policy modules, as negotiated between
// the cloud provider and the client.
type Set struct {
	modules []Module
}

// NewSet builds a set from the given modules.
func NewSet(mods ...Module) *Set {
	return &Set{modules: mods}
}

// Add appends a module.
func (s *Set) Add(m Module) { s.modules = append(s.modules, m) }

// Names lists the module names in check order.
func (s *Set) Names() []string {
	out := make([]string, len(s.modules))
	for i, m := range s.modules {
		out[i] = m.Name()
	}
	return out
}

// Len returns the number of modules.
func (s *Set) Len() int { return len(s.modules) }

// Fingerprinter is optionally implemented by modules whose verdict depends
// on configuration beyond what Name() captures (an approved-hash database,
// a denied-instruction list, ...). Fingerprint must return a stable digest
// of that configuration: two modules with equal Name and equal Fingerprint
// must accept and reject exactly the same programs.
type Fingerprinter interface {
	Fingerprint() []byte
}

// Fingerprint returns a canonical SHA-256 digest identifying the set: the
// module count, then each module's name and (when the module implements
// Fingerprinter) its configuration digest, in check order. Because every
// module's Check is a pure function of the program and its configuration,
// two sets with equal fingerprints produce identical verdicts for
// byte-identical images — the property that makes verdict caching sound.
func (s *Set) Fingerprint() [sha256.Size]byte {
	h := sha256.New()
	writeField := func(b []byte) {
		var n [8]byte
		binary.BigEndian.PutUint64(n[:], uint64(len(b)))
		h.Write(n[:])
		h.Write(b)
	}
	var count [8]byte
	binary.BigEndian.PutUint64(count[:], uint64(len(s.modules)))
	h.Write(count[:])
	for _, m := range s.modules {
		writeField([]byte(m.Name()))
		if f, ok := m.(Fingerprinter); ok {
			writeField(f.Fingerprint())
		} else {
			writeField(nil)
		}
	}
	var out [sha256.Size]byte
	h.Sum(out[:0])
	return out
}

// Check runs every module in order, stopping at the first violation.
func (s *Set) Check(ctx *Context) error {
	for _, m := range s.modules {
		sp := ctx.Trace.StartSpan("policy:" + m.Name())
		err := m.Check(ctx)
		sp.End()
		if err != nil {
			if _, isViolation := AsViolation(err); isViolation {
				// Violations already carry the module name.
				return err
			}
			return fmt.Errorf("module %s: %w", m.Name(), err)
		}
	}
	return nil
}
