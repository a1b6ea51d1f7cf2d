// Package cycles implements the performance-accounting methodology of the
// EnGarde paper (§5), which in turn follows the OpenSGX paper: every SGX
// instruction (enclave crossing, trampoline call, EADD, ...) is charged a
// flat 10,000 CPU cycles, and ordinary in-enclave work is charged in units
// (instructions decoded, bytes hashed, hash-table lookups, relocations
// applied) converted to cycles with calibrated per-unit costs.
//
// The per-unit constants in DefaultModel are calibrated once against the
// paper's Figure 3 Nginx row (see EXPERIMENTS.md §Calibration) and then held
// fixed for every experiment, so relative comparisons across benchmarks and
// policies are meaningful even though absolute cycle counts are model
// outputs, exactly as in the paper.
package cycles

import (
	"fmt"
	"sync/atomic"
)

// Phase identifies a stage of EnGarde's provisioning pipeline. The three
// middle phases are the columns of the paper's Figures 3-5.
type Phase int

// Pipeline phases.
const (
	PhaseProvision Phase = iota + 1 // enclave creation + encrypted transfer
	PhaseDisasm                     // "Disassembly" column
	PhasePolicy                     // "Policy Checking" column
	PhaseLoad                       // "Loading and Relocation" column
	PhaseAttest                     // attestation (not tabulated in the paper)

	numPhases
)

// NumPhases is the exclusive upper bound of valid Phase values: phases are
// 1..NumPhases-1, so a [NumPhases]uint64 indexed by Phase has one unused
// slot at 0. Telemetry code sizes fixed per-phase arrays with it.
const NumPhases = int(numPhases)

var phaseNames = map[Phase]string{
	PhaseProvision: "Provisioning",
	PhaseDisasm:    "Disassembly",
	PhasePolicy:    "Policy Checking",
	PhaseLoad:      "Loading and Relocation",
	PhaseAttest:    "Attestation",
}

func (p Phase) String() string {
	if s, ok := phaseNames[p]; ok {
		return s
	}
	return fmt.Sprintf("Phase(%d)", int(p))
}

// Unit is a kind of metered work.
type Unit int

// Work units.
const (
	// UnitSGXInstr is one SGX instruction or enclave crossing
	// (EENTER/EEXIT/EADD/trampoline). The paper charges these 10K cycles.
	UnitSGXInstr Unit = iota
	// UnitDecodedInst is one x86-64 instruction decoded by the
	// NaCl-style disassembler.
	UnitDecodedInst
	// UnitHashedByte is one byte fed through SHA-256 by a policy module.
	UnitHashedByte
	// UnitHashInit is one SHA-256 initialization+finalization.
	UnitHashInit
	// UnitSymLookup is one symbol hash-table lookup.
	UnitSymLookup
	// UnitScanInst is one instruction visited by a policy module's scan
	// over the instruction buffer.
	UnitScanInst
	// UnitPatternStep is one operand/pattern predicate evaluated by a
	// policy matcher.
	UnitPatternStep
	// UnitRelocEntry is one relocation entry applied by the loader.
	UnitRelocEntry
	// UnitPageMap is one enclave page mapped with final permissions.
	UnitPageMap
	// UnitSegmentMap is one ELF segment mapped by the loader (text, data,
	// bss), covering the per-segment setup cost.
	UnitSegmentMap
	// UnitCopiedByte is one byte copied while staging segments.
	UnitCopiedByte
	// UnitAESByte is one byte of AES-GCM processing on the provisioning
	// channel.
	UnitAESByte
	// UnitKeyAgreement is one X25519 scalar multiplication: generating an
	// ephemeral key pair or computing a shared secret on the provisioning
	// channel.
	UnitKeyAgreement
	// UnitMemoKeyByte is one byte fed through SHA-256 while computing a
	// content-addressed function digest for the memo cache (the fingerprint
	// pass of internal/policy/memo).
	UnitMemoKeyByte
	// UnitMemoProbe is one memo-cache lookup: a per-function probe of the
	// function-result cache, or a per-call-site digest-table fetch.
	UnitMemoProbe

	numUnits
)

var unitNames = [numUnits]string{
	"sgx-instr", "decoded-inst", "hashed-byte", "hash-init",
	"sym-lookup", "scan-inst", "pattern-step", "reloc-entry",
	"page-map", "segment-map", "copied-byte", "aes-byte", "key-agreement",
	"memo-key-byte", "memo-probe",
}

func (u Unit) String() string {
	if u >= 0 && int(u) < len(unitNames) {
		return unitNames[u]
	}
	return fmt.Sprintf("Unit(%d)", int(u))
}

// Model maps each work unit to its cost in CPU cycles.
type Model [numUnits]uint64

// DefaultModel returns the calibrated cost model. See EXPERIMENTS.md
// §Calibration for the derivation of each constant.
func DefaultModel() Model {
	var m Model
	m[UnitSGXInstr] = 10_000 // fixed by the paper's methodology (§5)
	m[UnitDecodedInst] = 1_400
	m[UnitHashedByte] = 30 // unoptimized in-enclave SHA-256, C reference code
	m[UnitHashInit] = 500
	m[UnitSymLookup] = 80
	m[UnitScanInst] = 25
	m[UnitPatternStep] = 15
	m[UnitRelocEntry] = 50
	m[UnitPageMap] = 400
	m[UnitSegmentMap] = 1_400
	// Segment copies are mmap-style mappings in the paper's loader; the
	// unit is counted for reporting but costs no cycles.
	m[UnitCopiedByte] = 0
	m[UnitAESByte] = 4
	m[UnitKeyAgreement] = 200_000
	// Memo-cache units: digest bytes cost the same as policy-module SHA-256
	// bytes (the work is identical); a probe is priced like a slightly
	// heavier hash-table lookup (bucket walk + 64-byte key compare).
	m[UnitMemoKeyByte] = 30
	m[UnitMemoProbe] = 120
	return m
}

// Counter accumulates cycles and unit counts per phase. It is safe for
// concurrent use and contention-free: every cell is an independent atomic,
// so sessions sharing one platform counter never serialize on a lock. The
// zero value is NOT ready: use NewCounter so a model is attached.
type Counter struct {
	model  Model
	cycles [numPhases]atomic.Uint64
	units  [numPhases][numUnits]atomic.Uint64
}

// NewCounter returns a Counter charging according to the given model.
func NewCounter(m Model) *Counter {
	return &Counter{model: m}
}

// Model returns the cost model the counter charges against.
func (c *Counter) Model() Model {
	return c.model
}

// Charge records n units of work in the given phase.
func (c *Counter) Charge(p Phase, u Unit, n uint64) {
	if p <= 0 || p >= numPhases || u < 0 || u >= numUnits {
		return
	}
	c.units[p][u].Add(n)
	c.cycles[p].Add(n * c.model[u])
}

// Cycles returns the accumulated cycles for a phase.
func (c *Counter) Cycles(p Phase) uint64 {
	if p <= 0 || p >= numPhases {
		return 0
	}
	return c.cycles[p].Load()
}

// Units returns the accumulated count of a unit within a phase.
func (c *Counter) Units(p Phase, u Unit) uint64 {
	if p <= 0 || p >= numPhases || u < 0 || u >= numUnits {
		return 0
	}
	return c.units[p][u].Load()
}

// Total returns the cycles summed over all phases.
func (c *Counter) Total() uint64 {
	var t uint64
	for p := 1; p < int(numPhases); p++ {
		t += c.cycles[p].Load()
	}
	return t
}

// Reset zeroes all counters, keeping the model.
func (c *Counter) Reset() {
	for p := 1; p < int(numPhases); p++ {
		c.cycles[p].Store(0)
		for u := 0; u < int(numUnits); u++ {
			c.units[p][u].Store(0)
		}
	}
}

// AllPhases lists every pipeline phase in order. Serving-layer code uses
// it to render stable, complete phase tables (Snapshot omits zero phases).
func AllPhases() []Phase {
	out := make([]Phase, 0, int(numPhases)-1)
	for p := Phase(1); p < numPhases; p++ {
		out = append(out, p)
	}
	return out
}

// SnapshotNamed returns the per-phase cycle totals keyed by phase name —
// the JSON-friendly form of Snapshot, used by the gateway's stats endpoint.
func (c *Counter) SnapshotNamed() map[string]uint64 {
	out := make(map[string]uint64, int(numPhases))
	for p := Phase(1); p < numPhases; p++ {
		if v := c.cycles[p].Load(); v > 0 {
			out[p.String()] = v
		}
	}
	return out
}

// SnapshotArray returns the per-phase cycle totals as a fixed array indexed
// by Phase (slot 0 unused). It allocates nothing, so span instrumentation
// can snapshot the counter on the hot path without GC pressure.
func (c *Counter) SnapshotArray() [NumPhases]uint64 {
	var out [NumPhases]uint64
	for p := 1; p < int(numPhases); p++ {
		out[p] = c.cycles[p].Load()
	}
	return out
}

// Snapshot returns a copy of the per-phase cycle totals keyed by phase.
func (c *Counter) Snapshot() map[Phase]uint64 {
	out := make(map[Phase]uint64, int(numPhases))
	for p := Phase(1); p < numPhases; p++ {
		if v := c.cycles[p].Load(); v > 0 {
			out[p] = v
		}
	}
	return out
}

// Milliseconds converts a cycle count to wall-clock milliseconds at the
// paper's reference clock rate of 3.5 GHz ("A CPU with a clock rate of
// 3.5GHz as used in our experiments has 1/3.5 nanoseconds cycle time").
func Milliseconds(cyc uint64) float64 {
	const hz = 3.5e9
	return float64(cyc) / hz * 1e3
}
