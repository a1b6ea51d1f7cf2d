// Memoization support: the glue between policy modules and the
// content-addressed function-result cache (internal/policy/memo).
//
// The protocol is deliberately conservative:
//
//   - Only *passing* per-function outcomes are memoized. A violating
//     function is always rechecked in full, so warm and cold runs reject
//     with bit-identical violations.
//   - A hit carries a module-private revalidation payload pinning the
//     cross-function conditions the function's own bytes do not (a
//     __stack_chk_fail resolution, a jump-table base, ...). Failed
//     revalidation silently falls back to the full check.
//   - Probing happens once, in Set.ProbeMemo before any module runs, so
//     outcomes recorded during a provisioning never become hits within it.
package policy

import (
	"crypto/sha256"
	"encoding/binary"

	"engarde/internal/cycles"
)

// ChargeMemoProbe records n function-result cache probes.
func (c *Context) ChargeMemoProbe(n uint64) { c.charge(cycles.UnitMemoProbe, n) }

// Memoizable is optionally implemented by modules that can reuse
// per-function outcomes across images through the function-result cache.
// MemoFingerprint must identify the module, its configuration, and its
// revalidation-payload format: two modules with equal fingerprints must
// interpret each other's payloads and accept exactly the same functions.
type Memoizable interface {
	Module
	MemoFingerprint() [sha256.Size]byte
}

// MemoKeyFP builds a module's memo fingerprint from its Name, its
// Fingerprinter digest when it has one, and a format-version tag that the
// module bumps whenever its payload encoding changes (stale-format entries
// then simply miss instead of being misparsed).
func MemoKeyFP(m Module, formatVersion string) [sha256.Size]byte {
	h := sha256.New()
	writeField := func(b []byte) {
		var n [8]byte
		binary.BigEndian.PutUint64(n[:], uint64(len(b)))
		h.Write(n[:])
		h.Write(b)
	}
	writeField([]byte(m.Name()))
	if f, ok := m.(Fingerprinter); ok {
		writeField(f.Fingerprint())
	} else {
		writeField(nil)
	}
	writeField([]byte(formatVersion))
	var out [sha256.Size]byte
	h.Sum(out[:0])
	return out
}

// AnyMemoizable reports whether any module in the set can use the
// function-result cache (directly, or via the digest table like liblink).
// The core pipeline uses it to skip the fingerprint pass when nothing
// would consume it.
func (s *Set) AnyMemoizable() bool {
	for _, m := range s.modules {
		if _, ok := m.(Memoizable); ok {
			return true
		}
		if _, ok := m.(DigestTableUser); ok {
			return true
		}
	}
	return false
}

// DigestTableUser marks modules that consume the session's digest table
// without memoizing outcomes across images (liblink: call-site verdicts
// depend on the callee database, but each site's hash is exactly the
// digest the fingerprint pass already computed).
type DigestTableUser interface {
	UsesDigestTable()
}

// ProbeMemo fixes every memoizable module's hit set for this provisioning.
// It must run after the session's fingerprint pass and before Check;
// probes are charged to the policy phase here.
func (s *Set) ProbeMemo(ctx *Context) {
	if ctx.Memo == nil {
		return
	}
	for _, m := range s.modules {
		if mm, ok := m.(Memoizable); ok {
			ctx.ChargeMemoProbe(uint64(ctx.Memo.Probe(mm.MemoFingerprint())))
		}
	}
}
