// Package liblink implements the library-linking compliance policy of the
// paper's evaluation (§5, Figure 3): it verifies that an executable is
// linked against an approved library build — musl-libc v1.0.5 in the paper
// — by comparing SHA-256 hashes of the library functions the program
// actually calls against a database the cloud provider derived from its
// approved build.
//
// Following the paper's algorithm exactly: the module iterates through the
// instruction buffer looking for direct function calls. For each one it
// computes the call target and resolves it through the symbol hash table;
// an unresolvable target marks the call invalid. If the resolved name is in
// the approved-library database, the module hashes the function's
// instructions — reading from the target address until it encounters an
// instruction at the beginning of another function — and compares against
// the database. No memoization is performed (the paper describes none), so
// hot library functions are re-hashed per call site; this is the dominant
// cost in Figure 3.
package liblink

import (
	"crypto/sha256"
	"fmt"
	"hash"
	"sort"
	"sync/atomic"

	"engarde/internal/policy"
)

// Module is the library-linking policy module.
type Module struct {
	libName string
	db      map[string][sha256.Size]byte
	// RequireUse, when set, additionally demands that the program call at
	// least one approved-library function (a program that never touches
	// libc trivially satisfies the hash check).
	RequireUse bool
}

// New builds the module for the named library with the provider's hash
// database (function name → SHA-256 of the function's linked bytes).
func New(libName string, db map[string][sha256.Size]byte) *Module {
	return &Module{libName: libName, db: db}
}

// Name implements policy.Module.
func (m *Module) Name() string { return "liblink(" + m.libName + ")" }

// Fingerprint implements policy.Fingerprinter: the verdict depends on the
// approved-hash database and the RequireUse setting, so both go into the
// canonical identity. Entries are folded in sorted-name order so map
// iteration order cannot perturb the digest.
func (m *Module) Fingerprint() []byte {
	names := make([]string, 0, len(m.db))
	for name := range m.db {
		names = append(names, name)
	}
	sort.Strings(names)
	h := sha256.New()
	for _, name := range names {
		fmt.Fprintf(h, "%d:%s=", len(name), name)
		sum := m.db[name]
		h.Write(sum[:])
	}
	if m.RequireUse {
		h.Write([]byte("require-use"))
	}
	return h.Sum(nil)
}

// Check implements policy.Module.
func (m *Module) Check(ctx *policy.Context) error {
	return policy.RunSharded(ctx, m)
}

// UsesDigestTable implements policy.DigestTableUser. The module does not
// memoize call-site verdicts across images (they depend on the resolved
// callee, not only the caller's bytes), but when a memo session is active
// its per-site hash is exactly the content digest the session's
// fingerprint pass already computed, so each site costs one digest-table
// fetch instead of a full re-hash — the paper's dominant Figure 3 cost.
func (m *Module) UsesDigestTable() {}

// BeginShards implements policy.Sharded. Call sites are owned by the span
// containing the call instruction; the library-use tally is accumulated
// atomically and judged once in Finish.
func (m *Module) BeginShards(ctx *policy.Context) (policy.SpanChecker, error) {
	return &checker{m: m}, nil
}

type checker struct {
	m    *Module
	used atomic.Uint64
}

// CheckSpan scans instructions [lo, hi) for direct calls and verifies each
// resolvable target against the approved-library database. Its charges
// are tallied and flushed on return; one hasher serves every call site of
// the span (spans run concurrently, so it is not the checker's).
func (c *checker) CheckSpan(ctx *policy.Context, lo, hi int) error {
	var t policy.Tally
	defer t.Flush(ctx)
	m := c.m
	p := ctx.Program
	h := siteHasher{h: sha256.New()}
	for i := lo; i < hi; i++ {
		t.Scan++
		in := &p.Insts[i]
		if !in.IsDirectCall() {
			continue
		}
		target, ok := in.BranchTarget()
		if !ok {
			continue
		}
		// Resolve the target through the symbol hash table.
		t.Lookup++
		name, ok := ctx.Symbols.NameAt(target)
		if !ok {
			return &policy.Violation{
				Module: m.Name(), Addr: in.Addr,
				Reason: fmt.Sprintf("direct call target %#x is not a known function", target),
			}
		}
		// Hash the target function unconditionally — the paper's check
		// hashes every resolvable direct-call target and then compares
		// against the library database ("otherwise, it will compute the
		// SHA-256 hash of all the instructions of the function"). Only
		// names present in the database carry an expectation; the rest
		// are application-internal functions.
		var got [sha256.Size]byte
		if d, ok := digestFor(ctx, target); ok {
			got = d
		} else {
			var n uint64
			var err error
			got, n, err = m.hashFunction(ctx, &t, &h, target)
			if err != nil {
				return err
			}
			t.Hash(n)
		}
		want, inDB := m.db[name]
		if !inDB {
			continue
		}
		if got != want {
			return &policy.Violation{
				Module: m.Name(), Addr: in.Addr,
				Reason: fmt.Sprintf("function %q does not match the approved %s build", name, m.libName),
			}
		}
		c.used.Add(1)
	}
	return nil
}

// Finish enforces RequireUse once every span has passed.
func (c *checker) Finish(ctx *policy.Context) error {
	m := c.m
	if m.RequireUse && c.used.Load() == 0 {
		return &policy.Violation{
			Module: m.Name(),
			Reason: fmt.Sprintf("program never calls into %s; linkage cannot be verified", m.libName),
		}
	}
	return nil
}

// digestFor fetches the target function's content digest from the memo
// session's table when one is active. The table is computed with exactly
// hashFunction's boundary rule, so the digest equals what hashFunction
// would return; one probe replaces the whole per-site walk. Targets the
// fingerprint pass skipped (non-boundary starts, non-symbol targets) miss
// and take the cold path, which reports the precise violation.
func digestFor(ctx *policy.Context, addr uint64) ([sha256.Size]byte, bool) {
	if ctx.Memo == nil {
		return [sha256.Size]byte{}, false
	}
	d, ok := ctx.Memo.Digest(addr)
	if ok {
		ctx.ChargeMemoProbe(1)
	}
	return d, ok
}

// siteHasher is a reusable SHA-256 state with its own output buffer, so
// hashing a call site's target allocates nothing.
type siteHasher struct {
	h   hash.Hash
	sum []byte
}

// hashFunction hashes the instructions of the function starting at addr,
// stopping at the first instruction that begins another function (paper
// §5: "the policy module sequentially reads instructions starting from the
// computed target address and stops when it comes across an instruction
// that is at the beginning of another function"). It returns the hash and
// the number of bytes hashed; its symbol lookups go to t.
func (m *Module) hashFunction(ctx *policy.Context, t *policy.Tally, h *siteHasher, addr uint64) ([sha256.Size]byte, uint64, error) {
	p := ctx.Program
	idx, ok := p.InstAt(addr)
	if !ok {
		return [sha256.Size]byte{}, 0, &policy.Violation{
			Module: m.Name(), Addr: addr,
			Reason: "call target is not an instruction boundary",
		}
	}
	h.h.Reset()
	var n uint64
	for i := idx; i < len(p.Insts); i++ {
		in := &p.Insts[i]
		if i > idx {
			// The symbol hash table tells us whether this instruction
			// starts another function.
			t.Lookup++
			if ctx.Symbols.IsFuncStart(in.Addr) {
				break
			}
		}
		h.h.Write(in.Raw)
		n += uint64(len(in.Raw))
	}
	var sum [sha256.Size]byte
	h.sum = h.h.Sum(h.sum[:0])
	copy(sum[:], h.sum)
	return sum, n, nil
}
