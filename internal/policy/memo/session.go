package memo

import (
	"crypto/sha256"
	"sort"

	"engarde/internal/cycles"
	"engarde/internal/nacl"
	"engarde/internal/symtab"
)

// FuncSpan is one function's extent in the instruction buffer and the
// content digest addressing its memoized outcomes. The extent follows the
// library-linking module's boundary rule exactly — walk from the function's
// first instruction and stop at the first *later instruction* that begins
// another function — so the digested bytes are the same bytes liblink
// hashes and the same span stackprot/asan inspect.
type FuncSpan struct {
	Addr     uint64 // function start address
	StartIdx int    // index of the first instruction
	EndIdx   int    // one past the last owned instruction
	Digest   [sha256.Size]byte
	Bytes    uint64 // raw bytes under Digest
}

// Session is the per-provisioning view of the cache: the digest table
// computed by the fingerprint pass plus the per-module hit sets filled in
// by Probe. It belongs to one provisioning, whose modules run one after
// another, so it takes no locks; the Cache underneath is shared and does.
type Session struct {
	cache  *Cache
	spans  []FuncSpan // ascending Addr and StartIdx
	byAddr map[uint64]int
	hits   map[[sha256.Size]byte]map[uint64][]byte
	reused uint64
}

// NewSession runs the fingerprint pass: one serial walk over the symbol
// table computing every function's content digest. The work is charged to
// the policy phase of counter — one hash init per function, one memo-key
// byte per digested byte, one symbol lookup per boundary probe — matching
// what a single liblink hashFunction walk would cost, paid once per image
// instead of once per call site.
func NewSession(cache *Cache, p *nacl.Program, tab *symtab.Table, counter *cycles.Counter) *Session {
	s := &Session{
		cache:  cache,
		byAddr: make(map[uint64]int, tab.Len()),
		hits:   make(map[[sha256.Size]byte]map[uint64][]byte),
	}
	var hashes, keyBytes, lookups uint64
	for _, fn := range tab.Functions() {
		start, ok := p.InstAt(fn.Addr)
		if !ok {
			// Not an instruction boundary: no digest. Modules that care
			// (liblink) fall back to the cold path and report it there.
			continue
		}
		end := start + 1
		for ; end < len(p.Insts); end++ {
			lookups++
			if tab.IsFuncStart(p.Insts[end].Addr) {
				break
			}
		}
		// Instructions tile the function, so one write of its bytes
		// hashes exactly what a per-instruction walk would.
		body := p.Span(start, end)
		n := uint64(len(body))
		d := sha256.Sum256(body)
		s.byAddr[fn.Addr] = len(s.spans)
		s.spans = append(s.spans, FuncSpan{Addr: fn.Addr, StartIdx: start, EndIdx: end, Digest: d, Bytes: n})
		hashes++
		keyBytes += n
	}
	if counter != nil {
		counter.Charge(cycles.PhasePolicy, cycles.UnitHashInit, hashes)
		counter.Charge(cycles.PhasePolicy, cycles.UnitMemoKeyByte, keyBytes)
		counter.Charge(cycles.PhasePolicy, cycles.UnitSymLookup, lookups)
	}
	return s
}

// NumFuncs returns the number of digested functions.
func (s *Session) NumFuncs() int { return len(s.spans) }

// Probe looks up every function's outcome for the given module fingerprint
// and fixes the hit set for the rest of the session. It returns the number
// of cache probes performed so the caller can charge them.
func (s *Session) Probe(moduleFP [sha256.Size]byte) int {
	hits := make(map[uint64][]byte)
	for i := range s.spans {
		if payload, ok := s.cache.Get(Key{Fn: s.spans[i].Digest, Module: moduleFP}); ok {
			hits[s.spans[i].Addr] = payload
		}
	}
	s.hits[moduleFP] = hits
	return len(s.spans)
}

// Hit returns the memoized payload for the function starting at addr under
// the given module fingerprint, if Probe found one. The payload is shared
// and read-only; a present-but-empty payload returns (nil-or-empty, true).
func (s *Session) Hit(moduleFP [sha256.Size]byte, addr uint64) ([]byte, bool) {
	payload, ok := s.hits[moduleFP][addr]
	return payload, ok
}

// Record memoizes a passing outcome for the function starting at addr. It
// is a no-op for functions the fingerprint pass skipped.
func (s *Session) Record(moduleFP [sha256.Size]byte, addr uint64, payload []byte) {
	i, ok := s.byAddr[addr]
	if !ok {
		return
	}
	s.cache.Put(Key{Fn: s.spans[i].Digest, Module: moduleFP}, payload)
}

// Digest returns the content digest of the function starting at addr.
func (s *Session) Digest(addr uint64) ([sha256.Size]byte, bool) {
	i, ok := s.byAddr[addr]
	if !ok {
		return [sha256.Size]byte{}, false
	}
	return s.spans[i].Digest, true
}

// Span returns the digested extent of the function starting at addr.
func (s *Session) Span(addr uint64) (FuncSpan, bool) {
	i, ok := s.byAddr[addr]
	if !ok {
		return FuncSpan{}, false
	}
	return s.spans[i], true
}

// SpanContaining returns the function span containing instruction index
// idx, letting a module's scan hop function-by-function instead of
// instruction-by-instruction.
func (s *Session) SpanContaining(idx int) (FuncSpan, bool) {
	i := sort.Search(len(s.spans), func(i int) bool { return s.spans[i].StartIdx > idx })
	if i == 0 {
		return FuncSpan{}, false
	}
	sp := s.spans[i-1]
	if idx >= sp.EndIdx {
		return FuncSpan{}, false
	}
	return sp, true
}

// CountReuse adds n to the session's tally of function outcomes served
// from the cache (revalidated hits).
func (s *Session) CountReuse(n uint64) { s.reused += n }

// Reused returns the tally of function outcomes served from the cache —
// the value surfaced as Report.CachedFunctions.
func (s *Session) Reused() uint64 { return s.reused }
