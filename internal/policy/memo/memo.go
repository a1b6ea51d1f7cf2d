// Package memo implements EnGarde's content-addressed function-result
// cache: the incremental-verification layer that makes warm-path
// provisioning cheap. The paper's evaluation (§5, Figure 3) shows the cost
// of provisioning is dominated by policy modules re-examining library code
// that is byte-identical across tenant images — every client links the same
// approved musl build, yet the whole-image verdict cache (internal/gateway)
// only helps when the *entire* image repeats. This package memoizes policy
// outcomes at function granularity instead, keyed by
//
//	(SHA-256 of the function's linked bytes) × (module fingerprint)
//
// so a second image sharing the approved libc skips re-checking the shared
// text even though the image as a whole is new.
//
// # Soundness
//
// A memoized outcome is only a *pass* (violations abort provisioning and
// carry image-specific diagnostics; warm runs recheck violating functions in
// full, so rejection verdicts are bit-identical to cold runs by
// construction). Because a function's bytes do not pin everything a module
// examined — a stack-protector chain ends in a call that must resolve to
// __stack_chk_fail in *this* image's symbol table, an IFCC guard must load
// *this* image's jump-table base — each outcome carries a module-private,
// position-independent revalidation payload. On a hit the module revalidates
// those cross-function conditions cheaply (a few symbol lookups); if
// revalidation fails the hit is discarded and the function is rechecked in
// full. Falling back to the cold path is always sound, so cache corruption,
// eviction or payload-format drift can cost cycles but never change a
// verdict.
//
// # One tier
//
// The cache is one in-process sharded bounded LRU, shared across all of a
// gateway's enclaves. It is never persisted and never shared with another
// process: function digests are unkeyed SHA-256 of client content, so they
// live only in the process that computed them.
package memo

import (
	"crypto/sha256"
	"sync"
	"sync/atomic"
)

// Key addresses one memoized per-function outcome: the content identity of
// the function and the identity of the module (name, configuration and
// payload-format version) that produced the outcome.
type Key struct {
	// Fn is the SHA-256 of the function's linked bytes (start of function
	// to the next function start, the same span internal/policy/liblink
	// hashes).
	Fn [sha256.Size]byte
	// Module is the module's memo fingerprint (policy.Memoizable).
	Module [sha256.Size]byte
}

// DefaultEntries is the LRU capacity used when Config.Entries is zero.
const DefaultEntries = 1 << 16

// Config configures a Cache.
type Config struct {
	// Entries bounds the in-process LRU; 0 means DefaultEntries.
	Entries int
}

// Stats is a point-in-time snapshot of cache metrics.
type Stats struct {
	Hits      uint64 `json:"hits"`
	Misses    uint64 `json:"misses"`
	Evictions uint64 `json:"evictions"`
	Entries   int    `json:"entries"`
	// Bytes is the resident payload bytes (keys excluded).
	Bytes uint64 `json:"bytes"`
}

// Cache is the process-wide function-result cache: a sharded bounded LRU.
// It is safe for concurrent use; payloads returned by Get are shared and
// must not be mutated.
type Cache struct {
	shards [numShards]shard

	hits, misses, evictions, bytes atomic.Uint64
}

// Open builds the cache. It never fails; the error result keeps the
// constructor's signature stable for callers.
func Open(cfg Config) (*Cache, error) {
	entries := cfg.Entries
	if entries <= 0 {
		entries = DefaultEntries
	}
	c := &Cache{}
	perShard := (entries + numShards - 1) / numShards
	if perShard < 1 {
		perShard = 1
	}
	for i := range c.shards {
		c.shards[i].init(perShard)
	}
	return c, nil
}

// Get returns the memoized payload for k. The returned slice is shared:
// callers must treat it as read-only.
func (c *Cache) Get(k Key) ([]byte, bool) {
	payload, ok := c.shards[shardOf(k)].get(k)
	if ok {
		c.hits.Add(1)
	} else {
		c.misses.Add(1)
	}
	return payload, ok
}

// Put memoizes a passing outcome, evicting the least recently used entry of
// the key's shard at capacity.
func (c *Cache) Put(k Key, payload []byte) {
	added, evictedBytes, evicted := c.shards[shardOf(k)].put(k, payload)
	if !added {
		return
	}
	c.bytes.Add(uint64(len(payload)))
	if evicted > 0 {
		c.bytes.Add(^(evictedBytes - 1)) // atomic subtract
		c.evictions.Add(uint64(evicted))
	}
}

// Len returns the number of resident entries.
func (c *Cache) Len() int {
	n := 0
	for i := range c.shards {
		n += c.shards[i].len()
	}
	return n
}

// Stats snapshots the cache metrics.
func (c *Cache) Stats() Stats {
	return Stats{
		Hits:      c.hits.Load(),
		Misses:    c.misses.Load(),
		Evictions: c.evictions.Load(),
		Entries:   c.Len(),
		Bytes:     c.bytes.Load(),
	}
}

// Close releases nothing: the cache holds no file or connection. It is
// kept, returning nil, so existing callers compile unchanged.
func (c *Cache) Close() error { return nil }

// numShards spreads lock contention across gateway workers; keys are
// uniform (SHA-256), so the low byte balances shards well.
const numShards = 16

func shardOf(k Key) int { return int(k.Fn[0]) % numShards }

// shard is one LRU shard: an intrusive doubly-linked recency list over map
// entries, bounded at max entries.
type shard struct {
	mu      sync.Mutex
	max     int
	entries map[Key]*lruEntry
	head    *lruEntry // most recently used
	tail    *lruEntry // least recently used
}

type lruEntry struct {
	key        Key
	payload    []byte
	prev, next *lruEntry
}

func (s *shard) init(max int) {
	s.max = max
	s.entries = make(map[Key]*lruEntry, max)
}

func (s *shard) get(k Key) ([]byte, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	e, ok := s.entries[k]
	if !ok {
		return nil, false
	}
	s.moveToFront(e)
	return e.payload, true
}

// put inserts k; added is false when the key was already resident (the
// entry is refreshed, not replaced). evictedBytes/evicted describe the
// entries dropped to make room.
func (s *shard) put(k Key, payload []byte) (added bool, evictedBytes uint64, evicted int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if e, ok := s.entries[k]; ok {
		s.moveToFront(e)
		return false, 0, 0
	}
	e := &lruEntry{key: k, payload: payload}
	s.entries[k] = e
	s.pushFront(e)
	for len(s.entries) > s.max {
		old := s.tail
		s.unlink(old)
		delete(s.entries, old.key)
		evictedBytes += uint64(len(old.payload))
		evicted++
	}
	return true, evictedBytes, evicted
}

func (s *shard) len() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.entries)
}

func (s *shard) pushFront(e *lruEntry) {
	e.prev = nil
	e.next = s.head
	if s.head != nil {
		s.head.prev = e
	}
	s.head = e
	if s.tail == nil {
		s.tail = e
	}
}

func (s *shard) unlink(e *lruEntry) {
	if e.prev != nil {
		e.prev.next = e.next
	} else {
		s.head = e.next
	}
	if e.next != nil {
		e.next.prev = e.prev
	} else {
		s.tail = e.prev
	}
	e.prev, e.next = nil, nil
}

func (s *shard) moveToFront(e *lruEntry) {
	if s.head == e {
		return
	}
	s.unlink(e)
	s.pushFront(e)
}
