package memo

import (
	"bytes"
	"crypto/sha256"
	"fmt"
	"testing"
)

// keyIn builds a distinct key landing in the given shard, so eviction
// tests can exercise one shard's LRU deterministically.
func keyIn(shard int, n int) Key {
	var k Key
	k.Fn = sha256.Sum256([]byte(fmt.Sprintf("fn-%d", n)))
	k.Fn[0] = byte(shard) // shardOf reads only the first byte
	k.Module = sha256.Sum256([]byte("mod"))
	return k
}

func TestGetPutRoundTrip(t *testing.T) {
	c, err := Open(Config{Entries: 64})
	if err != nil {
		t.Fatal(err)
	}
	k := keyIn(3, 1)
	if _, ok := c.Get(k); ok {
		t.Fatal("hit on empty cache")
	}
	c.Put(k, []byte{1, 2, 3})
	got, ok := c.Get(k)
	if !ok || !bytes.Equal(got, []byte{1, 2, 3}) {
		t.Fatalf("Get = %v, %v; want payload back", got, ok)
	}
	st := c.Stats()
	if st.Hits != 1 || st.Misses != 1 || st.Entries != 1 || st.Bytes != 3 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestLRUEvictionOrder(t *testing.T) {
	// numShards shards, 2 entries each → per-shard capacity 2 when
	// Entries = 2 * numShards.
	c, err := Open(Config{Entries: 2 * numShards})
	if err != nil {
		t.Fatal(err)
	}
	a, b, d := keyIn(5, 1), keyIn(5, 2), keyIn(5, 3)
	c.Put(a, []byte("aa"))
	c.Put(b, []byte("bb"))
	// Touch a so b becomes least recently used, then overflow the shard.
	if _, ok := c.Get(a); !ok {
		t.Fatal("a should be resident")
	}
	c.Put(d, []byte("dd"))
	if _, ok := c.Get(b); ok {
		t.Fatal("b was most stale and should have been evicted")
	}
	if _, ok := c.Get(a); !ok {
		t.Fatal("a was recently used and should survive")
	}
	if _, ok := c.Get(d); !ok {
		t.Fatal("d was just inserted and should survive")
	}
	st := c.Stats()
	if st.Evictions != 1 {
		t.Fatalf("evictions = %d, want 1", st.Evictions)
	}
	if st.Bytes != 4 { // "aa" + "dd"
		t.Fatalf("resident bytes = %d, want 4", st.Bytes)
	}
}

func TestPutExistingRefreshesRecency(t *testing.T) {
	c, err := Open(Config{Entries: 2 * numShards})
	if err != nil {
		t.Fatal(err)
	}
	a, b, d := keyIn(7, 1), keyIn(7, 2), keyIn(7, 3)
	c.Put(a, []byte("a"))
	c.Put(b, []byte("b"))
	c.Put(a, []byte("a")) // refresh, not duplicate
	if n := c.Len(); n != 2 {
		t.Fatalf("Len = %d after duplicate Put, want 2", n)
	}
	c.Put(d, []byte("d"))
	if _, ok := c.Get(b); ok {
		t.Fatal("b should have been evicted (a was refreshed by Put)")
	}
}
