// The remote tier: cross-node sharing of memoized function outcomes over a
// small HTTP(S) batch protocol. The memo keys are SHA-256 content
// addresses, so an entry computed on any node is valid on every node — the
// fleet property ROADMAP item 2 builds on — and the only things that ever
// cross the wire are function digests, module fingerprints and the
// module-private revalidation payloads: never function bytes.
//
// Wire format (both directions) reuses the disk log's record encoding —
// magic header, length-prefixed records, per-record CRC — so the transfer
// decoder is the same corruption-tolerant, fuzz-hardened code path as the
// disk replay, and a byte-flipping peer is detected by checksum instead of
// being believed:
//
//	POST <peer>/get  body: "EGMQ\x00\x00\x00\x01" count(u32 BE) count×(Fn(32) Module(32))
//	                 resp: diskMagic record*          (records found on the peer)
//	POST <peer>/put  body: diskMagic record*
//	                 resp: 204
//
// The tier sits between the in-process LRU and the disk log and is fully
// optional: it is consulted in one batch per (module × provisioning) after
// the local probe, and a flaky peer can never corrupt or block a local
// provision — gets are bounded by a request timeout and guarded by the
// same consecutive-failure circuit breaker as the disk tier, puts are
// queued and flushed off the provisioning path (dropped, never blocking,
// when the queue is full or the breaker is open), and a response whose
// records fail their CRC counts as a peer fault that trips the breaker.
package memo

import (
	"bytes"
	"context"
	"encoding/binary"
	"fmt"
	"io"
	"net/http"
	"strings"
	"sync"
	"time"
)

// getMagic identifies (and versions) a batch-get request body.
var getMagic = [8]byte{'E', 'G', 'M', 'Q', 0, 0, 0, 1}

// Remote-tier bounds and defaults.
const (
	// DefaultRemoteTimeout bounds one peer round-trip; a slow peer must
	// never stall a provision longer than this.
	DefaultRemoteTimeout = 250 * time.Millisecond
	// DefaultRemotePutQueue bounds records waiting for the background
	// flusher; overflow is dropped, never blocked on.
	DefaultRemotePutQueue = 1024
	// maxBatchKeys bounds one get request; a provisioning probes one batch
	// per module, and images have thousands of functions, not millions.
	maxBatchKeys = 1 << 16
	// maxRemoteBody bounds a request or response body on both sides.
	maxRemoteBody = 16 << 20
	// putFlushBatch is the most records one background put carries.
	putFlushBatch = 256
)

// RemoteConfig configures the remote (peer) tier of a Cache.
type RemoteConfig struct {
	// Peers are base URLs of peer /memoz endpoints (e.g.
	// "http://10.0.0.2:7780/memoz"). Empty disables the tier. Gets try
	// peers in rotating order until one answers; puts go to the next peer
	// in the rotation.
	Peers []string
	// Timeout bounds one peer round-trip. 0 means DefaultRemoteTimeout.
	Timeout time.Duration
	// BreakerThreshold / ReprobeInterval configure the tier's circuit
	// breaker, with the same semantics and defaults as the disk tier's.
	BreakerThreshold int
	ReprobeInterval  time.Duration
	// PutQueue bounds records waiting to be flushed to a peer. 0 means
	// DefaultRemotePutQueue; negative disables remote puts (get-only).
	PutQueue int
	// Client overrides the HTTP client (fault injection in tests wraps the
	// transport's connections in faults.ChaosConn); nil builds one from
	// Timeout.
	Client *http.Client
}

// remoteTier is the peer client behind its circuit breaker.
type remoteTier struct {
	peers   []string
	client  *http.Client
	timeout time.Duration // per-round-trip deadline, enforced via request context

	mu  sync.Mutex
	brk breaker
	rr  int // next peer to try first

	hits       uint64 // records fetched from peers
	misses     uint64 // keys a peer batch did not return
	faults     uint64 // failed round-trips and corrupt responses
	skipped    uint64 // gets and put flushes dropped while the breaker was open
	puts       uint64 // records flushed to peers
	putDropped uint64 // records dropped because the put queue was full

	putCh     chan Record // nil when puts are disabled
	flushDone chan struct{}
	closeOnce sync.Once
}

func newRemoteTier(cfg RemoteConfig) *remoteTier {
	timeout := cfg.Timeout
	if timeout <= 0 {
		timeout = DefaultRemoteTimeout
	}
	client := cfg.Client
	if client == nil {
		client = &http.Client{Timeout: timeout}
	}
	r := &remoteTier{
		peers:   append([]string(nil), cfg.Peers...),
		client:  client,
		timeout: timeout,
		brk:     newBreaker(cfg.BreakerThreshold, cfg.ReprobeInterval),
	}
	for i, p := range r.peers {
		r.peers[i] = strings.TrimRight(p, "/")
	}
	queue := cfg.PutQueue
	if queue == 0 {
		queue = DefaultRemotePutQueue
	}
	if queue > 0 {
		r.putCh = make(chan Record, queue)
		r.flushDone = make(chan struct{})
		go r.flushLoop()
	}
	return r
}

// allow consults the breaker; the caller must report the attempt's outcome
// through done when ok.
func (r *remoteTier) allow() bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	ok, _ := r.brk.allow()
	if !ok {
		r.skipped++
	}
	return ok
}

func (r *remoteTier) done(err error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if err != nil {
		r.faults++
		r.brk.failure()
		return
	}
	r.brk.success()
}

// nextPeer rotates the starting peer so load (and put traffic) spreads.
func (r *remoteTier) nextPeer() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	i := r.rr
	r.rr = (r.rr + 1) % len(r.peers)
	return i
}

// fetch asks the peers for keys in one batch and returns the records
// found. Only records whose key was actually requested are returned; a
// response that fails its magic or any record CRC counts as a peer fault.
// fetch never returns an error — remote trouble is a miss, not a failure.
func (r *remoteTier) fetch(keys []Key) []Record {
	if len(keys) == 0 || len(keys) > maxBatchKeys || !r.allow() {
		return nil
	}
	body := make([]byte, 0, len(getMagic)+4+len(keys)*keyBytes)
	body = append(body, getMagic[:]...)
	var n [4]byte
	binary.BigEndian.PutUint32(n[:], uint32(len(keys)))
	body = append(body, n[:]...)
	wanted := make(map[Key]struct{}, len(keys))
	for _, k := range keys {
		body = append(body, k.Fn[:]...)
		body = append(body, k.Module[:]...)
		wanted[k] = struct{}{}
	}

	start := r.nextPeer()
	var lastErr error
	for i := 0; i < len(r.peers); i++ {
		peer := r.peers[(start+i)%len(r.peers)]
		recs, err := r.getOnce(peer, body)
		if err != nil {
			lastErr = err
			continue
		}
		out := recs[:0]
		for _, rec := range recs {
			if _, ok := wanted[rec.Key]; ok {
				out = append(out, rec)
			}
		}
		r.mu.Lock()
		r.hits += uint64(len(out))
		r.misses += uint64(len(keys) - len(out))
		r.mu.Unlock()
		r.done(nil)
		return out
	}
	r.done(fmt.Errorf("memo: all %d peers failed: %w", len(r.peers), lastErr))
	return nil
}

// post performs one bounded round-trip. The deadline rides on the request
// context rather than the client, so even a caller-supplied *http.Client
// (fault injection, custom transports) cannot let a wedged peer block a
// local provision past the tier's timeout. The returned cancel must be
// called after the response body has been consumed.
func (r *remoteTier) post(url string, body []byte) (*http.Response, context.CancelFunc, error) {
	ctx, cancel := context.WithTimeout(context.Background(), r.timeout)
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, url, bytes.NewReader(body))
	if err != nil {
		cancel()
		return nil, nil, err
	}
	req.Header.Set("Content-Type", "application/octet-stream")
	resp, err := r.client.Do(req)
	if err != nil {
		cancel()
		return nil, nil, err
	}
	return resp, cancel, nil
}

func (r *remoteTier) getOnce(peer string, body []byte) ([]Record, error) {
	resp, cancel, err := r.post(peer+"/get", body)
	if err != nil {
		return nil, err
	}
	defer cancel()
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("memo: peer %s: status %d", peer, resp.StatusCode)
	}
	data, err := io.ReadAll(io.LimitReader(resp.Body, maxRemoteBody+1))
	if err != nil {
		return nil, err
	}
	if len(data) > maxRemoteBody {
		return nil, fmt.Errorf("memo: peer %s: oversized response", peer)
	}
	var recs []Record
	_, good := LoadCacheRecords(data, func(k Key, payload []byte) {
		recs = append(recs, Record{Key: k, Payload: payload})
	})
	// Trailing garbage means a corrupt (or byte-flipped) response: the valid
	// prefix is still discarded — a peer that cannot frame its response
	// cannot be trusted to have framed the records either, and a miss is
	// always sound. A peer frames even an empty answer with the magic, so
	// an empty body (a Content-Length flipped to 0) is corrupt too, not a
	// healthy miss.
	if good == 0 || good != int64(len(data)) {
		return nil, fmt.Errorf("memo: peer %s: corrupt response (%d of %d bytes valid)", peer, good, len(data))
	}
	return recs, nil
}

// enqueuePut hands a freshly memoized record to the background flusher.
// Never blocks: a full queue drops the record (a future remote miss).
func (r *remoteTier) enqueuePut(rec Record) {
	if r.putCh == nil {
		return
	}
	select {
	case r.putCh <- rec:
	default:
		r.mu.Lock()
		r.putDropped++
		r.mu.Unlock()
	}
}

// flushLoop drains the put queue in batches, entirely off the provisioning
// path. The breaker gates every flush, so a dead peer costs one bounded
// round-trip per probe interval, not one per Put.
func (r *remoteTier) flushLoop() {
	defer close(r.flushDone)
	for rec, ok := <-r.putCh; ok; rec, ok = <-r.putCh {
		batch := []Record{rec}
		for len(batch) < putFlushBatch {
			select {
			case more, open := <-r.putCh:
				if !open {
					r.flush(batch)
					return
				}
				batch = append(batch, more)
			default:
				goto drained
			}
		}
	drained:
		r.flush(batch)
	}
}

func (r *remoteTier) flush(batch []Record) {
	if !r.allow() {
		return
	}
	body := make([]byte, 0, 1024)
	body = append(body, diskMagic[:]...)
	for _, rec := range batch {
		if len(rec.Payload) > maxRecordBody-keyBytes {
			continue
		}
		body = AppendRecord(body, rec.Key, rec.Payload)
	}
	peer := r.peers[r.nextPeer()]
	resp, cancel, err := r.post(peer+"/put", body)
	if err != nil {
		r.done(err)
		return
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	cancel()
	if resp.StatusCode != http.StatusNoContent && resp.StatusCode != http.StatusOK {
		r.done(fmt.Errorf("memo: peer %s: put status %d", peer, resp.StatusCode))
		return
	}
	r.mu.Lock()
	r.puts += uint64(len(batch))
	r.mu.Unlock()
	r.done(nil)
}

func (r *remoteTier) fillStats(st *Stats) {
	r.mu.Lock()
	defer r.mu.Unlock()
	st.RemoteHits = r.hits
	st.RemoteMisses = r.misses
	st.RemoteFaults = r.faults
	st.RemoteSkipped = r.skipped
	st.RemoteTrips = r.brk.trips
	st.RemoteOpen = r.brk.open
	st.RemotePuts = r.puts
	st.RemotePutDropped = r.putDropped
}

// close stops the flusher after draining what is already queued.
func (r *remoteTier) close() {
	r.closeOnce.Do(func() {
		if r.putCh != nil {
			close(r.putCh)
			<-r.flushDone
		}
	})
}

//
// Server side: the /memoz handler a gatewayd mounts so peers can get/put
// against its cache.
//

// Handler serves the remote-tier protocol over c: mount it at /memoz (the
// handler routes on the trailing path element, so any prefix works).
// GET-side lookups touch the LRU recency but are metered separately from
// local hits/misses, keeping the cache's own hit rate meaningful.
func Handler(c *Cache) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		if req.Method != http.MethodPost {
			http.Error(w, "POST only", http.StatusMethodNotAllowed)
			return
		}
		switch {
		case strings.HasSuffix(req.URL.Path, "/get"):
			c.servePeerGet(w, req)
		case strings.HasSuffix(req.URL.Path, "/put"):
			c.servePeerPut(w, req)
		default:
			http.NotFound(w, req)
		}
	})
}

func (c *Cache) servePeerGet(w http.ResponseWriter, req *http.Request) {
	body, err := io.ReadAll(io.LimitReader(req.Body, maxRemoteBody+1))
	if err != nil || len(body) > maxRemoteBody {
		http.Error(w, "bad request body", http.StatusBadRequest)
		return
	}
	if len(body) < len(getMagic)+4 || !bytes.Equal(body[:len(getMagic)], getMagic[:]) {
		http.Error(w, "bad get magic", http.StatusBadRequest)
		return
	}
	n := binary.BigEndian.Uint32(body[len(getMagic):])
	rest := body[len(getMagic)+4:]
	if n > maxBatchKeys || int(n)*keyBytes != len(rest) {
		http.Error(w, "bad key count", http.StatusBadRequest)
		return
	}
	c.peerGets.Add(1)
	out := make([]byte, 0, 4096)
	out = append(out, diskMagic[:]...)
	var served uint64
	for i := 0; i < int(n); i++ {
		var k Key
		copy(k.Fn[:], rest[i*keyBytes:])
		copy(k.Module[:], rest[i*keyBytes+32:])
		if payload, ok := c.peek(k); ok {
			out = AppendRecord(out, k, payload)
			served++
		}
	}
	c.peerServed.Add(served)
	w.Header().Set("Content-Type", "application/octet-stream")
	_, _ = w.Write(out)
}

func (c *Cache) servePeerPut(w http.ResponseWriter, req *http.Request) {
	body, err := io.ReadAll(io.LimitReader(req.Body, maxRemoteBody+1))
	if err != nil || len(body) > maxRemoteBody {
		http.Error(w, "bad request body", http.StatusBadRequest)
		return
	}
	// Decode-then-commit, unlike the disk replay's salvage-the-prefix: a
	// peer whose batch is torn or flipped anywhere gets the whole batch
	// rejected — the CRC-valid prefix of a mangled body is not evidence the
	// sender framed anything correctly, and a dropped put is always sound.
	var recs []Record
	loaded, good := LoadCacheRecords(body, func(k Key, payload []byte) {
		recs = append(recs, Record{Key: k, Payload: payload})
	})
	if good != int64(len(body)) || loaded == 0 && len(body) > len(diskMagic) {
		http.Error(w, "corrupt record batch", http.StatusBadRequest)
		return
	}
	// Peer-pushed records stay memory-only — each node's disk log records
	// what that node computed or was explicitly handed.
	var stored uint64
	for _, rec := range recs {
		if c.insert(rec.Key, rec.Payload, false) {
			stored++
		}
	}
	c.peerStored.Add(stored)
	w.WriteHeader(http.StatusNoContent)
}

// peek is a stats-neutral Get for peer-serving lookups, so serving the
// fleet does not distort this node's own hit rate.
func (c *Cache) peek(k Key) ([]byte, bool) {
	return c.shards[shardOf(k)].get(k)
}
