package cluster

import (
	"context"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"engarde"
	"engarde/internal/obs"
	"engarde/internal/secchan"
)

// Router defaults for RouterConfig fields left zero.
const (
	DefaultPeekTimeout    = 200 * time.Millisecond
	DefaultDialTimeout    = 2 * time.Second
	DefaultHelloTimeout   = 5 * time.Second
	DefaultHealthInterval = time.Second
)

// Backend is one gatewayd the router can proxy sessions to.
type Backend struct {
	// Name is the stable ring identity — it, not the address, determines
	// digest ownership, so an address change does not reshuffle caches.
	Name string
	// Addr is the host:port of the gatewayd session listener.
	Addr string
	// AdminURL, when non-empty, is the base URL of the gatewayd admin mux;
	// the router's health prober GETs AdminURL+"/readyz".
	AdminURL string
}

// RouterConfig configures a Router.
type RouterConfig struct {
	// Backends is the initial fleet membership.
	Backends []Backend
	// Vnodes per backend on the ring; 0 means DefaultVnodes.
	Vnodes int
	// PeekTimeout bounds how long the router waits for a client's routing
	// preamble before falling back to least-loaded routing.
	PeekTimeout time.Duration
	// DialTimeout bounds one backend dial.
	DialTimeout time.Duration
	// RetryAfterHint is the Retry-After the router sheds with when it has
	// no backend hint to forward (quota denials use the quota's own wait).
	// 0 means engarde's gateway default.
	RetryAfterHint time.Duration
	// HealthInterval is the background /readyz probe period; it only
	// matters for backends with an AdminURL. 0 means
	// DefaultHealthInterval; negative disables the prober (dial results
	// still mark backends down).
	HealthInterval time.Duration
	// ProbeTimeout bounds one /readyz probe; a wedged backend costs one
	// probe timeout, never the prober loop. 0 means DefaultProbeTimeout.
	ProbeTimeout time.Duration
	// MarkdownCooldown is how long a failed backend stays skipped; 0 means
	// DefaultMarkdownCooldown.
	MarkdownCooldown time.Duration
	// Quota configures per-tenant admission; zero disables quotas.
	Quota QuotaConfig
	// TraceSink, when set, receives one "route" trace per handled
	// connection: peek, per-candidate dial/hello/splice spans tagged with
	// backend and attempt, and shed outcomes. A client that announced a
	// trace context in its preamble gets its ID adopted, so the router's
	// spans join the client's cross-process trace.
	TraceSink *obs.Sink
	// Logf, when set, receives routing-path diagnostics.
	Logf func(format string, args ...any)
}

// Router is the L4 fleet front door: it accepts client connections, peeks
// the optional RouteHello preamble for the session's image digest, and
// splices the raw secchan byte stream to the digest's ring owner. The
// router never joins the enclave protocol — it cannot: the channel's
// session key is wrapped to the backend enclave — it only reads the one
// plaintext preamble frame and the backend's first hello frame (to spot
// Busy sheds and fail over).
type Router struct {
	cfg      RouterConfig
	ring     *Ring
	health   *Health
	quotas   *Quotas
	backends map[string]Backend

	reg     *obs.Registry
	metrics routerMetrics

	ready    atomic.Bool
	draining atomic.Bool
	rrSeq    atomic.Uint64 // least-loaded tie-break rotation

	mu        sync.Mutex
	listeners map[net.Listener]struct{}
	conns     map[net.Conn]struct{}
	splices   map[string]map[*spliceHandle]struct{} // in-flight splices by backend
	shutdown  bool

	connWG     sync.WaitGroup
	proberOnce sync.Once
	proberStop chan struct{}
	proberDone chan struct{}
}

// routerMetrics is the router's obs instrument set (satellite: router
// metrics in internal/obs).
type routerMetrics struct {
	sessions map[string]*obs.Counter // per-backend sessions proxied
	active   map[string]*obs.Gauge   // per-backend sessions in flight
	errors   map[string]*obs.Counter // per-backend dial/proxy errors

	sheds          map[string]*obs.Counter // by reason
	rebalances     *obs.Counter
	announced      *obs.Counter
	affine         *obs.Counter
	failovers      *obs.Counter
	splicesEvicted *obs.Counter

	bytesC2B *obs.Histogram
	bytesB2C *obs.Histogram
}

// Shed reasons (the label values of engarde_router_sheds_total).
const (
	ShedQuota       = "quota"
	ShedDeadline    = "deadline"
	ShedBackendBusy = "backend_busy"
	ShedBackendDown = "backend_down"
	ShedDraining    = "draining"
)

var shedReasons = []string{ShedQuota, ShedDeadline, ShedBackendBusy, ShedBackendDown, ShedDraining}

// NewRouter builds a router over the configured backends.
func NewRouter(cfg RouterConfig) (*Router, error) {
	if len(cfg.Backends) == 0 {
		return nil, errors.New("cluster: router needs at least one backend")
	}
	if cfg.PeekTimeout <= 0 {
		cfg.PeekTimeout = DefaultPeekTimeout
	}
	if cfg.DialTimeout <= 0 {
		cfg.DialTimeout = DefaultDialTimeout
	}
	if cfg.HealthInterval == 0 {
		cfg.HealthInterval = DefaultHealthInterval
	}
	r := &Router{
		cfg:       cfg,
		ring:      NewRing(cfg.Vnodes),
		health:    NewHealth(cfg.MarkdownCooldown),
		quotas:    NewQuotas(cfg.Quota),
		backends:  make(map[string]Backend, len(cfg.Backends)),
		reg:       obs.NewRegistry(),
		listeners: make(map[net.Listener]struct{}),
		conns:     make(map[net.Conn]struct{}),
		splices:   make(map[string]map[*spliceHandle]struct{}),
	}
	r.health.SetProbeTimeout(cfg.ProbeTimeout)
	for _, b := range cfg.Backends {
		if b.Name == "" || b.Addr == "" {
			return nil, fmt.Errorf("cluster: backend needs name and addr: %+v", b)
		}
		if _, dup := r.backends[b.Name]; dup {
			return nil, fmt.Errorf("cluster: duplicate backend name %q", b.Name)
		}
		r.backends[b.Name] = b
		r.ring.Add(b.Name)
	}
	r.initMetrics()
	if cfg.HealthInterval > 0 {
		r.proberStop = make(chan struct{})
		r.proberDone = make(chan struct{})
		go r.probeLoop()
	}
	return r, nil
}

func (r *Router) initMetrics() {
	m := &r.metrics
	m.sessions = make(map[string]*obs.Counter, len(r.backends))
	m.active = make(map[string]*obs.Gauge, len(r.backends))
	m.errors = make(map[string]*obs.Counter, len(r.backends))
	names := r.ring.Members()
	for i, name := range names {
		help, activeHelp, errHelp := "", "", ""
		if i == 0 {
			help = "Sessions proxied to each backend."
			activeHelp = "Sessions currently spliced to each backend."
			errHelp = "Dial and proxy failures per backend."
		}
		m.sessions[name] = r.reg.Counter("engarde_router_sessions_total", help,
			obs.Label{Key: "backend", Value: name})
		m.active[name] = r.reg.Gauge("engarde_router_sessions_active", activeHelp,
			obs.Label{Key: "backend", Value: name})
		m.errors[name] = r.reg.Counter("engarde_router_backend_errors_total", errHelp,
			obs.Label{Key: "backend", Value: name})
	}
	m.sheds = make(map[string]*obs.Counter, len(shedReasons))
	for i, reason := range shedReasons {
		help := ""
		if i == 0 {
			help = "Sessions turned away at the router, by reason."
		}
		m.sheds[reason] = r.reg.Counter("engarde_router_sheds_total", help,
			obs.Label{Key: "reason", Value: reason})
	}
	m.rebalances = r.reg.Counter("engarde_router_rebalances_total",
		"Digest-announced sessions that landed off their ring owner (owner down or busy).")
	m.announced = r.reg.Counter("engarde_router_sessions_announced_total",
		"Sessions that carried a routing preamble with an image digest.")
	m.affine = r.reg.Counter("engarde_router_sessions_affine_total",
		"Digest-announced sessions that landed on their ring owner.")
	m.failovers = r.reg.Counter("engarde_router_failover_total",
		"Sessions served by a successor after their first candidate failed.")
	m.splicesEvicted = r.reg.Counter("engarde_router_splices_evicted_total",
		"In-flight splices reset because their backend became unreachable.")
	m.bytesC2B = r.reg.Histogram("engarde_router_proxy_bytes",
		"Bytes spliced per session, by direction.",
		obs.HistogramOpts{Buckets: 32},
		obs.Label{Key: "dir", Value: "client_to_backend"})
	m.bytesB2C = r.reg.Histogram("engarde_router_proxy_bytes", "",
		obs.HistogramOpts{Buckets: 32},
		obs.Label{Key: "dir", Value: "backend_to_client"})
	r.reg.GaugeFunc("engarde_router_ring_size",
		"Backends on the consistent-hash ring.",
		func() float64 { return float64(r.ring.Size()) })
	r.reg.GaugeFunc("engarde_router_backends_healthy",
		"Backends currently considered routable.",
		func() float64 { return float64(r.health.CountHealthy(r.ring.Members())) })
}

func (r *Router) logf(format string, args ...any) {
	if r.cfg.Logf != nil {
		r.cfg.Logf(format, args...)
	}
}

// retryAfterDefault is the hint used when the router sheds with nothing
// better to forward.
func (r *Router) retryAfterDefault() time.Duration {
	if r.cfg.RetryAfterHint > 0 {
		return r.cfg.RetryAfterHint
	}
	return time.Second
}

// Serve accepts and proxies connections on ln until Shutdown (or ctx
// cancellation) closes it. Like gateway.Serve, it may be called on
// several listeners concurrently.
func (r *Router) Serve(ctx context.Context, ln net.Listener) error {
	r.mu.Lock()
	if r.shutdown {
		r.mu.Unlock()
		ln.Close()
		return errors.New("cluster: router already shut down")
	}
	r.listeners[ln] = struct{}{}
	r.mu.Unlock()
	defer func() {
		r.mu.Lock()
		delete(r.listeners, ln)
		r.mu.Unlock()
	}()
	r.ready.Store(true)

	if ctx != nil {
		watchDone := make(chan struct{})
		defer close(watchDone)
		go func() {
			select {
			case <-ctx.Done():
				ln.Close()
			case <-watchDone:
			}
		}()
	}

	for {
		conn, err := ln.Accept()
		if err != nil {
			if ctx != nil && ctx.Err() != nil {
				return ctx.Err()
			}
			if r.isShutdown() {
				return nil
			}
			return err
		}
		if r.draining.Load() {
			_ = engarde.SendBusy(conn, r.retryAfterDefault())
			conn.Close()
			r.metrics.sheds[ShedDraining].Inc()
			continue
		}
		r.connWG.Add(1)
		r.trackConn(conn, true)
		go func() {
			defer r.connWG.Done()
			defer r.trackConn(conn, false)
			defer conn.Close()
			r.handleConn(conn)
		}()
	}
}

func (r *Router) trackConn(c net.Conn, add bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if add {
		r.conns[c] = struct{}{}
	} else {
		delete(r.conns, c)
	}
}

func (r *Router) isShutdown() bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.shutdown
}

// Shutdown drains the router: readiness flips to 503, listeners close,
// new connections are shed with a busy verdict, and in-flight sessions
// get until ctx expires to finish before being cut.
func (r *Router) Shutdown(ctx context.Context) error {
	r.ready.Store(false)
	r.draining.Store(true)
	r.mu.Lock()
	r.shutdown = true
	for ln := range r.listeners {
		ln.Close()
	}
	r.mu.Unlock()
	if r.proberStop != nil {
		r.proberOnce.Do(func() { close(r.proberStop) })
		<-r.proberDone
	}

	done := make(chan struct{})
	go func() {
		r.connWG.Wait()
		close(done)
	}()
	select {
	case <-done:
		return nil
	case <-ctx.Done():
		r.mu.Lock()
		for c := range r.conns {
			c.Close()
		}
		r.mu.Unlock()
		<-done
		return ctx.Err()
	}
}

// probeLoop polls each backend's /readyz on the health interval. Each
// probe carries its own deadline (Health.ProbeDetail), so one wedged
// backend delays the sweep by at most the probe timeout. An unreachable
// backend is a corpse: besides the markdown that routes new sessions
// around it within one cooldown, its in-flight splices are evicted so
// their clients get a typed reset instead of hanging until their own
// deadlines fire. A merely not-ready backend (draining) keeps its
// in-flight sessions — they will still complete.
func (r *Router) probeLoop() {
	defer close(r.proberDone)
	client := &http.Client{Timeout: r.cfg.DialTimeout}
	tick := time.NewTicker(r.cfg.HealthInterval)
	defer tick.Stop()
	for {
		select {
		case <-r.proberStop:
			return
		case <-tick.C:
		}
		for name, b := range r.backends {
			if b.AdminURL == "" {
				continue
			}
			switch r.health.ProbeDetail(client, name, b.AdminURL+"/readyz") {
			case ProbeNotReady:
				r.logf("router: backend %s not ready", name)
			case ProbeUnreachable:
				if n := r.evictSplices(name); n > 0 {
					r.logf("router: backend %s unreachable, evicted %d in-flight splices", name, n)
				} else {
					r.logf("router: backend %s unreachable", name)
				}
			}
		}
	}
}

// spliceHandle tracks one in-flight splice so the prober can reset it
// when its backend dies under it.
type spliceHandle struct {
	backend net.Conn
	evicted atomic.Bool
}

func (r *Router) registerSplice(name string, h *spliceHandle) {
	r.mu.Lock()
	defer r.mu.Unlock()
	set, ok := r.splices[name]
	if !ok {
		set = make(map[*spliceHandle]struct{})
		r.splices[name] = set
	}
	set[h] = struct{}{}
}

func (r *Router) unregisterSplice(name string, h *spliceHandle) {
	r.mu.Lock()
	defer r.mu.Unlock()
	delete(r.splices[name], h)
}

// evictSplices hard-closes the backend side of every in-flight splice to
// name. Only the backend conn is touched: the splice goroutine unblocks,
// sees the eviction, and itself sends the typed CodeBackendLost reset to
// its client — the router never writes to a client conn concurrently
// with its splice. Returns the number of splices evicted.
func (r *Router) evictSplices(name string) int {
	r.mu.Lock()
	handles := make([]*spliceHandle, 0, len(r.splices[name]))
	for h := range r.splices[name] {
		handles = append(handles, h)
	}
	r.mu.Unlock()
	n := 0
	for _, h := range handles {
		if h.evicted.CompareAndSwap(false, true) {
			h.backend.Close()
			r.metrics.splicesEvicted.Inc()
			n++
		}
	}
	return n
}

// peekPreamble reads the client's optional RouteHello within the peek
// timeout. Whatever bytes were consumed but turned out not to be a
// preamble are returned as replay, to be written to the backend verbatim.
func (r *Router) peekPreamble(conn net.Conn) (rh engarde.RouteHello, announced bool, replay []byte) {
	deadline := time.Now().Add(r.cfg.PeekTimeout)
	_ = conn.SetReadDeadline(deadline)
	defer conn.SetReadDeadline(time.Time{})

	var hdr [4]byte
	n, err := io.ReadFull(conn, hdr[:])
	if err != nil {
		return engarde.RouteHello{}, false, append([]byte(nil), hdr[:n]...)
	}
	length := binary.BigEndian.Uint32(hdr[:])
	if length == 0 || length > engarde.MaxRouteHelloBytes {
		// Too big to be a preamble: session traffic. Hand the header back.
		return engarde.RouteHello{}, false, append([]byte(nil), hdr[:]...)
	}
	body := make([]byte, length)
	bn, err := io.ReadFull(conn, body)
	consumed := append(append([]byte(nil), hdr[:]...), body[:bn]...)
	if err != nil {
		return engarde.RouteHello{}, false, consumed
	}
	rh, ok := engarde.ParseRouteHello(body)
	if !ok {
		return engarde.RouteHello{}, false, consumed
	}
	return rh, true, nil
}

// candidates returns the backends to try in order for this session, plus
// the affine owner ("" when routing by load).
func (r *Router) candidates(rh engarde.RouteHello, announced bool) (names []string, owner string) {
	if announced && rh.ImageDigest != "" {
		seq := r.ring.Sequence(rh.ImageDigest)
		if len(seq) > 0 {
			return seq, seq[0]
		}
	}
	// Least-loaded: ascending in-flight sessions, ties rotated so
	// anonymous traffic spreads instead of piling on one backend.
	names = r.ring.Members()
	if len(names) > 1 {
		rot := int(r.rrSeq.Add(1)) % len(names)
		rotated := make([]string, 0, len(names))
		rotated = append(rotated, names[rot:]...)
		rotated = append(rotated, names[:rot]...)
		names = rotated
		sort.SliceStable(names, func(i, j int) bool {
			return r.metrics.active[names[i]].Value() < r.metrics.active[names[j]].Value()
		})
	}
	return names, ""
}

// handleConn routes one client connection end to end.
func (r *Router) handleConn(conn net.Conn) {
	var tr *obs.Trace
	if r.cfg.TraceSink != nil {
		tr = obs.NewTrace("route", nil)
		defer r.cfg.TraceSink.Record(tr)
	}

	peekStart := time.Now()
	rh, announced, replay := r.peekPreamble(conn)
	tr.RecordSpan("peek-preamble", peekStart, time.Since(peekStart))
	if announced {
		// Join the client's cross-process trace. The preamble is advisory
		// plaintext, so the ID is adopted only when well-formed; the
		// gateway independently adopts the authenticated copy from the
		// wrapped session key, which the router cannot see or alter.
		if tc := rh.TraceContext(); tc.Valid() && tc.Sampled {
			tr.AdoptID(tc.TraceID)
		}
		if rh.ImageDigest != "" {
			r.metrics.announced.Inc()
		}
	}

	if ok, wait := r.quotas.Allow(rh.Tenant); !ok {
		r.metrics.sheds[ShedQuota].Inc()
		tr.RecordSpanArgs("shed", time.Now(), 0, map[string]string{"reason": ShedQuota})
		_ = engarde.SendBusy(conn, wait)
		return
	}

	names, owner := r.candidates(rh, announced)

	// Deadline-aware shedding: a backend still inside its Busy horizon
	// would shed this session anyway; if the client's deadline cannot
	// outlast every candidate's horizon, turn it away now with the
	// soonest-capacity hint instead of burning a dial to learn the same.
	if rh.DeadlineMillis > 0 {
		deadline := time.Duration(rh.DeadlineMillis) * time.Millisecond
		viable := names[:0]
		minHint := time.Duration(0)
		for _, name := range names {
			hint := r.health.SaturationHint(name)
			if hint > 0 && hint > deadline {
				if minHint == 0 || hint < minHint {
					minHint = hint
				}
				continue
			}
			viable = append(viable, name)
		}
		if len(viable) == 0 {
			r.metrics.sheds[ShedDeadline].Inc()
			tr.RecordSpanArgs("shed", time.Now(), 0, map[string]string{"reason": ShedDeadline})
			_ = engarde.SendBusy(conn, minHint)
			return
		}
		names = viable
	}

	// Prefer healthy candidates but fail open: a tracker that thinks the
	// whole fleet is down must not make it so.
	healthy := make([]string, 0, len(names))
	for _, name := range names {
		if r.health.Healthy(name) {
			healthy = append(healthy, name)
		}
	}
	if len(healthy) > 0 {
		names = healthy
	}

	var busyHint time.Duration // largest Retry-After seen from a busy backend
	sawBusy := false
	for idx, name := range names {
		backend := r.backends[name]
		served, busy, hint := r.trySession(conn, backend, replay, owner, announced, tr, idx+1)
		if served {
			if idx > 0 {
				// A successor took the session after earlier candidates
				// failed to (dial error, dead hello, or busy shed).
				r.metrics.failovers.Inc()
				tr.RecordSpanArgs("failover", time.Now(), 0, map[string]string{
					"backend": name, "candidate": strconv.Itoa(idx + 1)})
			}
			return
		}
		if busy {
			sawBusy = true
			if hint > busyHint {
				busyHint = hint
			}
			r.health.MarkSaturated(name, hint)
		} else {
			r.health.MarkDown(name)
		}
		if announced && name == owner {
			r.metrics.rebalances.Inc()
		}
	}

	// Every candidate failed. Shedding on behalf of a saturated backend
	// forwards the backend's own Retry-After hint — never the router
	// default (gateway.Config.RetryAfterHint propagation fix).
	if sawBusy {
		r.metrics.sheds[ShedBackendBusy].Inc()
		tr.RecordSpanArgs("shed", time.Now(), 0, map[string]string{"reason": ShedBackendBusy})
		_ = engarde.SendBusy(conn, busyHint)
		return
	}
	r.metrics.sheds[ShedBackendDown].Inc()
	tr.RecordSpanArgs("shed", time.Now(), 0, map[string]string{"reason": ShedBackendDown})
	_ = engarde.SendBusy(conn, r.retryAfterDefault())
}

// trySession dials one backend and, if it accepts, splices the session.
// served means the session ran (well or badly) on this backend; busy
// means the backend shed it with the returned Retry-After hint. tr, when
// tracing, collects dial/hello-wait/splice spans tagged with the backend
// name and this candidate's 1-based position in the failover order.
func (r *Router) trySession(conn net.Conn, backend Backend, replay []byte, owner string, announced bool, tr *obs.Trace, candidate int) (served, busy bool, hint time.Duration) {
	tags := map[string]string{"backend": backend.Name, "candidate": strconv.Itoa(candidate)}
	dsp := tr.StartSpanArgs("dial", tags)
	bc, err := net.DialTimeout("tcp", backend.Addr, r.cfg.DialTimeout)
	if err != nil {
		dsp.SetArg("outcome", "error")
		dsp.End()
		r.metrics.errors[backend.Name].Inc()
		r.logf("router: dial %s (%s): %v", backend.Name, backend.Addr, err)
		return false, false, 0
	}
	dsp.End()
	defer bc.Close()

	// Replay any client bytes the preamble peek consumed, then read the
	// backend's opening hello to learn whether the session was admitted.
	if len(replay) > 0 {
		if _, err := bc.Write(replay); err != nil {
			r.metrics.errors[backend.Name].Inc()
			return false, false, 0
		}
	}
	hsp := tr.StartSpanArgs("hello-wait", tags)
	_ = bc.SetReadDeadline(time.Now().Add(DefaultHelloTimeout))
	helloFrame, err := secchan.ReadBlock(bc)
	_ = bc.SetReadDeadline(time.Time{})
	if err != nil {
		hsp.SetArg("outcome", "error")
		hsp.End()
		r.metrics.errors[backend.Name].Inc()
		r.logf("router: hello from %s: %v", backend.Name, err)
		return false, false, 0
	}
	if v, isBusy := engarde.PeekBusy(helloFrame); isBusy {
		hsp.SetArg("outcome", "busy")
		hsp.End()
		return false, true, time.Duration(v.RetryAfterMillis) * time.Millisecond
	}
	hsp.End()

	// Admitted: this session belongs to backend now. Forward the hello and
	// splice the rest of the byte stream both ways.
	r.metrics.sessions[backend.Name].Inc()
	if announced && owner != "" && backend.Name == owner {
		r.metrics.affine.Inc()
	}
	active := r.metrics.active[backend.Name]
	active.Inc()
	defer active.Dec()

	if err := secchan.WriteBlock(conn, helloFrame); err != nil {
		return true, false, 0
	}
	handle := &spliceHandle{backend: bc}
	r.registerSplice(backend.Name, handle)
	defer r.unregisterSplice(backend.Name, handle)
	ssp := tr.StartSpanArgs("splice", tags)
	c2b, b2c, backendDied := r.splice(conn, bc, backend.Name, handle)
	if backendDied {
		ssp.SetArg("outcome", "backend-lost")
	}
	ssp.End()
	if backendDied && !handle.evicted.Load() {
		// The backend side of the splice died on its own (crash, reset) —
		// the prober didn't do it. Mark it down so new sessions route
		// around the corpse within one cooldown.
		r.metrics.errors[backend.Name].Inc()
		r.health.MarkDown(backend.Name)
	}
	r.metrics.bytesC2B.Observe(uint64(len(replay)) + c2b)
	r.metrics.bytesB2C.Observe(uint64(len(helloFrame)+4) + b2c)
	return true, false, 0
}

// splice copies both directions until either side closes, returning the
// raw byte counts of each direction (the replayed preamble bytes and the
// already-forwarded hello are added back by the caller) and whether the
// backend side died before cleanly finishing. On a backend death —
// spontaneous or evicted by the prober — the client receives a typed
// CodeBackendLost verdict in place of the one the backend never sent, so
// it can replay the session against the next owner instead of diagnosing
// a bare connection reset. The reset frame is written by this goroutine
// only, after its copy loop has ended: nothing else ever writes to the
// client conn, so the frame cannot interleave with spliced bytes.
func (r *Router) splice(client, backend net.Conn, name string, h *spliceHandle) (c2b, b2c uint64, backendDied bool) {
	var up, down int64
	done := make(chan struct{})
	go func() {
		defer close(done)
		up, _ = io.Copy(backend, client)
		// Client finished sending (or died): push the EOF through so the
		// backend's read side unblocks.
		if tc, ok := backend.(*net.TCPConn); ok {
			_ = tc.CloseWrite()
		}
	}()
	var derr error
	down, derr = io.Copy(client, backend)
	backendDied = derr != nil || h.evicted.Load()
	if backendDied {
		_ = engarde.SendBackendLost(client,
			"backend "+name+" lost mid-session", r.retryAfterDefault())
	}
	if tc, ok := client.(*net.TCPConn); ok {
		_ = tc.CloseWrite()
	}
	<-done
	return uint64(up), uint64(down), backendDied
}

// RouterStats is the JSON shape served at the router's /statsz.
type RouterStats struct {
	Backends       map[string]BackendStats `json:"backends"`
	Sheds          map[string]uint64       `json:"sheds"`
	Rebalances     uint64                  `json:"rebalances"`
	Announced      uint64                  `json:"announced"`
	Affine         uint64                  `json:"affine"`
	Failovers      uint64                  `json:"failovers"`
	SplicesEvicted uint64                  `json:"splices_evicted"`
	RingSize       int                     `json:"ring_size"`
	Healthy        int                     `json:"healthy"`
}

// BackendStats is one backend's slice of RouterStats.
type BackendStats struct {
	Sessions uint64 `json:"sessions"`
	Active   int64  `json:"active"`
	Errors   uint64 `json:"errors"`
}

// Stats snapshots the router counters.
func (r *Router) Stats() RouterStats {
	st := RouterStats{
		Backends:       make(map[string]BackendStats, len(r.backends)),
		Sheds:          make(map[string]uint64, len(shedReasons)),
		Rebalances:     r.metrics.rebalances.Value(),
		Announced:      r.metrics.announced.Value(),
		Affine:         r.metrics.affine.Value(),
		Failovers:      r.metrics.failovers.Value(),
		SplicesEvicted: r.metrics.splicesEvicted.Value(),
		RingSize:       r.ring.Size(),
		Healthy:        r.health.CountHealthy(r.ring.Members()),
	}
	for name := range r.backends {
		st.Backends[name] = BackendStats{
			Sessions: r.metrics.sessions[name].Value(),
			Active:   r.metrics.active[name].Value(),
			Errors:   r.metrics.errors[name].Value(),
		}
	}
	for reason, c := range r.metrics.sheds {
		st.Sheds[reason] = c.Value()
	}
	return st
}

// Registry exposes the router's metrics registry (tests; embedding).
func (r *Router) Registry() *obs.Registry { return r.reg }

// AdminHandler returns a fresh mux serving the router's admin surface:
// /statsz, /metricsz, /healthz, /readyz and /tracez (the route-trace
// ring as JSONL, or a Chrome trace file with ?format=chrome; 404 without
// a configured TraceSink). Daemons and test fleets mount this one mux and
// add what is theirs (/fleetz, pprof).
func (r *Router) AdminHandler() *http.ServeMux {
	mux := http.NewServeMux()
	mux.Handle("/statsz", r.StatsHandler())
	mux.Handle("/metricsz", r.MetricsHandler())
	mux.Handle("/healthz", r.HealthzHandler())
	mux.Handle("/readyz", r.ReadyzHandler())
	tracez := http.NotFoundHandler()
	if r.cfg.TraceSink != nil {
		tracez = r.cfg.TraceSink.Handler()
	}
	mux.Handle("/tracez", tracez)
	return mux
}

// MetricsHandler serves the Prometheus exposition (mount at /metricsz).
func (r *Router) MetricsHandler() http.Handler { return r.reg.Handler() }

// StatsHandler serves RouterStats as JSON (mount at /statsz).
func (r *Router) StatsHandler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		_ = enc.Encode(r.Stats())
	})
}

// HealthzHandler reports liveness: the process is up.
func (r *Router) HealthzHandler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		w.WriteHeader(http.StatusOK)
		_, _ = io.WriteString(w, "ok\n")
	})
}

// ReadyzHandler reports readiness: 200 while serving, 503 before Serve
// and during drain.
func (r *Router) ReadyzHandler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		if !r.ready.Load() {
			http.Error(w, "not ready", http.StatusServiceUnavailable)
			return
		}
		w.WriteHeader(http.StatusOK)
		_, _ = io.WriteString(w, "ready\n")
	})
}
