// Package gateway is the production serving layer over the EnGarde
// library: a multi-tenant provisioning service that turns the paper's
// one-shot, provisioning-time inspection into an amortized pipeline.
//
// The paper's check runs once per (image, policy-set) pair and is
// deterministic, so a gateway serving provisioning traffic from many
// tenants can treat verification as a service with shared, reusable work
// (cf. Confidential Attestation and MAGE in PAPERS.md). The gateway adds
// the three things cmd/engarde-host's ad-hoc accept loop lacked:
//
//   - Admission control: a bounded worker pool (MaxConcurrent enclaves in
//     flight), a bounded wait queue, typed overload shedding beyond both
//     (a busy verdict with a Retry-After hint, never a silent close), and
//     per-frame idle deadlines plus a total session budget so neither a
//     stalled nor a trickling tenant can pin a worker.
//   - A verdict cache: content-addressed by SHA-256(image) ×
//     PolicySet.Fingerprint(). A byte-identical binary resubmitted under an
//     identical policy set skips disassembly and policy checking entirely
//     (sound because the check is a pure function of both inputs); the
//     Report records the hit.
//   - Observability and lifecycle: a metrics registry (internal/obs) behind
//     both a Prometheus /metricsz exposition and the /statsz JSON snapshot
//     (admissions, verdicts, cache hit rates, per-phase cycle totals,
//     latency/queue-wait/frame-size histograms), a per-session trace with
//     spans for every protocol step and pipeline phase (Config.TraceSink,
//     /tracez), structured logs carrying the trace ID, and
//     Serve(ctx)/Shutdown(ctx) with connection draining.
//
// Every connection still gets its own private enclave, cloned from one
// per-gateway snapshot template: the template is built the measured way
// (EADD/EEXTEND/EINIT) once, by the first session that needs it, and each
// session's clone has bit-identical pages and the same MRENCLAVE under a
// fresh enclave identity and keypair. The attestation story and the
// verdict are exactly those of a fresh build
// (TestPooledProvisionMatchesFresh). Each session has one enclave
// lifecycle — clone, serve, destroy — and no enclave ever serves two
// tenants, so no tenant's bytes can survive into the next session.
package gateway

import (
	"context"
	"crypto/sha256"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"engarde"
	"engarde/internal/cycles"
	"engarde/internal/obs"
	"engarde/internal/secchan"
)

// Defaults for Config fields left zero.
const (
	DefaultMaxConcurrent  = 8
	DefaultIdleTimeout    = 10 * time.Second
	DefaultSessionBudget  = 30 * time.Second
	DefaultCacheEntries   = 1024
	DefaultRetryAfterHint = time.Second
)

// Config configures a Gateway.
type Config struct {
	// Provider is the SGX platform to create enclaves on. Required.
	Provider *engarde.Provider
	// Policies is the policy set every tenant's code is checked against
	// (the provider side of the paper's mutual agreement). May be nil for
	// an empty set.
	Policies *engarde.PolicySet
	// HeapPages / ClientPages size each connection's enclave.
	HeapPages   int
	ClientPages int

	// MaxConcurrent bounds in-flight provisions (worker-pool size).
	// Default DefaultMaxConcurrent.
	MaxConcurrent int
	// QueueDepth bounds connections waiting for a worker beyond the
	// in-flight ones. 0 means 2×MaxConcurrent; negative means no queue
	// (reject unless a worker is idle).
	QueueDepth int
	// IdleTimeout is the per-frame idle deadline: every read or write on an
	// admitted connection must make progress within it, so a stalled or
	// trickling peer is cut off quickly while a steadily streaming one is
	// not. Default DefaultIdleTimeout; negative disables.
	IdleTimeout time.Duration
	// SessionBudget bounds each admitted session end to end, regardless of
	// progress — the backstop that keeps a 1-byte-per-interval trickler
	// from holding a worker indefinitely. Default DefaultSessionBudget;
	// negative disables.
	SessionBudget time.Duration
	// RetryAfterHint is the backoff hint attached to busy verdicts when
	// admission control sheds a connection. Default DefaultRetryAfterHint.
	RetryAfterHint time.Duration
	// CacheEntries bounds the verdict cache. 0 means DefaultCacheEntries;
	// negative disables caching.
	CacheEntries int
	// FnCacheEntries bounds the function-result cache shared by every
	// enclave the gateway creates (warm-path provisioning: per-function
	// policy outcomes keyed by content digest × module fingerprint, so a
	// second tenant image sharing the approved libc skips re-checking it).
	// 0 means the memo package's default capacity; negative disables the
	// cache entirely.
	FnCacheEntries int

	// LoseEnclaveEvery, when positive, is a failure-injection drill: every
	// Nth session's enclave has its EPC pages reclaimed (EREMOVE-style)
	// immediately before provisioning runs, exercising the mid-provision
	// enclave-loss recovery path end to end — the session must still
	// complete with its correct verdict on a replacement enclave.
	// Production deployments leave it 0.
	LoseEnclaveEvery int

	// Counter receives per-phase cycle charges from every enclave and
	// feeds the stats endpoint. If nil, the Provider's counter is used;
	// phase stats are empty when both are nil.
	Counter *cycles.Counter
	// Logger receives structured session records (admission rejection,
	// serve outcome, shutdown), each carrying the session's trace ID. Nil
	// falls back to a Logf adapter when Logf is set, else logging is off.
	Logger *slog.Logger
	// Logf, when set and Logger is nil, receives one rendered line per log
	// record at info level and above. Printf-style; kept for callers
	// predating Logger.
	Logf func(format string, args ...any)
	// TraceSink, when set, receives every session's finished trace (span
	// timeline plus per-phase cycle attribution) — serve its Handler at
	// /tracez and point it at a directory for Chrome trace files.
	TraceSink *obs.Sink
	// OnServed, when set, is called after each admitted connection is
	// served: rep/err are ServeProvisionFunc's results (encl is nil when
	// enclave creation itself failed). It runs on the worker goroutine
	// before the enclave is destroyed, so it may still Enter() a compliant
	// enclave — cmd/engarde-host uses this to transfer control and print
	// the per-connection summary.
	OnServed func(conn net.Conn, encl *engarde.Enclave, rep *engarde.Report, err error)
}

// Gateway is an admission-controlled, cached, observable provisioning
// service that serves every session on its own clone of one template.
type Gateway struct {
	cfg      Config
	counter  *cycles.Counter
	policyFP [sha256.Size]byte
	cache    *verdictCache    // nil when disabled
	fnCache  *engarde.FnCache // shared across enclaves; nil when disabled
	metrics  *metrics
	log      *slog.Logger

	// snap is the snapshot template every session's enclave is cloned
	// from, built on first use (see template).
	snapMu sync.Mutex
	snap   *engarde.EnclaveSnapshot

	queue    chan queuedConn
	stop     chan struct{}
	stopOnce sync.Once

	ready atomic.Bool // readiness: true while Serve runs, false during drain

	sessionSeq atomic.Uint64 // session ordinal, drives the LoseEnclaveEvery drill

	mu        sync.Mutex
	shutdown  bool
	listeners map[net.Listener]struct{}
	conns     map[net.Conn]struct{}

	connWG   sync.WaitGroup // admitted connections
	workerWG sync.WaitGroup // worker goroutines
}

// queuedConn is one admitted connection waiting for a worker, stamped at
// admission so the queue-wait histogram records how long it sat.
type queuedConn struct {
	conn net.Conn
	at   time.Time
}

// New builds a gateway and starts its worker pool.
func New(cfg Config) (*Gateway, error) {
	if cfg.Provider == nil {
		return nil, errors.New("gateway: Config.Provider is required")
	}
	if cfg.Policies == nil {
		cfg.Policies = engarde.NewPolicySet()
	}
	if cfg.MaxConcurrent == 0 {
		cfg.MaxConcurrent = DefaultMaxConcurrent
	}
	if cfg.MaxConcurrent < 1 {
		return nil, fmt.Errorf("gateway: MaxConcurrent %d < 1", cfg.MaxConcurrent)
	}
	if cfg.QueueDepth == 0 {
		cfg.QueueDepth = 2 * cfg.MaxConcurrent
	}
	if cfg.QueueDepth < 0 {
		cfg.QueueDepth = 0 // no waiting room
	}
	if cfg.IdleTimeout == 0 {
		cfg.IdleTimeout = DefaultIdleTimeout
	}
	if cfg.SessionBudget == 0 {
		cfg.SessionBudget = DefaultSessionBudget
	}
	if cfg.RetryAfterHint <= 0 {
		cfg.RetryAfterHint = DefaultRetryAfterHint
	}
	counter := cfg.Counter
	if counter == nil {
		counter = cfg.Provider.Counter()
	}
	logger := cfg.Logger
	if logger == nil && cfg.Logf != nil {
		logger = obs.LogfLogger(slog.LevelInfo, cfg.Logf)
	}
	if logger == nil {
		logger = obs.DiscardLogger()
	}
	g := &Gateway{
		cfg:       cfg,
		counter:   counter,
		log:       logger,
		policyFP:  cfg.Policies.Fingerprint(),
		queue:     make(chan queuedConn, cfg.QueueDepth),
		stop:      make(chan struct{}),
		listeners: make(map[net.Listener]struct{}),
		conns:     make(map[net.Conn]struct{}),
	}
	switch {
	case cfg.CacheEntries < 0:
		// caching disabled
	case cfg.CacheEntries == 0:
		g.cache = newVerdictCache(DefaultCacheEntries)
	default:
		g.cache = newVerdictCache(cfg.CacheEntries)
	}
	if cfg.FnCacheEntries >= 0 {
		fc, err := engarde.OpenFnCache(cfg.FnCacheEntries, "")
		if err != nil {
			return nil, fmt.Errorf("gateway: opening function-result cache: %w", err)
		}
		g.fnCache = fc
	}
	// After the caches and counter so the registry's live-read series
	// match what this gateway actually has, before the workers so no
	// instrument is ever nil on the hot path.
	g.metrics = newMetrics(g)
	g.workerWG.Add(cfg.MaxConcurrent)
	for i := 0; i < cfg.MaxConcurrent; i++ {
		go g.worker()
	}
	return g, nil
}

// Serve accepts connections on ln until the listener fails, ctx is
// cancelled, or Shutdown is called. It may be called on several listeners
// concurrently; all are closed by Shutdown. Returns nil on clean shutdown,
// ctx.Err() on cancellation.
func (g *Gateway) Serve(ctx context.Context, ln net.Listener) error {
	g.mu.Lock()
	if g.shutdown {
		g.mu.Unlock()
		ln.Close()
		return errors.New("gateway: already shut down")
	}
	g.listeners[ln] = struct{}{}
	g.mu.Unlock()
	g.ready.Store(true)
	defer func() {
		g.mu.Lock()
		delete(g.listeners, ln)
		g.mu.Unlock()
	}()

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
			if g.isShutdown() {
				return nil
			}
			return err
		}
		g.admit(conn)
	}
}

func (g *Gateway) isShutdown() bool {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.shutdown
}

// admit applies admission control: the connection is queued for a worker,
// or shed with a typed busy verdict when the pool and queue are both full.
// The queue write happens under g.mu with the shutdown flag checked, so
// nothing is ever queued after Shutdown begins.
func (g *Gateway) admit(conn net.Conn) {
	g.mu.Lock()
	if g.shutdown {
		g.mu.Unlock()
		g.metrics.rejected.Inc()
		conn.Close()
		return
	}
	select {
	case g.queue <- queuedConn{conn: conn, at: time.Now()}:
		// connWG.Add happens under g.mu so Shutdown's Wait cannot race it.
		g.connWG.Add(1)
		g.mu.Unlock()
		g.metrics.accepted.Inc()
	default:
		// Shed: tell the peer it was turned away and when to come back,
		// off the accept loop so a slow rejected peer cannot stall accepts.
		// The writer is covered by connWG (added under g.mu) and bounded by
		// a short write deadline, so Shutdown still terminates promptly.
		g.connWG.Add(1)
		g.mu.Unlock()
		g.metrics.shed.Inc()
		g.log.Warn("gateway: shedding connection",
			"remote", connAddr(conn), "reason", "pool and queue full")
		go func() {
			defer g.connWG.Done()
			defer conn.Close()
			_ = conn.SetWriteDeadline(time.Now().Add(time.Second))
			_ = engarde.SendBusy(conn, g.cfg.RetryAfterHint)
		}()
	}
}

// Shutdown stops accepting, drains admitted connections, and waits for
// them. If ctx expires first, remaining connections are force-closed and
// ctx.Err() is returned once the workers have observed the closures.
func (g *Gateway) Shutdown(ctx context.Context) error {
	g.ready.Store(false)
	g.mu.Lock()
	g.shutdown = true
	for ln := range g.listeners {
		ln.Close()
	}
	g.mu.Unlock()
	// Workers finish the queue, then exit; newly accepted conns are closed
	// by admit. connWG covers everything already admitted.
	g.stopOnce.Do(func() { close(g.stop) })

	done := make(chan struct{})
	go func() {
		g.connWG.Wait()
		g.workerWG.Wait()
		close(done)
	}()
	select {
	case <-done:
		return nil
	case <-ctx.Done():
		// Force-close in-flight sessions and discard anything still queued;
		// workers observing the closed conns fail fast.
		g.mu.Lock()
		for c := range g.conns {
			c.Close()
		}
		g.mu.Unlock()
		for {
			select {
			case q := <-g.queue:
				q.conn.Close()
				g.connWG.Done()
				continue
			default:
			}
			break
		}
		<-done
		return ctx.Err()
	}
}

// worker serves queued connections until shutdown, then drains what is
// still queued and exits.
func (g *Gateway) worker() {
	defer g.workerWG.Done()
	for {
		select {
		case q := <-g.queue:
			g.handle(q)
		case <-g.stop:
			for {
				select {
				case q := <-g.queue:
					g.handle(q)
				default:
					return
				}
			}
		}
	}
}

func (g *Gateway) trackConn(conn net.Conn) {
	g.mu.Lock()
	g.conns[conn] = struct{}{}
	g.mu.Unlock()
}

func (g *Gateway) untrackConn(conn net.Conn) {
	g.mu.Lock()
	delete(g.conns, conn)
	g.mu.Unlock()
}

// handle serves one admitted connection: fresh enclave, protocol, verdict
// cache, telemetry, teardown.
func (g *Gateway) handle(q queuedConn) {
	conn := q.conn
	defer g.connWG.Done()
	defer conn.Close()
	g.trackConn(conn)
	defer g.untrackConn(conn)
	g.metrics.queueWait.Observe(uint64(time.Since(q.at) / time.Microsecond))
	g.metrics.active.Inc()
	defer g.metrics.active.Dec()

	// The session trace spans the protocol steps and pipeline phases. The
	// counter is shared across workers, so per-phase cycle deltas are an
	// attribution estimate under concurrency (see obs.Trace); wall-clock
	// spans are exact either way.
	tr := obs.NewTrace("provision", g.counter)

	// Per-frame idle deadline + total session budget (internal/secchan):
	// silence kills a session within IdleTimeout, and no amount of 1-byte
	// trickling extends it past SessionBudget.
	var rw io.ReadWriter = conn
	if g.cfg.IdleTimeout > 0 || g.cfg.SessionBudget > 0 {
		idle, budget := g.cfg.IdleTimeout, g.cfg.SessionBudget
		if idle < 0 {
			idle = 0
		}
		if budget < 0 {
			budget = 0
		}
		rw = secchan.NewLimited(conn, idle, budget)
	}
	// The per-session observer layers frame-arrival timestamps (inter-frame
	// gap histogram) over the shared size histograms; observations happen on
	// this worker goroutine only.
	rw = secchan.ObserveFrames(rw, &sessionFrames{m: g.metrics})
	start := time.Now()

	encl, aerr := g.acquireEnclave(tr)
	if aerr != nil {
		g.finishTrace(tr)
		g.metrics.errs.Inc()
		g.log.Error("gateway: creating enclave",
			"trace", tr.ID(), "remote", connAddr(conn), "err", aerr)
		if g.cfg.OnServed != nil {
			g.cfg.OnServed(conn, nil, nil, aerr)
		}
		return
	}
	defer func() {
		// encl may have been swapped by a mid-provision enclave failover;
		// the defer destroys whatever the session ended on.
		if encl != nil {
			encl.Destroy()
		}
	}()

	// drill is the LoseEnclaveEvery failure-injection hook: it fires inside
	// the provisioning step — after the image arrived, before the pipeline
	// runs — so every Nth session exercises the exact recovery path a real
	// EPC reclaim mid-session would.
	drill := func() {
		if n := g.cfg.LoseEnclaveEvery; n > 0 && g.sessionSeq.Add(1)%uint64(n) == 0 {
			encl.Reclaim()
		}
	}

	// recoverLost is the transparent enclave failover: when provisioning
	// failed because the enclave's EPC pages were reclaimed under it, the
	// staged image (plaintext and digest) is still in hand, so the session
	// is re-run in full on a replacement clone (identical MRENCLAVE) instead
	// of surfacing a machinery failure to a client that did nothing wrong.
	// The replay runs the same pipeline over the same buffer, so its
	// verdict is the one the lost enclave would have given.
	// One replacement attempt: a second loss means the host is shedding EPC
	// faster than sessions run, and the typed backend-lost verdict
	// (failNotify) correctly pushes the client to another backend.
	recoverLost := func(st *engarde.StagedImage, perr error) (*engarde.Report, error) {
		if !errors.Is(perr, engarde.ErrEnclaveLost) {
			return nil, perr
		}
		g.metrics.enclaveLost.Inc()
		g.log.Warn("gateway: enclave lost mid-provision, failing over",
			"trace", tr.ID(), "remote", connAddr(conn), "err", perr)
		// Destroy the reclaimed corpse and clear encl so the session defer
		// cannot touch it again if no replacement is found.
		encl.Destroy()
		encl = nil
		sp := tr.StartSpan("enclave-failover")
		defer sp.End()
		var ferr error
		encl, ferr = g.acquireEnclave(tr)
		if ferr != nil {
			return nil, fmt.Errorf("gateway: replacing lost enclave: %w", errors.Join(ferr, perr))
		}
		rep, rerr := g.provision(encl, st)
		if rerr == nil {
			g.metrics.enclaveFailovers.Inc()
		}
		return rep, rerr
	}

	ctx := obs.WithTrace(context.Background(), tr)
	rep, err := encl.ServeProvisionFunc(ctx, rw, func(st *engarde.StagedImage) (*engarde.Report, error) {
		drill()
		rep, err := g.provision(encl, st)
		if err != nil {
			return recoverLost(st, err)
		}
		return rep, nil
	})
	dur := time.Since(start)
	// Every series the session feeds settles before served counts it, so
	// a reader that sees Served == n also sees n sessions in the span
	// histograms and the verdict counters.
	g.finishTrace(tr)
	g.metrics.latency.Observe(uint64(dur / time.Millisecond))
	switch {
	case err != nil:
		g.metrics.errs.Inc()
		if reason := timeoutReason(err); reason != "" {
			g.metrics.timeouts.Inc()
			g.log.Warn("gateway: session timed out",
				"trace", tr.ID(), "remote", connAddr(conn), "reason", reason, "err", err)
		} else {
			g.log.Warn("gateway: session failed",
				"trace", tr.ID(), "remote", connAddr(conn), "err", err)
		}
	case rep.Compliant:
		g.metrics.compliant.Inc()
		g.log.Info("gateway: session served",
			"trace", tr.ID(), "remote", connAddr(conn), "verdict", "compliant",
			"cache_hit", rep.CacheHit, "dur_ms", dur.Milliseconds())
	default:
		g.metrics.nonCompliant.Inc()
		g.log.Info("gateway: session served",
			"trace", tr.ID(), "remote", connAddr(conn), "verdict", "non-compliant",
			"cache_hit", rep.CacheHit, "dur_ms", dur.Milliseconds())
	}
	g.metrics.served.Inc()
	if g.cfg.OnServed != nil {
		g.cfg.OnServed(conn, encl, rep, err)
	}
}

// acquireEnclave clones the session's enclave from the template, traced
// as the session's clone-enclave span. Used both at session start and to
// find a replacement during mid-provision enclave failover.
func (g *Gateway) acquireEnclave(tr *obs.Trace) (*engarde.Enclave, error) {
	snap, err := g.template(tr)
	if err != nil {
		return nil, err
	}
	return snap.CloneTraced(tr)
}

// template returns the gateway's snapshot template, building it the
// measured way on first use. Sessions that arrive during the build wait
// for it; a failed build is returned to its caller and retried by the
// next. The build shows on the building session's trace as a
// snapshot-template span, but its cycles are the gateway's one-time cost,
// not that session's.
func (g *Gateway) template(tr *obs.Trace) (*engarde.EnclaveSnapshot, error) {
	g.snapMu.Lock()
	defer g.snapMu.Unlock()
	if g.snap != nil {
		return g.snap, nil
	}
	sp := tr.StartSpan("snapshot-template")
	snap, err := g.cfg.Provider.NewEnclaveSnapshot(engarde.EnclaveConfig{
		Policies:    g.cfg.Policies,
		HeapPages:   g.cfg.HeapPages,
		ClientPages: g.cfg.ClientPages,
		FnCache:     g.fnCache,
	})
	sp.End()
	if err != nil {
		return nil, fmt.Errorf("gateway: building snapshot template: %w", err)
	}
	g.snap = snap
	return snap, nil
}

// finishTrace closes the session trace, feeds its spans into the aggregate
// span-duration histograms, and hands it to the configured sink — all off
// the protocol path, after the verdict went out.
func (g *Gateway) finishTrace(tr *obs.Trace) {
	tr.Finish()
	g.metrics.observeTrace(tr.Snapshot())
	g.cfg.TraceSink.Record(tr)
}

// provision is the cache-aware provisioning step handed to
// ServeProvisionFunc. The digest was computed incrementally while frames
// arrived, so the verdict-cache lookup under (image, policy fingerprint)
// fires the instant the last byte lands — no second pass over the image —
// and either reuses the verdict or runs the full pipeline and remembers
// the outcome.
func (g *Gateway) provision(encl *engarde.Enclave, st *engarde.StagedImage) (*engarde.Report, error) {
	if g.cache == nil {
		return encl.ProvisionStaged(st)
	}
	key := cacheKey{image: st.Digest, policy: g.policyFP}
	if prior, ok := g.cache.get(key); ok {
		g.metrics.cacheHits.Inc()
		if !prior.Compliant {
			// A cached rejection needs no enclave work at all: the verdict
			// is the whole outcome.
			rep := *prior
			rep.CacheHit = true
			return &rep, nil
		}
		// A cached compliant verdict still loads the code — the tenant gets
		// a real provisioned enclave — but skips disassembly and policy
		// checking, the dominant cost (paper Figures 3-5).
		return encl.ProvisionPrechecked(st, prior)
	}
	g.metrics.cacheMisses.Inc()
	rep, err := encl.ProvisionStaged(st)
	if err == nil {
		g.cache.put(key, rep)
	}
	return rep, err
}

// timeoutReason classifies a session error as one of the typed deadline
// outcomes ("" when it is neither): "idle-timeout" — the peer went silent
// mid-session; "session-budget" — the session exceeded its total budget.
func timeoutReason(err error) string {
	switch {
	case errors.Is(err, secchan.ErrIdleTimeout):
		return "idle-timeout"
	case errors.Is(err, secchan.ErrSessionBudget):
		return "session-budget"
	}
	return ""
}

func connAddr(conn net.Conn) string {
	if addr := conn.RemoteAddr(); addr != nil {
		return addr.String()
	}
	return "<unknown>"
}
