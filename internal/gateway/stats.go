package gateway

import (
	"encoding/json"
	"net/http"

	"engarde"
	"engarde/internal/obs"
	"engarde/internal/policy/memo"
)

// numLatencyBuckets covers sessions up to ~2^20 ms (≈17 min) with
// power-of-two bounds; the last bucket is unbounded.
const numLatencyBuckets = 22

// LatencyBucket is one histogram bucket: Count sessions took less than
// LEMillis milliseconds (cumulative, Prometheus-style).
type LatencyBucket struct {
	LEMillis float64 `json:"le_ms"`
	Count    uint64  `json:"count"`
}

// LatencySnapshot summarizes the latency histogram.
type LatencySnapshot struct {
	Count    uint64          `json:"count"`
	P50Milli float64         `json:"p50_ms"`           // upper bound of the median bucket
	P95Milli float64         `json:"p95_ms"`           // upper bound of the p95 bucket
	P99Milli float64         `json:"p99_ms,omitempty"` // upper bound of the p99 bucket
	Buckets  []LatencyBucket `json:"buckets,omitempty"`
}

// latencySnapshot derives the /statsz latency view from the registry's
// session-duration histogram — the same instrument /metricsz exposes as
// engarde_gateway_session_seconds, read in its native milliseconds.
func latencySnapshot(h *obs.Histogram) LatencySnapshot {
	out := LatencySnapshot{Count: h.Count()}
	if out.Count == 0 {
		return out
	}
	out.P50Milli = float64(h.Quantile(0.50))
	out.P95Milli = float64(h.Quantile(0.95))
	out.P99Milli = float64(h.Quantile(0.99))
	for _, b := range h.Snapshot() {
		out.Buckets = append(out.Buckets, LatencyBucket{LEMillis: float64(b.Le), Count: b.Count})
	}
	return out
}

// Stats is a point-in-time snapshot of the gateway's metrics.
type Stats struct {
	// Admission control.
	Accepted uint64 `json:"accepted"`  // connections admitted to the pool/queue
	Shed     uint64 `json:"shed"`      // turned away with a busy verdict: pool and queue full
	Rejected uint64 `json:"rejected"`  // closed without a verdict (shutdown in progress)
	TimedOut uint64 `json:"timed_out"` // sessions cut off by idle deadline or session budget
	Active   int64  `json:"active"`    // sessions currently being served
	Queued   int    `json:"queued"`    // admitted, waiting for a worker

	// Outcomes.
	Served       uint64 `json:"served"`
	Compliant    uint64 `json:"compliant"`
	NonCompliant uint64 `json:"non_compliant"`
	Errors       uint64 `json:"errors"` // protocol/machinery failures

	// Enclave-loss recovery.
	EnclavesLost     uint64 `json:"enclaves_lost"`     // lost mid-provision
	EnclaveFailovers uint64 `json:"enclave_failovers"` // sessions completed on a replacement enclave

	// Verdict cache.
	CacheHits      uint64  `json:"cache_hits"`
	CacheMisses    uint64  `json:"cache_misses"`
	CacheHitRate   float64 `json:"cache_hit_rate"` // hits / (hits+misses)
	CacheEntries   int     `json:"cache_entries"`
	CacheEvictions uint64  `json:"cache_evictions"` // verdicts dropped at capacity

	// Function-result cache (warm-path provisioning). Nil when disabled.
	FnCache        *engarde.FnCacheStats `json:"fn_cache,omitempty"`
	FnCacheHitRate float64               `json:"fn_cache_hit_rate,omitempty"` // hits / (hits+misses)

	// Cycle-model totals across all enclaves (empty without a Counter).
	PhaseCycles map[string]uint64 `json:"phase_cycles,omitempty"`
	TotalCycles uint64            `json:"total_cycles,omitempty"`

	Latency LatencySnapshot `json:"latency"`
}

// Stats returns a consistent-enough snapshot for monitoring: each field is
// read atomically, though the set is not a single atomic cut. The snapshot
// is a read-through view over the same registry instruments /metricsz
// serves, so the two endpoints can never drift apart.
func (g *Gateway) Stats() Stats {
	m := g.metrics
	s := Stats{
		Accepted:         m.accepted.Value(),
		Shed:             m.shed.Value(),
		Rejected:         m.rejected.Value(),
		TimedOut:         m.timeouts.Value(),
		Active:           m.active.Value(),
		Queued:           len(g.queue),
		Served:           m.served.Value(),
		Compliant:        m.compliant.Value(),
		NonCompliant:     m.nonCompliant.Value(),
		Errors:           m.errs.Value(),
		EnclavesLost:     m.enclaveLost.Value(),
		EnclaveFailovers: m.enclaveFailovers.Value(),
		CacheHits:        m.cacheHits.Value(),
		CacheMisses:      m.cacheMisses.Value(),
		Latency:          latencySnapshot(m.latency),
	}
	if lookups := s.CacheHits + s.CacheMisses; lookups > 0 {
		s.CacheHitRate = float64(s.CacheHits) / float64(lookups)
	}
	if g.cache != nil {
		s.CacheEntries = g.cache.len()
		s.CacheEvictions = g.cache.evicted()
	}
	if g.fnCache != nil {
		fc := g.fnCache.Stats()
		s.FnCache = &fc
		if lookups := fc.Hits + fc.Misses; lookups > 0 {
			s.FnCacheHitRate = float64(fc.Hits) / float64(lookups)
		}
	}
	if g.counter != nil {
		s.PhaseCycles = g.counter.SnapshotNamed()
		s.TotalCycles = g.counter.Total()
	}
	return s
}

// AdminHandler returns a fresh mux serving the gateway's whole admin
// surface: /statsz, /metricsz, /healthz, /readyz, /memoz/ (the fn-cache
// peer protocol) and /tracez (Config.TraceSink's ring; 404 without a
// sink). Every process that fronts a gateway mounts this one mux, so
// tests and daemons serve the same paths; callers may add their own
// routes (pprof) to it.
func (g *Gateway) AdminHandler() *http.ServeMux {
	mux := http.NewServeMux()
	mux.Handle("/statsz", g.StatsHandler())
	mux.Handle("/metricsz", g.MetricsHandler())
	mux.Handle("/healthz", g.HealthzHandler())
	mux.Handle("/readyz", g.ReadyzHandler())
	mux.Handle("/memoz/", g.FnMemoHandler())
	tracez := http.NotFoundHandler()
	if g.cfg.TraceSink != nil {
		tracez = g.cfg.TraceSink.Handler()
	}
	mux.Handle("/tracez", tracez)
	return mux
}

// StatsHandler serves the snapshot as JSON — mount it at /statsz.
func (g *Gateway) StatsHandler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		_ = enc.Encode(g.Stats())
	})
}

// MetricsHandler serves the Prometheus text exposition (version 0.0.4) of
// the gateway's registry — mount it at /metricsz.
func (g *Gateway) MetricsHandler() http.Handler {
	return g.metrics.reg.Handler()
}

// Registry exposes the gateway's metrics registry so a serving binary can
// register additional process-level series on the same exposition.
func (g *Gateway) Registry() *obs.Registry {
	return g.metrics.reg
}

// HealthzHandler reports liveness — the process is up and the mux is
// serving — and nothing more. Mount it at /healthz.
func (g *Gateway) HealthzHandler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		w.WriteHeader(http.StatusOK)
		_, _ = w.Write([]byte("ok\n"))
	})
}

// ReadyzHandler reports readiness: 200 only while the gateway is serving,
// 503 before the first Serve and from the moment Shutdown begins draining
// — the signal the fleet router's health prober and rolling restarts key
// off. Mount it at /readyz.
func (g *Gateway) ReadyzHandler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		if !g.ready.Load() {
			http.Error(w, "not ready", http.StatusServiceUnavailable)
			return
		}
		w.WriteHeader(http.StatusOK)
		_, _ = w.Write([]byte("ready\n"))
	})
}

// FnMemoHandler serves the function-result cache's peer protocol (batch
// get/put of memoized outcomes) so fleet peers can share warm-path state.
// Mount it at /memoz/. Returns 404s when the cache is disabled.
func (g *Gateway) FnMemoHandler() http.Handler {
	if g.fnCache == nil {
		return http.NotFoundHandler()
	}
	return memo.Handler(g.fnCache)
}
