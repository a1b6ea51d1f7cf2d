package gateway

import (
	"sync"
	"time"

	"engarde/internal/cycles"
	"engarde/internal/obs"
)

// metrics is the gateway's registry-backed instrument set. Every counter
// and histogram the workers touch on the hot path is a lock-free atomic
// instrument from internal/obs; values owned by other objects (cache
// sizes, cycle totals, queue depth) are registered as live-read functions,
// so /metricsz and Stats() can never disagree — both read the same
// underlying state.
type metrics struct {
	reg *obs.Registry

	accepted *obs.Counter
	shed     *obs.Counter
	rejected *obs.Counter
	timeouts *obs.Counter

	served       *obs.Counter
	compliant    *obs.Counter
	nonCompliant *obs.Counter
	errs         *obs.Counter

	cacheHits   *obs.Counter
	cacheMisses *obs.Counter

	enclaveLost      *obs.Counter // enclaves found lost mid-provision
	enclaveFailovers *obs.Counter // sessions completed on a replacement enclave

	active *obs.Gauge

	latency    *obs.Histogram // session duration, recorded in ms
	queueWait  *obs.Histogram // admission-to-worker wait, recorded in µs
	frameRead  *obs.Histogram // framed block sizes inbound, bytes
	frameWrite *obs.Histogram // framed block sizes outbound, bytes

	frameGap         *obs.Histogram // idle time between inbound frames, µs
	firstByteVerdict *obs.Histogram // first content byte → verdict sent, µs

	spanMu sync.Mutex
	spans  map[string]*obs.Histogram // span name → duration histogram (µs)
}

// newMetrics builds the gateway's registry. It runs after the caches and
// counter are wired but before the workers start, so the live-read series
// it registers conditionally (verdict cache, fn-cache, cycle model) match
// what the gateway actually has.
func newMetrics(g *Gateway) *metrics {
	reg := obs.NewRegistry()
	m := &metrics{reg: reg, spans: make(map[string]*obs.Histogram)}

	m.accepted = reg.Counter("engarde_gateway_sessions_accepted_total",
		"Connections admitted to the worker pool or wait queue.")
	m.shed = reg.Counter("engarde_gateway_sessions_shed_total",
		"Connections turned away with a busy verdict (pool and queue full).")
	m.rejected = reg.Counter("engarde_gateway_sessions_rejected_total",
		"Connections closed without a verdict (shutdown in progress).")
	m.timeouts = reg.Counter("engarde_gateway_sessions_timed_out_total",
		"Sessions cut off by the idle deadline or total session budget.")
	m.served = reg.Counter("engarde_gateway_sessions_served_total",
		"Admitted sessions carried to completion (verdict or error).")
	m.errs = reg.Counter("engarde_gateway_errors_total",
		"Protocol or provisioning-machinery failures.")

	m.compliant = reg.Counter("engarde_gateway_verdicts_total",
		"Provisioning verdicts by outcome.",
		obs.Label{Key: "verdict", Value: "compliant"})
	m.nonCompliant = reg.Counter("engarde_gateway_verdicts_total", "",
		obs.Label{Key: "verdict", Value: "non_compliant"})

	m.cacheHits = reg.Counter("engarde_gateway_verdict_cache_lookups_total",
		"Verdict-cache lookups by result.",
		obs.Label{Key: "result", Value: "hit"})
	m.cacheMisses = reg.Counter("engarde_gateway_verdict_cache_lookups_total", "",
		obs.Label{Key: "result", Value: "miss"})

	m.enclaveLost = reg.Counter("engarde_gateway_enclave_lost_total",
		"Enclaves found lost (EPC pages reclaimed by the host), by detection point.",
		obs.Label{Key: "at", Value: "mid_provision"})
	m.enclaveFailovers = reg.Counter("engarde_gateway_enclave_failover_total",
		"Sessions transparently re-run on a replacement enclave after a mid-provision enclave loss.")

	m.active = reg.Gauge("engarde_gateway_sessions_active",
		"Sessions currently being served.")
	reg.GaugeFunc("engarde_gateway_queue_depth",
		"Admitted connections waiting for a worker.",
		func() float64 { return float64(len(g.queue)) })

	m.latency = reg.Histogram("engarde_gateway_session_seconds",
		"End-to-end duration of admitted sessions.",
		obs.HistogramOpts{Buckets: numLatencyBuckets, Scale: 1e-3})
	m.queueWait = reg.Histogram("engarde_gateway_queue_wait_seconds",
		"Time admitted connections spent waiting for a worker.",
		obs.HistogramOpts{Buckets: 28, Scale: 1e-6})
	m.frameRead = reg.Histogram("engarde_gateway_frame_bytes",
		"Framed secure-channel block sizes on the wire, by direction.",
		obs.HistogramOpts{Buckets: 24},
		obs.Label{Key: "dir", Value: "read"})
	m.frameWrite = reg.Histogram("engarde_gateway_frame_bytes", "",
		obs.HistogramOpts{Buckets: 24},
		obs.Label{Key: "dir", Value: "write"})
	m.frameGap = reg.Histogram("engarde_gateway_frame_gap_seconds",
		"Idle time between successive inbound frames within a session.",
		obs.HistogramOpts{Buckets: 28, Scale: 1e-6})
	m.firstByteVerdict = reg.Histogram("engarde_gateway_first_byte_to_verdict_seconds",
		"Arrival of the first image byte to the verdict hitting the wire.",
		obs.HistogramOpts{Buckets: 28, Scale: 1e-6})

	if g.cache != nil {
		reg.GaugeFunc("engarde_gateway_verdict_cache_entries",
			"Verdicts currently resident in the cache.",
			func() float64 { return float64(g.cache.len()) })
		reg.CounterFunc("engarde_gateway_verdict_cache_evictions_total",
			"Verdicts dropped from the cache at capacity.",
			g.cache.evicted)
	}
	if g.fnCache != nil {
		reg.CounterFunc("engarde_gateway_fn_cache_lookups_total",
			"Function-result cache lookups by result.",
			func() uint64 { return g.fnCache.Stats().Hits },
			obs.Label{Key: "result", Value: "hit"})
		reg.CounterFunc("engarde_gateway_fn_cache_lookups_total", "",
			func() uint64 { return g.fnCache.Stats().Misses },
			obs.Label{Key: "result", Value: "miss"})
		reg.CounterFunc("engarde_gateway_fn_cache_evictions_total",
			"Function results evicted from the cache at capacity.",
			func() uint64 { return g.fnCache.Stats().Evictions })
		reg.GaugeFunc("engarde_gateway_fn_cache_entries",
			"Function results currently resident in the cache.",
			func() float64 { return float64(g.fnCache.Stats().Entries) })
		reg.GaugeFunc("engarde_gateway_fn_cache_resident_bytes",
			"Payload bytes resident in the function-result cache.",
			func() float64 { return float64(g.fnCache.Stats().Bytes) })
		if g.fnCache.RemoteEnabled() {
			reg.CounterFunc("engarde_gateway_fn_cache_remote_lookups_total",
				"Function results batch-fetched from fleet peers, by result.",
				func() uint64 { return g.fnCache.Stats().RemoteHits },
				obs.Label{Key: "result", Value: "hit"})
			reg.CounterFunc("engarde_gateway_fn_cache_remote_lookups_total", "",
				func() uint64 { return g.fnCache.Stats().RemoteMisses },
				obs.Label{Key: "result", Value: "miss"})
			reg.CounterFunc("engarde_gateway_fn_cache_remote_faults_total",
				"Failed or corrupt peer exchanges (feeds the remote circuit breaker).",
				func() uint64 { return g.fnCache.Stats().RemoteFaults })
			reg.CounterFunc("engarde_gateway_fn_cache_remote_trips_total",
				"Remote-tier circuit-breaker trips.",
				func() uint64 { return g.fnCache.Stats().RemoteTrips })
			reg.CounterFunc("engarde_gateway_fn_cache_remote_puts_total",
				"Function results pushed to fleet peers.",
				func() uint64 { return g.fnCache.Stats().RemotePuts })
		}
		reg.CounterFunc("engarde_gateway_fn_cache_peer_served_total",
			"Function results served to fleet peers over /memoz.",
			func() uint64 { return g.fnCache.Stats().PeerServed })
		reg.CounterFunc("engarde_gateway_fn_cache_peer_stored_total",
			"Function results stored on behalf of fleet peers over /memoz.",
			func() uint64 { return g.fnCache.Stats().PeerStored })
	}
	if g.counter != nil {
		for _, p := range cycles.AllPhases() {
			p := p
			reg.CounterFunc("engarde_cycles_total",
				"Cycle-model charges across all enclaves, by pipeline phase.",
				func() uint64 { return g.counter.Cycles(p) },
				obs.Label{Key: "phase", Value: p.String()})
		}
	}
	return m
}

// observeTrace feeds a finished session trace into the per-span duration
// histograms — the aggregate view (/metricsz) of what /tracez shows per
// session.
func (m *metrics) observeTrace(d *obs.TraceData) {
	if d == nil {
		return
	}
	for i := range d.Spans {
		sp := &d.Spans[i]
		m.spanHist(sp.Name).Observe(uint64(sp.Dur / time.Microsecond))
		if sp.Name == "first-byte-to-verdict" {
			// Also fold into the dedicated histogram so dashboards get the
			// headline number without a span-label query.
			m.firstByteVerdict.Observe(uint64(sp.Dur / time.Microsecond))
		}
	}
}

// spanHist lazily registers one duration series per span name. Span names
// are low-cardinality by construction: protocol steps, pipeline phases,
// disassembly passes, and "policy:<module>" for the configured module set.
func (m *metrics) spanHist(name string) *obs.Histogram {
	m.spanMu.Lock()
	defer m.spanMu.Unlock()
	h := m.spans[name]
	if h == nil {
		h = m.reg.Histogram("engarde_gateway_span_seconds",
			"Wall-clock span durations within provisioning sessions, by span name.",
			obs.HistogramOpts{Buckets: 28, Scale: 1e-6},
			obs.Label{Key: "span", Value: name})
		m.spans[name] = h
	}
	return h
}

// ObserveReadFrame implements secchan.FrameObserver: the gateway wraps each
// admitted connection with secchan.ObserveFrames(rw, g.metrics).
func (m *metrics) ObserveReadFrame(n int) { m.frameRead.Observe(uint64(n)) }

// ObserveWriteFrame implements secchan.FrameObserver.
func (m *metrics) ObserveWriteFrame(n int) { m.frameWrite.Observe(uint64(n)) }

// sessionFrames layers per-session frame-arrival timing over the shared
// size histograms: each admitted connection gets its own instance so the
// inter-frame gap is measured within a single session's inbound stream,
// not across interleaved sessions. It implements secchan.FrameTimeObserver;
// sessions are served by one worker, so no locking is needed.
type sessionFrames struct {
	m        *metrics
	lastRead time.Time
}

func (s *sessionFrames) ObserveReadFrame(n int)  { s.m.ObserveReadFrame(n) }
func (s *sessionFrames) ObserveWriteFrame(n int) { s.m.ObserveWriteFrame(n) }

func (s *sessionFrames) ObserveReadFrameAt(n int, at time.Time) {
	s.m.ObserveReadFrame(n)
	if !s.lastRead.IsZero() {
		s.m.frameGap.Observe(uint64(at.Sub(s.lastRead) / time.Microsecond))
	}
	s.lastRead = at
}

func (s *sessionFrames) ObserveWriteFrameAt(n int, at time.Time) {
	s.m.ObserveWriteFrame(n)
}
