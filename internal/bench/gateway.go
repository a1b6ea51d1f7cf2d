package bench

// Gateway load generation: RunGatewayLoad stands up an in-memory gateway
// (internal/gateway over net.Pipe, no sockets) and drives a configurable
// number of concurrent clients through the full provisioning protocol —
// attestation, key exchange, encrypted transfer, verdict. It is the
// engine behind BenchmarkGatewayThroughput, which contrasts cold
// provisioning (full disassembly + policy checking per session) with
// verdict-cache hits.

import (
	"context"
	"fmt"
	"math"
	"net"
	"sort"
	"sync"
	"time"

	"engarde"
	"engarde/internal/cycles"
	"engarde/internal/gateway"
	"engarde/internal/obs"
	"engarde/internal/toolchain"
)

// memListener is an in-memory net.Listener over net.Pipe so the load
// generator exercises the gateway without real sockets.
type memListener struct {
	conns chan net.Conn
	done  chan struct{}
	once  sync.Once
}

func newMemListener() *memListener {
	return &memListener{conns: make(chan net.Conn), done: make(chan struct{})}
}

func (l *memListener) Accept() (net.Conn, error) {
	select {
	case c := <-l.conns:
		return c, nil
	case <-l.done:
		return nil, net.ErrClosed
	}
}

func (l *memListener) Close() error {
	l.once.Do(func() { close(l.done) })
	return nil
}

type memAddr struct{}

func (memAddr) Network() string { return "mem" }
func (memAddr) String() string  { return "mem" }

func (l *memListener) Addr() net.Addr { return memAddr{} }

func (l *memListener) dial() (net.Conn, error) {
	cli, srv := net.Pipe()
	select {
	case l.conns <- srv:
		return cli, nil
	case <-l.done:
		cli.Close()
		return nil, net.ErrClosed
	}
}

// GatewayLoadConfig configures one load run.
type GatewayLoadConfig struct {
	// Policies is the policy set the gateway checks against; nil means the
	// stack-protector policy (the paper's Figure 4 experiment).
	Policies *engarde.PolicySet
	// Images are provisioned round-robin across sessions. All must be
	// compliant under Policies. Required.
	Images [][]byte
	// Sessions is the total number of provisioning sessions. Required.
	Sessions int
	// Clients is the number of concurrent client goroutines; 0 means 4.
	Clients int
	// MaxConcurrent is the gateway worker-pool size; 0 means the gateway
	// default.
	MaxConcurrent int
	// CacheEntries configures the verdict cache (gateway semantics:
	// 0 default, negative disabled).
	CacheEntries int
	// FnCacheEntries, when positive, shares a function-result cache of
	// that capacity across the run's sessions (warm-path provisioning).
	// 0 or negative leaves it disabled, so load runs isolate whichever
	// effect they are measuring.
	FnCacheEntries int
	// HeapPages/ClientPages size each session's enclave; 0 means 1500/512.
	HeapPages   int
	ClientPages int
	// DisasmWorkers/PolicyWorkers shard each session's disassembly and
	// policy passes (gateway semantics: 0 = GOMAXPROCS, 1 = sequential).
	DisasmWorkers int
	PolicyWorkers int
	// EnclavePool, when positive, runs the gateway with that many warm
	// snapshot-cloned enclaves (pool-checkout replaces create-enclave on
	// warm sessions). 0 disables pooling.
	EnclavePool int
	// PoolRefillWorkers sizes the pool's background refill worker set
	// (gateway semantics: 0 = default). Ignored when EnclavePool is 0.
	PoolRefillWorkers int
	// BlockSize, when positive, sets the client's secure-channel frame size
	// in bytes (0 = the 64 KiB default). Smaller frames give the streaming
	// pipeline finer-grained transfer/decode overlap.
	BlockSize int
	// LinkBytesPerSec, when positive, paces every client write to that
	// bandwidth, emulating a WAN uplink. On an unpaced in-memory pipe the
	// whole transfer lands in microseconds and there is no receive idle
	// for the streaming pipeline to fill; a paced link is the deployment
	// shape the first-byte-to-verdict contrast is about. 0 = unpaced.
	LinkBytesPerSec int
}

// pacedConn throttles writes to LinkBytesPerSec: each Write sleeps for
// the time its bytes would occupy the emulated link before handing them
// to the pipe, so the receiver sees frames arrive on a bandwidth-bound
// schedule rather than all at once.
type pacedConn struct {
	net.Conn
	bytesPerSec int
}

func (p *pacedConn) Write(b []byte) (int, error) {
	time.Sleep(time.Duration(len(b)) * time.Second / time.Duration(p.bytesPerSec))
	return p.Conn.Write(b)
}

// LatencyQuantiles summarizes a load run's per-session latency
// distribution: upper-bound estimates from a log₂ histogram, in
// milliseconds, as seen by the clients (connect to verdict, including
// shed-and-retry backoff).
type LatencyQuantiles struct {
	Count uint64  `json:"count"`
	Mean  float64 `json:"mean_ms"`
	P50   float64 `json:"p50_ms"`
	P95   float64 `json:"p95_ms"`
	P99   float64 `json:"p99_ms"`
}

// GatewayLoadResult reports one load run.
type GatewayLoadResult struct {
	Elapsed        time.Duration
	SessionsPerSec float64
	// Latency is the client-observed per-session latency distribution.
	Latency LatencyQuantiles
	// SpanMillis totals wall-clock time per trace span name across all
	// sessions — where the run's time went (attest, disasm, policy:*, ...).
	SpanMillis map[string]float64
	// SpanCycles totals the cycle-model charges attributed to phase spans,
	// keyed by pipeline phase name.
	SpanCycles map[string]uint64
	// FirstByteToVerdict is the distribution of the server-side
	// first-byte-to-verdict span — arrival of the first image byte to the
	// verdict hitting the wire. Unlike Latency (log₂ histogram upper
	// bounds), these quantiles are exact: the sink retains every session's
	// spans, so they are computed from the raw durations. The streaming
	// win is a fraction of a session, which log₂ buckets would round
	// away. Nil when no session recorded the span.
	FirstByteToVerdict *LatencyQuantiles
	// FirstByteToVerdictRaw holds the raw per-session durations backing
	// FirstByteToVerdict, sorted ascending.
	FirstByteToVerdictRaw []time.Duration
	Stats                 gateway.Stats
}

// RunGatewayLoad drives cfg.Sessions provisioning sessions through a
// fresh gateway and returns throughput plus the gateway's own stats
// snapshot. Any non-compliant verdict or protocol error fails the run.
func RunGatewayLoad(cfg GatewayLoadConfig) (*GatewayLoadResult, error) {
	if len(cfg.Images) == 0 {
		return nil, fmt.Errorf("bench: GatewayLoadConfig.Images is required")
	}
	if cfg.Sessions <= 0 {
		return nil, fmt.Errorf("bench: GatewayLoadConfig.Sessions must be positive")
	}
	if cfg.Policies == nil {
		cfg.Policies = engarde.NewPolicySet(engarde.StackProtectorPolicy())
	}
	if cfg.Clients == 0 {
		cfg.Clients = 4
	}
	if cfg.HeapPages == 0 {
		cfg.HeapPages = 1500
	}
	if cfg.ClientPages == 0 {
		cfg.ClientPages = 512
	}

	// A run-private counter meters the provisioning work so the traces'
	// phase spans carry cycle attributions (SpanCycles in the result).
	counter := cycles.NewCounter(cycles.DefaultModel())
	provider, err := engarde.NewProvider(engarde.ProviderConfig{EPCPages: 32000, Counter: counter})
	if err != nil {
		return nil, err
	}
	fnEntries := cfg.FnCacheEntries
	if fnEntries <= 0 {
		fnEntries = -1
	}
	// The sink retains every session's trace so span totals cover the whole
	// run; the latency histogram records client-side microseconds.
	sink, err := obs.NewSink(cfg.Sessions, "")
	if err != nil {
		return nil, err
	}
	latReg := obs.NewRegistry()
	latHist := latReg.Histogram("bench_session_micros", "", obs.HistogramOpts{Buckets: 32})
	gw, err := gateway.New(gateway.Config{
		Provider:          provider,
		Policies:          cfg.Policies,
		HeapPages:         cfg.HeapPages,
		ClientPages:       cfg.ClientPages,
		DisasmWorkers:     cfg.DisasmWorkers,
		PolicyWorkers:     cfg.PolicyWorkers,
		MaxConcurrent:     cfg.MaxConcurrent,
		EnclavePool:       cfg.EnclavePool,
		PoolRefillWorkers: cfg.PoolRefillWorkers,
		CacheEntries:      cfg.CacheEntries,
		FnCacheEntries:    fnEntries,
		IdleTimeout:       -1, // in-memory pipes; deadlines only add noise
		SessionBudget:     -1,
		TraceSink:         sink,
	})
	if err != nil {
		return nil, err
	}
	expected, err := engarde.ExpectedMeasurement(engarde.SGXv2, engarde.EnclaveConfig{
		HeapPages: cfg.HeapPages, ClientPages: cfg.ClientPages,
	})
	if err != nil {
		return nil, err
	}
	client := &engarde.Client{
		Expected:    expected,
		PlatformKey: provider.AttestationPublicKey(),
		BlockSize:   cfg.BlockSize,
	}

	// A pooled run measures the steady state of a pre-warmed gateway, so
	// wait for the initial fill (background keygen per clone) before
	// opening the floodgates — exactly what a production deployment's
	// readiness gate does.
	if cfg.EnclavePool > 0 {
		fillDeadline := time.Now().Add(time.Minute)
		for {
			s := gw.Stats()
			if s.Pool != nil && s.Pool.Depth >= cfg.EnclavePool {
				break
			}
			if time.Now().After(fillDeadline) {
				return nil, fmt.Errorf("bench: enclave pool never reached target depth %d", cfg.EnclavePool)
			}
			time.Sleep(2 * time.Millisecond)
		}
	}

	ln := newMemListener()
	serveErr := make(chan error, 1)
	go func() { serveErr <- gw.Serve(context.Background(), ln) }()
	dial := ln.dial
	if cfg.LinkBytesPerSec > 0 {
		dial = func() (net.Conn, error) {
			c, err := ln.dial()
			if err != nil {
				return nil, err
			}
			return &pacedConn{Conn: c, bytesPerSec: cfg.LinkBytesPerSec}, nil
		}
	}

	// Sessions are fanned out to cfg.Clients goroutines; each pulls the
	// next session index and provisions images[i % len(images)].
	next := make(chan int)
	errs := make(chan error, cfg.Clients)
	start := time.Now()
	var wg sync.WaitGroup
	for c := 0; c < cfg.Clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			// The gateway sheds with a busy verdict when its queue is
			// full, so each session retries with backoff rather than
			// failing the run. Seeded per client for reproducible runs.
			policy := engarde.RetryPolicy{
				Attempts:  10,
				BaseDelay: time.Millisecond,
				MaxDelay:  100 * time.Millisecond,
				Seed:      int64(c + 1),
			}
			for i := range next {
				image := cfg.Images[i%len(cfg.Images)]
				t0 := time.Now()
				v, err := client.ProvisionRetry(dial, image, policy)
				if err != nil {
					errs <- fmt.Errorf("session %d: %w", i, err)
					break
				}
				latHist.Observe(uint64(time.Since(t0) / time.Microsecond))
				if !v.Compliant {
					errs <- fmt.Errorf("session %d rejected: %s", i, v.Reason)
					break
				}
			}
			// Drain so the producer never blocks on a dead worker set.
			for range next {
			}
		}()
	}
	for i := 0; i < cfg.Sessions; i++ {
		next <- i
	}
	close(next)
	wg.Wait()
	elapsed := time.Since(start)

	shutCtx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	if err := gw.Shutdown(shutCtx); err != nil {
		return nil, fmt.Errorf("bench: gateway shutdown: %w", err)
	}
	if err := <-serveErr; err != nil {
		return nil, fmt.Errorf("bench: gateway serve: %w", err)
	}
	select {
	case err := <-errs:
		return nil, err
	default:
	}

	res := &GatewayLoadResult{
		Elapsed:        elapsed,
		SessionsPerSec: float64(cfg.Sessions) / elapsed.Seconds(),
		SpanMillis:     make(map[string]float64),
		SpanCycles:     make(map[string]uint64),
		Stats:          gw.Stats(),
	}
	if n := latHist.Count(); n > 0 {
		res.Latency = LatencyQuantiles{
			Count: n,
			Mean:  float64(latHist.Sum()) / float64(n) / 1e3,
			P50:   float64(latHist.Quantile(0.50)) / 1e3,
			P95:   float64(latHist.Quantile(0.95)) / 1e3,
			P99:   float64(latHist.Quantile(0.99)) / 1e3,
		}
	}
	var fbtv []time.Duration
	for _, td := range sink.Recent() {
		for i := range td.Spans {
			sp := &td.Spans[i]
			res.SpanMillis[sp.Name] += float64(sp.Dur) / float64(time.Millisecond)
			for phase, cyc := range sp.Cycles {
				res.SpanCycles[phase] += cyc
			}
			if sp.Name == "first-byte-to-verdict" {
				fbtv = append(fbtv, sp.Dur)
			}
		}
	}
	if len(fbtv) > 0 {
		res.FirstByteToVerdict = exactQuantiles(fbtv)
		res.FirstByteToVerdictRaw = fbtv
	}
	return res, nil
}

// exactQuantiles summarizes raw durations with nearest-rank quantiles,
// in milliseconds.
func exactQuantiles(ds []time.Duration) *LatencyQuantiles {
	sort.Slice(ds, func(i, j int) bool { return ds[i] < ds[j] })
	var sum time.Duration
	for _, d := range ds {
		sum += d
	}
	rank := func(q float64) float64 {
		i := int(math.Ceil(q*float64(len(ds)))) - 1
		if i < 0 {
			i = 0
		}
		return float64(ds[i]) / float64(time.Millisecond)
	}
	return &LatencyQuantiles{
		Count: uint64(len(ds)),
		Mean:  float64(sum) / float64(len(ds)) / float64(time.Millisecond),
		P50:   rank(0.50),
		P95:   rank(0.95),
		P99:   rank(0.99),
	}
}

// DistinctImages builds n byte-distinct stack-protected executables, so a
// load run over them never hits the verdict cache.
func DistinctImages(n int) ([][]byte, error) {
	return DistinctImagesSized(n, 60, 200)
}

// DistinctImagesSized is DistinctImages with an explicit image size, for
// runs that need the provisioning pipeline (disassembly + policy checks,
// which scale with instruction count) to dominate the fixed per-session
// handshake cost.
func DistinctImagesSized(n, numFuncs, avgFuncInsts int) ([][]byte, error) {
	images := make([][]byte, n)
	for i := range images {
		bin, err := toolchain.Build(toolchain.Config{
			Name: fmt.Sprintf("load%d", i), Seed: int64(7000 + i),
			NumFuncs: numFuncs, AvgFuncInsts: avgFuncInsts,
			StackProtector: true,
		})
		if err != nil {
			return nil, err
		}
		images[i] = bin.Image
	}
	return images, nil
}
