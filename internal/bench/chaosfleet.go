package bench

// ChaosFleet: the failure-domain counterpart of RunFleetLoad. It stands up
// the same router-fronted topology — N gatewayd-shaped backends on real
// loopback TCP, each with its own provider and admin endpoints — but puts
// every backend's listening surface under a faults.ChaosListener so tests
// can crash a backend mid-session (listener gone, connections reset, admin
// endpoint dark) and later restart it on the same addresses with its
// platform key and EPC ledger intact. It is the engine behind the fleet
// chaos soak and the deterministic mid-stream failover regression test.

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"net"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"engarde"
	"engarde/internal/cluster"
	"engarde/internal/faults"
	"engarde/internal/gateway"
	"engarde/internal/obs"
	"engarde/internal/obs/fleet"
)

// ChaosFleetConfig configures one killable fleet.
type ChaosFleetConfig struct {
	// Backends is the number of gatewayd backends behind the router.
	// Required.
	Backends int
	// Policies is each backend's policy set; nil means stack-protector.
	Policies *engarde.PolicySet
	// EnclavePool, CacheEntries, MaxConcurrent configure each backend
	// (gateway semantics; zero values take gateway defaults).
	EnclavePool   int
	CacheEntries  int
	MaxConcurrent int
	// HeapPages/ClientPages size each session's enclave; 0 means 1500/512.
	HeapPages   int
	ClientPages int
	// HealthInterval/ProbeTimeout/MarkdownCooldown tune the router's
	// background prober (cluster semantics; HealthInterval 0 takes the
	// cluster default, negative disables).
	HealthInterval   time.Duration
	ProbeTimeout     time.Duration
	MarkdownCooldown time.Duration
}

// chaosBackend is one killable backend. Its session and admin addresses
// are fixed at fleet start and survive restarts, exactly like a daemon
// coming back on its configured ports.
type chaosBackend struct {
	name      string
	addr      string
	adminAddr string
	provider  *engarde.Provider
	gw        *gateway.Gateway
	sink      *obs.Sink
	mux       *http.ServeMux

	chaos    *faults.ChaosListener
	adminSrv *http.Server
	serveErr chan error
	down     bool
}

// ChaosFleet is a running router-fronted fleet whose backends can be
// crashed and restarted mid-run.
type ChaosFleet struct {
	// RouterAddr accepts provisioning sessions.
	RouterAddr string
	// Router exposes fleet-side stats to assertions.
	Router *cluster.Router
	// Client is a template carrying every backend's platform key and the
	// fleet's expected measurement; safe for concurrent use.
	Client *engarde.Client
	// RouterAdminURL serves the router's admin surface (/statsz, /metricsz,
	// /tracez, /fleetz, /debug/pprof/) — the scrape target of the fleet
	// observability hammer test.
	RouterAdminURL string

	cfg        ChaosFleetConfig
	backends   []*chaosBackend
	routerSink *obs.Sink
	routerAgg  *fleet.Aggregator
	adminSrv   *http.Server
	routerErr  chan error
}

// StartChaosFleet brings up the fleet: admin endpoints, backends, router.
// Callers own the fleet and must Close it.
func StartChaosFleet(cfg ChaosFleetConfig) (*ChaosFleet, error) {
	if cfg.Backends <= 0 {
		return nil, fmt.Errorf("bench: ChaosFleetConfig.Backends must be positive")
	}
	if cfg.Policies == nil {
		cfg.Policies = engarde.NewPolicySet(engarde.StackProtectorPolicy())
	}
	if cfg.HeapPages == 0 {
		cfg.HeapPages = 1500
	}
	if cfg.ClientPages == 0 {
		cfg.ClientPages = 512
	}

	f := &ChaosFleet{cfg: cfg, Client: &engarde.Client{}, routerErr: make(chan error, 1)}
	routerBackends := make([]cluster.Backend, cfg.Backends)
	for i := 0; i < cfg.Backends; i++ {
		provider, err := engarde.NewProvider(engarde.ProviderConfig{EPCPages: 32000})
		if err != nil {
			return nil, err
		}
		if i == 0 {
			f.Client.PlatformKey = provider.AttestationPublicKey()
		} else {
			f.Client.PlatformKeys = append(f.Client.PlatformKeys, provider.AttestationPublicKey())
		}
		// An in-memory trace sink per backend makes every backend a full
		// /tracez scrape target, so cross-process trace assertions and the
		// fleet aggregator see the same surface a real gatewayd serves.
		sink, err := obs.NewSink(0, "")
		if err != nil {
			return nil, err
		}
		gw, err := gateway.New(gateway.Config{
			Provider:       provider,
			Policies:       cfg.Policies,
			HeapPages:      cfg.HeapPages,
			ClientPages:    cfg.ClientPages,
			MaxConcurrent:  cfg.MaxConcurrent,
			CacheEntries:   cfg.CacheEntries,
			EnclavePool:    cfg.EnclavePool,
			FnCacheEntries: -1,
			TraceSink:      sink,
			// Tight deadlines: a chaos run wants sessions orphaned by a
			// crash reaped in seconds, not the daemon's patient minutes.
			IdleTimeout:   5 * time.Second,
			SessionBudget: 30 * time.Second,
		})
		if err != nil {
			return nil, err
		}
		b := &chaosBackend{
			name:     fmt.Sprintf("b%d", i),
			provider: provider,
			gw:       gw,
			sink:     sink,
			serveErr: make(chan error, 1),
		}
		b.mux = http.NewServeMux()
		b.mux.Handle("/statsz", gw.StatsHandler())
		b.mux.Handle("/metricsz", gw.MetricsHandler())
		b.mux.Handle("/tracez", sink.Handler())
		b.mux.Handle("/healthz", gw.HealthzHandler())
		b.mux.Handle("/readyz", gw.ReadyzHandler())

		adminLn, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return nil, err
		}
		b.adminAddr = adminLn.Addr().String()
		b.adminSrv = &http.Server{Handler: b.mux}
		go func(srv *http.Server, ln net.Listener) { _ = srv.Serve(ln) }(b.adminSrv, adminLn)

		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return nil, err
		}
		b.addr = ln.Addr().String()
		b.chaos = faults.WrapListener(ln)
		go func(b *chaosBackend) { b.serveErr <- b.gw.Serve(context.Background(), b.chaos) }(b)

		f.backends = append(f.backends, b)
		routerBackends[i] = cluster.Backend{
			Name: b.name, Addr: b.addr, AdminURL: "http://" + b.adminAddr,
		}
	}

	routerSink, err := obs.NewSink(0, "")
	if err != nil {
		return nil, err
	}
	f.routerSink = routerSink
	router, err := cluster.NewRouter(cluster.RouterConfig{
		Backends:         routerBackends,
		HealthInterval:   cfg.HealthInterval,
		ProbeTimeout:     cfg.ProbeTimeout,
		MarkdownCooldown: cfg.MarkdownCooldown,
		TraceSink:        routerSink,
	})
	if err != nil {
		return nil, err
	}
	routerLn, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	f.Router = router
	f.RouterAddr = routerLn.Addr().String()
	go func() { f.routerErr <- router.Serve(context.Background(), routerLn) }()

	// The router's admin surface mirrors engarde-router -stats-addr -pprof:
	// stats, metrics, route traces, the fleet aggregation view, and pprof.
	targets := make([]fleet.Backend, cfg.Backends)
	for i, rb := range routerBackends {
		targets[i] = fleet.Backend{
			Name:       rb.Name,
			MetricsURL: rb.AdminURL + "/metricsz",
			TracesURL:  rb.AdminURL + "/tracez",
		}
	}
	f.routerAgg = fleet.New(fleet.Config{
		Backends: targets,
		Interval: 250 * time.Millisecond, // chaos tests want fresh views, not daemon cadences
		Self:     router.Registry(),
		SelfSink: routerSink,
	})
	adminMux := http.NewServeMux()
	adminMux.Handle("/statsz", router.StatsHandler())
	adminMux.Handle("/metricsz", router.MetricsHandler())
	adminMux.Handle("/tracez", router.TracezHandler())
	adminMux.Handle("/fleetz", f.routerAgg.Handler())
	obs.MountPprof(adminMux)
	adminLn, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	f.RouterAdminURL = "http://" + adminLn.Addr().String()
	f.adminSrv = &http.Server{Handler: adminMux}
	go func(srv *http.Server, ln net.Listener) { _ = srv.Serve(ln) }(f.adminSrv, adminLn)

	expected, err := engarde.ExpectedMeasurement(engarde.SGXv2, engarde.EnclaveConfig{
		HeapPages: cfg.HeapPages, ClientPages: cfg.ClientPages,
	})
	if err != nil {
		return nil, err
	}
	f.Client.Expected = expected
	return f, nil
}

// Dial opens one session connection to the router.
func (f *ChaosFleet) Dial() (net.Conn, error) {
	return net.Dial("tcp", f.RouterAddr)
}

// BackendName returns backend i's router-side name.
func (f *ChaosFleet) BackendName(i int) string { return f.backends[i].name }

// Gateway returns backend i's gateway for stats assertions.
func (f *ChaosFleet) Gateway(i int) *gateway.Gateway { return f.backends[i].gw }

// Provider returns backend i's provider; its EPC ledger spans restarts.
func (f *ChaosFleet) Provider(i int) *engarde.Provider { return f.backends[i].provider }

// Sink returns backend i's in-memory trace sink (what its /tracez serves).
func (f *ChaosFleet) Sink(i int) *obs.Sink { return f.backends[i].sink }

// RouterSink returns the router's route-trace sink.
func (f *ChaosFleet) RouterSink() *obs.Sink { return f.routerSink }

// AdminURL returns backend i's admin base URL (statsz/metricsz/tracez).
func (f *ChaosFleet) AdminURL(i int) string { return "http://" + f.backends[i].adminAddr }

// Kill crashes backend i: session listener and every in-flight connection
// reset, admin endpoint dark. The gateway object survives (its enclave
// pool, caches, and EPC ledger are host state the next Restart reuses).
func (f *ChaosFleet) Kill(i int) {
	b := f.backends[i]
	if b.down {
		return
	}
	b.down = true
	b.chaos.Kill()
	b.adminSrv.Close()
	<-b.serveErr // the serve loop exits on the dead listener
	// Re-scrape now: the aggregator caches its view for one interval, and
	// a view cached just before the kill would still show the backend up.
	f.routerAgg.ScrapeOnce(context.Background())
}

// Restart brings backend i back on its original session and admin
// addresses with the same platform key.
func (f *ChaosFleet) Restart(i int) error {
	b := f.backends[i]
	if !b.down {
		return nil
	}
	ln, err := net.Listen("tcp", b.addr)
	if err != nil {
		return fmt.Errorf("bench: restarting %s: %w", b.name, err)
	}
	b.chaos = faults.WrapListener(ln)
	go func(b *chaosBackend, cl *faults.ChaosListener) {
		b.serveErr <- b.gw.Serve(context.Background(), cl)
	}(b, b.chaos)

	adminLn, err := net.Listen("tcp", b.adminAddr)
	if err != nil {
		ln.Close()
		return fmt.Errorf("bench: restarting %s admin: %w", b.name, err)
	}
	b.adminSrv = &http.Server{Handler: b.mux}
	go func(srv *http.Server, aln net.Listener) { _ = srv.Serve(aln) }(b.adminSrv, adminLn)
	b.down = false
	return nil
}

// Close drains the router and every live backend. Sessions in flight get
// the usual graceful-shutdown treatment; dead backends are left dead.
func (f *ChaosFleet) Close() error {
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	var firstErr error
	keep := func(err error) {
		if err != nil && firstErr == nil {
			firstErr = err
		}
	}
	f.routerAgg.Stop()
	f.adminSrv.Close()
	keep(f.Router.Shutdown(ctx))
	keep(<-f.routerErr)
	for _, b := range f.backends {
		keep(b.gw.Shutdown(ctx))
		if !b.down {
			<-b.serveErr
			b.adminSrv.Close()
		}
	}
	return firstErr
}

// FleetFailoverConfig configures RunFleetFailover.
type FleetFailoverConfig struct {
	// Backends is the fleet size; 0 means 3.
	Backends int
	// Images are provisioned round-robin; all must be compliant under
	// Policies. Required.
	Images [][]byte
	// Sessions is the total session count. Required.
	Sessions int
	// Clients is the number of concurrent client goroutines; 0 means 2.
	Clients int
	// Policies is the policy set; nil means stack-protector.
	Policies *engarde.PolicySet
}

// FleetFailoverResult reports one failover load run: throughput and
// latency with a backend crash in the middle of the run, and how much of
// the fleet's machinery (client-side session failover, router-side
// successor retry) it took to keep sessions completing.
type FleetFailoverResult struct {
	Elapsed        time.Duration
	SessionsPerSec float64
	// Completed/Dropped partition the sessions: dropped sessions exhausted
	// the client's failover budget (an availability cost; any verdict
	// anomaly fails the run instead).
	Completed uint64
	Dropped   uint64
	// ClientFailovers counts OnFailover firings — sessions replayed against
	// another endpoint after losing their backend mid-flight.
	ClientFailovers uint64
	// RouterFailovers/SplicesEvicted are the router's own view: dials
	// diverted off a dead owner, and in-flight splices reset with a typed
	// backend-lost verdict.
	RouterFailovers uint64
	SplicesEvicted  uint64
	// Latency is the distribution over all completed sessions;
	// FailoverLatency the subset that failed over at least once — their
	// difference is what a mid-session crash costs a client that survives
	// it.
	Latency         LatencyQuantiles
	FailoverLatency *LatencyQuantiles
	// SlowestTraceID identifies the slowest completed session's distributed
	// trace, and FailedOverTraceIDs the sessions that survived a failover —
	// the drill-down handles: grep them in any hop's traces.jsonl or load
	// the Chrome export to see where the time went.
	SlowestTraceID     string
	FailedOverTraceIDs []string
}

// RunFleetFailover drives cfg.Sessions announced sessions through a
// router-fronted fleet, crashes backend 0 a third of the way in, restarts
// it at two thirds, and reports throughput plus the failover accounting.
// Verdict caches are off so every session pays the full pipeline and the
// latency contrast isolates the failover cost.
func RunFleetFailover(cfg FleetFailoverConfig) (*FleetFailoverResult, error) {
	if len(cfg.Images) == 0 {
		return nil, fmt.Errorf("bench: FleetFailoverConfig.Images is required")
	}
	if cfg.Sessions <= 0 {
		return nil, fmt.Errorf("bench: FleetFailoverConfig.Sessions must be positive")
	}
	if cfg.Backends == 0 {
		cfg.Backends = 3
	}
	if cfg.Clients == 0 {
		cfg.Clients = 2
	}
	fleet, err := StartChaosFleet(ChaosFleetConfig{
		Backends:       cfg.Backends,
		Policies:       cfg.Policies,
		CacheEntries:   -1,
		HealthInterval: -1, // dial results police health; no prober jitter
	})
	if err != nil {
		return nil, err
	}
	fleet.Client.Route = &engarde.RouteHello{Tenant: "failover-bench"}

	// The victim is the ring owner of the first image's digest: sessions
	// for that digest are spliced to it, so a kill timed to one of its
	// active splices is a mid-stream crash the client must survive — not
	// one the router can absorb invisibly at dial time.
	sum := sha256.Sum256(cfg.Images[0])
	ring := cluster.NewRing(cluster.DefaultVnodes)
	for i := 0; i < cfg.Backends; i++ {
		ring.Add(fleet.BackendName(i))
	}
	victimName, _ := ring.Owner(hex.EncodeToString(sum[:]))
	victim := 0
	for i := 0; i < cfg.Backends; i++ {
		if fleet.BackendName(i) == victimName {
			victim = i
		}
	}

	var (
		finished        atomic.Uint64 // completed + dropped, drives the kill script
		completed       atomic.Uint64
		dropped         atomic.Uint64
		clientFailovers atomic.Uint64
		mu              sync.Mutex
		all, moved      []time.Duration
		slowest         time.Duration
		slowestTraceID  string
		movedTraceIDs   []string
	)

	// The kill script: the victim crashes after a third of the sessions —
	// timed to an instant it has a splice in flight — and comes back after
	// two thirds, so the run has healthy, degraded, and recovered phases.
	killAt, restartAt := uint64(cfg.Sessions/3), uint64(2*cfg.Sessions/3)
	ctlDone := make(chan struct{})
	go func() {
		defer close(ctlDone)
		for finished.Load() < killAt {
			time.Sleep(time.Millisecond)
		}
		deadline := time.Now().Add(5 * time.Second)
		for time.Now().Before(deadline) {
			if fleet.Router.Stats().Backends[victimName].Active > 0 {
				break
			}
			time.Sleep(time.Millisecond)
		}
		fleet.Kill(victim)
		for finished.Load() < restartAt {
			time.Sleep(time.Millisecond)
		}
		for fleet.Restart(victim) != nil {
			time.Sleep(5 * time.Millisecond)
		}
	}()

	next := make(chan int)
	errs := make(chan error, cfg.Clients)
	start := time.Now()
	var wg sync.WaitGroup
	for c := 0; c < cfg.Clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			dials := make([]func() (net.Conn, error), cfg.Backends)
			for i := range dials {
				dials[i] = fleet.Dial
			}
			for i := range next {
				image := cfg.Images[i%len(cfg.Images)]
				var moves int
				// Every session originates its own distributed trace; the
				// IDs of interesting sessions (slowest, failed-over) come
				// out in the result for drill-down.
				tr := obs.NewTrace("provision", nil)
				s0 := time.Now()
				v, err := fleet.Client.ProvisionFailover(dials, image, engarde.RetryPolicy{
					Attempts:  8,
					BaseDelay: time.Millisecond,
					MaxDelay:  50 * time.Millisecond,
					Seed:      int64(c + 1),
					Trace:     tr,
					OnFailover: func(int, int, error) {
						moves++
						clientFailovers.Add(1)
					},
				})
				d := time.Since(s0)
				tr.Finish()
				finished.Add(1)
				if err != nil {
					dropped.Add(1)
					continue
				}
				if !v.Compliant {
					errs <- fmt.Errorf("bench: session %d rejected under failover: %s", i, v.Reason)
					break
				}
				completed.Add(1)
				mu.Lock()
				all = append(all, d)
				if d > slowest {
					slowest, slowestTraceID = d, tr.ID()
				}
				if moves > 0 {
					moved = append(moved, d)
					movedTraceIDs = append(movedTraceIDs, tr.ID())
				}
				mu.Unlock()
			}
			for range next {
				finished.Add(1)
			}
		}(c)
	}
	for i := 0; i < cfg.Sessions; i++ {
		next <- i
	}
	close(next)
	wg.Wait()
	elapsed := time.Since(start)
	<-ctlDone

	rs := fleet.Router.Stats()
	if err := fleet.Close(); err != nil {
		return nil, fmt.Errorf("bench: fleet shutdown: %w", err)
	}
	select {
	case err := <-errs:
		return nil, err
	default:
	}

	res := &FleetFailoverResult{
		Elapsed:         elapsed,
		SessionsPerSec:  float64(completed.Load()) / elapsed.Seconds(),
		Completed:       completed.Load(),
		Dropped:         dropped.Load(),
		ClientFailovers: clientFailovers.Load(),
		RouterFailovers: rs.Failovers,
		SplicesEvicted:  rs.SplicesEvicted,
	}
	if len(all) > 0 {
		res.Latency = *exactQuantiles(all)
		res.SlowestTraceID = slowestTraceID
	}
	if len(moved) > 0 {
		res.FailoverLatency = exactQuantiles(moved)
		res.FailedOverTraceIDs = movedTraceIDs
	}
	return res, nil
}
