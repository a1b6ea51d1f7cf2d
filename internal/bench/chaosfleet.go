package bench

// ChaosFleet: the repository's one multi-process fleet fixture. It stands
// up the topology engarde-router and engarde-gatewayd form in production —
// N backends on real loopback TCP, each with its own provider and the
// gateway's AdminHandler, behind one router serving its AdminHandler plus
// /fleetz and pprof — and puts every backend's listening surface under a
// faults.ChaosListener, so tests can crash a backend mid-session (listener
// gone, connections reset, admin endpoint dark) and later restart it on
// the same addresses with its platform key and EPC ledger intact. It is
// the engine behind the fleet routing, memo-sharing, tracing and chaos
// tests; load measurement belongs to perfbench.

import (
	"context"
	"fmt"
	"net"
	"net/http"
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
	// CacheEntries, MaxConcurrent configure each backend (gateway
	// semantics; zero values take gateway defaults).
	CacheEntries  int
	MaxConcurrent int
	// SharedFnCache turns on every backend's function-result cache and
	// points its remote tier at all the other backends' /memoz/, so
	// warm-path state crosses nodes. Off, the cache is disabled.
	SharedFnCache bool
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
	// /healthz, /readyz, /tracez, /fleetz, /debug/pprof/) — the scrape
	// target of the fleet observability hammer test.
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
	// Admin listeners come up first: their addresses are the peers each
	// backend's fn-cache remote tier is configured with.
	adminLns := make([]net.Listener, cfg.Backends)
	for i := range adminLns {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return nil, err
		}
		adminLns[i] = ln
	}
	fnEntries := -1
	if cfg.SharedFnCache {
		fnEntries = 0 // the gateway default capacity
	}
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
		var peers []string
		if cfg.SharedFnCache {
			for j, ln := range adminLns {
				if j != i {
					peers = append(peers, "http://"+ln.Addr().String()+"/memoz")
				}
			}
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
			FnCacheEntries: fnEntries,
			FnCachePeers:   peers,
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
			name:      fmt.Sprintf("b%d", i),
			adminAddr: adminLns[i].Addr().String(),
			provider:  provider,
			gw:        gw,
			sink:      sink,
			mux:       gw.AdminHandler(),
			serveErr:  make(chan error, 1),
		}
		b.adminSrv = &http.Server{Handler: b.mux}
		go func(srv *http.Server, ln net.Listener) { _ = srv.Serve(ln) }(b.adminSrv, adminLns[i])

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

	// The router's admin surface is engarde-router -stats-addr -pprof: its
	// AdminHandler plus the fleet aggregation view and pprof.
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
	adminMux := router.AdminHandler()
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

// AdminURL returns backend i's admin base URL (the gateway AdminHandler).
func (f *ChaosFleet) AdminURL(i int) string { return "http://" + f.backends[i].adminAddr }

// Kill crashes backend i: session listener and every in-flight connection
// reset, admin endpoint dark. The gateway object survives (its snapshot
// template, caches, and EPC ledger are host state the next Restart reuses).
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
