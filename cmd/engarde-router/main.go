// Command engarde-router is the fleet front door: an L4 proxy that spreads
// provisioning sessions across a pool of engarde-gatewayd backends.
//
// Routing is digest-affine. A client that sends the plaintext RouteHello
// preamble (engarde-client -announce) is routed to the consistent-hash
// ring owner of its image digest, so repeat provisions of the same image
// land on the gatewayd whose verdict and function-result caches are
// already warm. Anonymous clients — and announced clients whose owner is
// down — fall back to the least-loaded healthy backend. The router never
// joins the enclave protocol: the secure channel's session key is wrapped
// to the backend enclave, so the router can only splice bytes.
//
// Usage:
//
//	engarde-router -listen 127.0.0.1:7700 \
//	               -backend a=127.0.0.1:7779,http://127.0.0.1:7780 \
//	               -backend b=127.0.0.1:7789,http://127.0.0.1:7790 \
//	               -tenant-rate 50 -tenant-burst 100 \
//	               -stats-addr 127.0.0.1:7701
//
// Each -backend is name=addr[,adminURL]. The admin URL, when given, is
// probed at <adminURL>/readyz every -health-interval; a 503 (a draining
// gatewayd) marks the backend down for -markdown-cooldown. Saturated
// backends answer sessions with a Busy verdict carrying a Retry-After
// hint; the router forwards that hint to shed clients so fleet-wide
// backoff matches what the saturated backend asked for.
//
// The stats address serves /statsz, /metricsz, /healthz, /readyz, /tracez
// (recent route traces: peek, dial, splice, failover spans), and /fleetz —
// the fleet aggregation view. /fleetz scrapes every backend's admin URL on
// a cadence (-fleet-interval), merges the latency histograms into
// fleet-level quantiles, derives an SLO/error-budget block, and serves
// JSON (default) or a backend-labeled merged Prometheus exposition
// (?format=prom). -pprof adds live profiling, same as engarde-gatewayd.
// Routing and scrape diagnostics (dead backends, dial and hello errors)
// are logged at debug level.
//
// SIGINT/SIGTERM drain gracefully: the listener closes, /readyz flips to
// 503, in-flight splices finish (up to -drain-timeout), and new arrivals
// are shed with a Busy verdict. A second signal force-closes connections.
package main

import (
	"context"
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"engarde/internal/cluster"
	"engarde/internal/obs"
	"engarde/internal/obs/fleet"
)

func main() {
	var backends []cluster.Backend
	flag.Func("backend", "backend as name=addr[,adminURL]; repeat per backend", func(s string) error {
		b, err := parseBackend(s)
		if err != nil {
			return err
		}
		backends = append(backends, b)
		return nil
	})
	var (
		listen           = flag.String("listen", "127.0.0.1:7700", "address to accept provisioning sessions on")
		vnodes           = flag.Int("vnodes", cluster.DefaultVnodes, "virtual nodes per backend on the hash ring")
		peekTimeout      = flag.Duration("peek-timeout", cluster.DefaultPeekTimeout, "how long to wait for a client's routing preamble before least-loaded fallback")
		dialTimeout      = flag.Duration("dial-timeout", cluster.DefaultDialTimeout, "per-backend dial deadline")
		retryAfter       = flag.Duration("retry-after", 0, "Retry-After hint for sheds with no backend hint to forward (0 = gateway default)")
		healthInterval   = flag.Duration("health-interval", cluster.DefaultHealthInterval, "period of the background /readyz probe of each backend admin URL (negative disables)")
		probeTimeout     = flag.Duration("probe-timeout", cluster.DefaultProbeTimeout, "deadline for one /readyz probe; a wedged backend costs one timeout, never the prober loop")
		markdownCooldown = flag.Duration("markdown-cooldown", cluster.DefaultMarkdownCooldown, "how long a failed backend stays out of rotation")
		tenantRate       = flag.Float64("tenant-rate", 0, "per-tenant admitted sessions per second (0 disables quotas)")
		tenantBurst      = flag.Int("tenant-burst", 0, "per-tenant burst size (0 = ceil(rate), min 1)")
		drainTimeout     = flag.Duration("drain-timeout", time.Minute, "how long shutdown waits for in-flight sessions; expiring it exits non-zero")
		statsAddr        = flag.String("stats-addr", "", "serve /statsz, /metricsz, /healthz, /readyz, /tracez, /fleetz at this address (empty disables)")
		fleetInterval    = flag.Duration("fleet-interval", 0, "cadence of the /fleetz backend scrape (0 = default 5s)")
		availTarget      = flag.Float64("availability-target", 0, "fleet availability SLO for the /fleetz error-budget block (0 = default 0.999)")

		logLevel  = flag.String("log-level", "info", "minimum log level (debug, info, warn, error)")
		logFormat = flag.String("log-format", "text", "log record format (text, json)")
		traceDir  = flag.String("trace-dir", "", "write every route's trace here: traces.jsonl plus one Chrome trace_event file per route (empty = in-memory /tracez only)")
		traceRing = flag.Int("trace-ring", 0, "recent route traces kept in memory for /tracez (0 = default, negative rejected)")

		pprofOn = flag.Bool("pprof", false, "expose /debug/pprof/ on the stats address (opt-in: profiles are operator telemetry)")
	)
	flag.Parse()

	if err := run(backends, routerFlags{
		listen: *listen, vnodes: *vnodes,
		peekTimeout: *peekTimeout, dialTimeout: *dialTimeout,
		retryAfter: *retryAfter, healthInterval: *healthInterval,
		probeTimeout:     *probeTimeout,
		markdownCooldown: *markdownCooldown,
		tenantRate:       *tenantRate, tenantBurst: *tenantBurst,
		drainTimeout: *drainTimeout, statsAddr: *statsAddr,
		fleetInterval: *fleetInterval, availTarget: *availTarget,
		logLevel: *logLevel, logFormat: *logFormat,
		traceDir: *traceDir, traceRing: *traceRing,
		pprofOn: *pprofOn,
	}); err != nil {
		fmt.Fprintln(os.Stderr, "engarde-router:", err)
		os.Exit(1)
	}
}

type routerFlags struct {
	listen                   string
	vnodes                   int
	peekTimeout, dialTimeout time.Duration
	retryAfter               time.Duration
	healthInterval           time.Duration
	probeTimeout             time.Duration
	markdownCooldown         time.Duration
	tenantRate               float64
	tenantBurst              int
	drainTimeout             time.Duration
	statsAddr                string
	fleetInterval            time.Duration
	availTarget              float64
	logLevel, logFormat      string
	traceDir                 string
	traceRing                int
	pprofOn                  bool
}

// parseBackend decodes one -backend value: name=addr[,adminURL].
func parseBackend(s string) (cluster.Backend, error) {
	name, rest, ok := strings.Cut(s, "=")
	if !ok || name == "" {
		return cluster.Backend{}, fmt.Errorf("backend %q: want name=addr[,adminURL]", s)
	}
	addr, admin, _ := strings.Cut(rest, ",")
	if addr == "" {
		return cluster.Backend{}, fmt.Errorf("backend %q: empty address", s)
	}
	return cluster.Backend{Name: name, Addr: addr, AdminURL: strings.TrimRight(admin, "/")}, nil
}

func run(backends []cluster.Backend, cfg routerFlags) error {
	level, err := obs.ParseLevel(cfg.logLevel)
	if err != nil {
		return err
	}
	logger, err := obs.NewLogger(os.Stderr, level, cfg.logFormat)
	if err != nil {
		return err
	}
	if len(backends) == 0 {
		return fmt.Errorf("no backends: pass at least one -backend name=addr[,adminURL]")
	}

	if cfg.traceRing < 0 {
		return fmt.Errorf("-trace-ring %d: must be >= 0", cfg.traceRing)
	}
	sink, err := obs.NewSink(cfg.traceRing, cfg.traceDir)
	if err != nil {
		return err
	}

	router, err := cluster.NewRouter(cluster.RouterConfig{
		Backends:         backends,
		Vnodes:           cfg.vnodes,
		PeekTimeout:      cfg.peekTimeout,
		DialTimeout:      cfg.dialTimeout,
		RetryAfterHint:   cfg.retryAfter,
		HealthInterval:   cfg.healthInterval,
		ProbeTimeout:     cfg.probeTimeout,
		MarkdownCooldown: cfg.markdownCooldown,
		Quota:            cluster.QuotaConfig{Rate: cfg.tenantRate, Burst: cfg.tenantBurst},
		TraceSink:        sink,
		Logger:           logger,
	})
	if err != nil {
		return err
	}
	for _, b := range backends {
		logger.Info("backend registered", "name", b.Name, "addr", b.Addr, "admin", b.AdminURL)
	}

	ln, err := net.Listen("tcp", cfg.listen)
	if err != nil {
		return err
	}
	logger.Info("routing", "addr", ln.Addr().String(), "backends", len(backends))

	var statsSrv *http.Server
	var agg *fleet.Aggregator
	if cfg.statsAddr != "" {
		statsLn, err := net.Listen("tcp", cfg.statsAddr)
		if err != nil {
			return fmt.Errorf("stats listener: %w", err)
		}
		// Every backend with an admin URL is a fleet scrape target; the
		// router's own registry and trace ring join the view as "router".
		var targets []fleet.Backend
		for _, b := range backends {
			if b.AdminURL == "" {
				continue
			}
			targets = append(targets, fleet.Backend{
				Name:       b.Name,
				MetricsURL: b.AdminURL + "/metricsz",
				TracesURL:  b.AdminURL + "/tracez",
			})
		}
		agg = fleet.New(fleet.Config{
			Backends:           targets,
			Interval:           cfg.fleetInterval,
			AvailabilityTarget: cfg.availTarget,
			Self:               router.Registry(),
			SelfSink:           sink,
			Logger:             logger,
		})
		agg.Start()
		mux := router.AdminHandler()
		mux.Handle("/fleetz", agg.Handler())
		if cfg.pprofOn {
			obs.MountPprof(mux)
			logger.Info("pprof exposed", "url", fmt.Sprintf("http://%s/debug/pprof/", statsLn.Addr()))
		}
		statsSrv = &http.Server{Handler: mux}
		go func() { _ = statsSrv.Serve(statsLn) }()
		logger.Info("telemetry endpoints up",
			"statsz", fmt.Sprintf("http://%s/statsz", statsLn.Addr()),
			"metricsz", fmt.Sprintf("http://%s/metricsz", statsLn.Addr()),
			"fleetz", fmt.Sprintf("http://%s/fleetz", statsLn.Addr()),
			"tracez", fmt.Sprintf("http://%s/tracez", statsLn.Addr()),
			"readyz", fmt.Sprintf("http://%s/readyz", statsLn.Addr()))
	}

	serveErr := make(chan error, 1)
	go func() { serveErr <- router.Serve(context.Background(), ln) }()

	sigs := make(chan os.Signal, 2)
	signal.Notify(sigs, os.Interrupt, syscall.SIGTERM)

	var result error
	select {
	case sig := <-sigs:
		logger.Info("draining", "signal", sig.String(),
			"timeout", cfg.drainTimeout.String(), "hint", "signal again to force")
		ctx, cancel := context.WithTimeout(context.Background(), cfg.drainTimeout)
		go func() {
			<-sigs
			cancel() // second signal: stop waiting, force-close splices
		}()
		result = router.Shutdown(ctx)
		cancel()
		<-serveErr
	case err := <-serveErr:
		ctx, cancel := context.WithTimeout(context.Background(), cfg.drainTimeout)
		if serr := router.Shutdown(ctx); err == nil {
			err = serr
		}
		cancel()
		result = err
	}

	if agg != nil {
		agg.Stop()
	}
	if statsSrv != nil {
		ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
		_ = statsSrv.Shutdown(ctx)
		cancel()
	}

	s := router.Stats()
	var sessions, sheds uint64
	for _, b := range s.Backends {
		sessions += b.Sessions
	}
	for _, n := range s.Sheds {
		sheds += n
	}
	logger.Info("shutdown complete",
		"sessions", sessions, "announced", s.Announced, "affine", s.Affine,
		"sheds", sheds, "rebalances", s.Rebalances)
	return result
}
