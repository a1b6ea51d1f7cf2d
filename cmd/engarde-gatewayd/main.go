// Command engarde-gatewayd is the provider side of EnGarde: it boots the
// (emulated) SGX platform, writes the platform attestation key
// (-attest-key-out), and serves the provisioning protocol through the full
// internal/gateway surface — bounded enclave worker pool, verdict cache,
// stats endpoint, graceful shutdown — wired to flags. engarde-client
// provisions a binary against it; the host learns only the verdict, the
// executable-page list and sizes.
//
// Usage:
//
//	engarde-gatewayd -listen 127.0.0.1:7779 \
//	                 -policies stack-protector,ifcc \
//	                 -max-concurrent 16 -cache-entries 4096 \
//	                 -stats-addr 127.0.0.1:7780 \
//	                 -log-level info -log-format text -trace-dir /tmp/traces
//
// The stats address serves three telemetry endpoints: /statsz (JSON
// snapshot: admissions, verdict counts, cache hit rates, per-phase cycle
// totals, latency histogram), /metricsz (the same registry in Prometheus
// text exposition format), and /tracez (recent per-session trace span
// timelines; add ?format=chrome for a chrome://tracing document).
// -trace-dir additionally writes every session's trace to disk, as
// append-only JSONL plus one Chrome trace_event file per session.
//
// The same mux serves the fleet plumbing: /healthz (liveness), /readyz
// (readiness — 503 while draining, which is what engarde-router's health
// prober keys off). The function-result cache (-fn-cache-entries) lives
// only in this process: it is never persisted or served to a peer.
//
// Logs are structured (log/slog, text or JSON) and every session record
// carries the session's trace ID, so a slow span seen in /tracez joins to
// the log line of the session that produced it. -pprof adds live
// profiling on the stats address.
//
// SIGINT/SIGTERM trigger a graceful shutdown: listeners close, in-flight
// and queued sessions finish (up to -drain-timeout), then the process
// exits. A second signal force-closes remaining connections.
package main

import (
	"context"
	"crypto/x509"
	"encoding/pem"
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"engarde"
	"engarde/internal/cycles"
	"engarde/internal/gateway"
	"engarde/internal/obs"
)

func main() {
	var (
		listen      = flag.String("listen", "127.0.0.1:7779", "address to serve the provisioning protocol on")
		policies    = flag.String("policies", "stack-protector", "comma-separated policy list (musl, musl-sp, stack-protector, ifcc, no-forbidden, asan)")
		keyOut      = flag.String("attest-key-out", "", "write the platform attestation public key (PEM) here")
		heapPages   = flag.Int("heap-pages", 5000, "enclave heap pages per tenant (paper default 5000)")
		clientPages = flag.Int("client-pages", 1024, "enclave client-region pages per tenant")
		sgxv1       = flag.Bool("sgxv1", false, "emulate SGX version 1 (insecure; for the AsyncShock demo)")

		maxConcurrent = flag.Int("max-concurrent", gateway.DefaultMaxConcurrent, "maximum enclaves in flight (worker-pool size)")
		queueDepth    = flag.Int("queue-depth", 0, "connections allowed to wait for a worker (0 = 2x max-concurrent, negative = none)")
		cacheEntries  = flag.Int("cache-entries", gateway.DefaultCacheEntries, "verdict cache capacity (negative disables caching)")

		fnCacheEntries = flag.Int("fn-cache-entries", 0, "in-process function-result cache capacity shared across tenants (0 = default, negative disables)")

		loseEvery = flag.Int("lose-enclave-every", 0, "fault drill: reclaim every Nth session's enclave mid-provision, EREMOVE-style, to exercise enclave-loss recovery (0 disables)")

		idleTimeout   = flag.Duration("idle-timeout", gateway.DefaultIdleTimeout, "per-frame idle deadline: a session must make read/write progress within this (negative disables)")
		sessionBudget = flag.Duration("session-budget", gateway.DefaultSessionBudget, "total time budget per session, regardless of progress (negative disables)")
		drainTimeout  = flag.Duration("drain-timeout", time.Minute, "how long shutdown waits for in-flight sessions; expiring it exits non-zero")
		statsAddr     = flag.String("stats-addr", "", "serve telemetry at http://<stats-addr>/statsz, /metricsz, /tracez (empty disables)")

		logLevel  = flag.String("log-level", "info", "minimum log level (debug, info, warn, error)")
		logFormat = flag.String("log-format", "text", "log record format (text, json)")
		traceDir  = flag.String("trace-dir", "", "write every session's trace here: traces.jsonl plus one Chrome trace_event file per session (empty = in-memory /tracez only)")
		traceRing = flag.Int("trace-ring", 0, "recent traces kept in memory for /tracez (0 = default, negative rejected)")

		pprofOn = flag.Bool("pprof", false, "expose /debug/pprof/ on the stats address (opt-in: profiles are operator telemetry)")
	)
	flag.Parse()

	if err := run(config{
		listen: *listen, policies: *policies, keyOut: *keyOut,
		heapPages: *heapPages, clientPages: *clientPages, sgxv1: *sgxv1,
		maxConcurrent: *maxConcurrent, queueDepth: *queueDepth,
		cacheEntries: *cacheEntries,
		idleTimeout:  *idleTimeout, sessionBudget: *sessionBudget,
		fnCacheEntries:   *fnCacheEntries,
		loseEnclaveEvery: *loseEvery,
		drainTimeout:     *drainTimeout, statsAddr: *statsAddr,
		logLevel: *logLevel, logFormat: *logFormat, traceDir: *traceDir,
		traceRing: *traceRing, pprofOn: *pprofOn,
	}); err != nil {
		fmt.Fprintln(os.Stderr, "engarde-gatewayd:", err)
		os.Exit(1)
	}
}

type config struct {
	listen, policies, keyOut string
	heapPages, clientPages   int
	sgxv1                    bool

	maxConcurrent, queueDepth, cacheEntries int
	fnCacheEntries                          int
	loseEnclaveEvery                        int
	idleTimeout, sessionBudget              time.Duration
	drainTimeout                            time.Duration
	statsAddr                               string
	logLevel, logFormat, traceDir           string
	traceRing                               int
	pprofOn                                 bool
}

func run(cfg config) error {
	level, err := obs.ParseLevel(cfg.logLevel)
	if err != nil {
		return err
	}
	logger, err := obs.NewLogger(os.Stderr, level, cfg.logFormat)
	if err != nil {
		return err
	}

	pols, err := engarde.ParsePolicies(cfg.policies)
	if err != nil {
		return err
	}
	version := engarde.SGXv2
	if cfg.sgxv1 {
		version = engarde.SGXv1
		logger.Warn("SGXv1 mode; W^X is enforced only in host page tables (paper §3)")
	}

	// A shared counter aggregates per-phase cycle totals across all tenant
	// enclaves; the /statsz snapshot reads from it.
	counter := cycles.NewCounter(cycles.DefaultModel())
	provider, err := engarde.NewProvider(engarde.ProviderConfig{
		Version: version,
		Counter: counter,
	})
	if err != nil {
		return err
	}

	if cfg.keyOut != "" {
		der, err := x509.MarshalPKIXPublicKey(provider.AttestationPublicKey())
		if err != nil {
			return err
		}
		block := pem.EncodeToMemory(&pem.Block{Type: "PUBLIC KEY", Bytes: der})
		if err := os.WriteFile(cfg.keyOut, block, 0o644); err != nil {
			return err
		}
		logger.Info("platform attestation key written", "path", cfg.keyOut)
	}

	expected, err := engarde.ExpectedMeasurement(version, engarde.EnclaveConfig{
		HeapPages: cfg.heapPages, ClientPages: cfg.clientPages,
	})
	if err != nil {
		return err
	}
	logger.Info("EnGarde enclave ready",
		"mrenclave", fmt.Sprintf("%x", expected[:]), "policies", pols.Names())

	// The sink always exists so /tracez serves the recent-session ring even
	// without a trace directory. -trace-ring sizes the ring; zero keeps the
	// default, negative is a configuration mistake worth failing loudly on.
	if cfg.traceRing < 0 {
		return fmt.Errorf("-trace-ring %d: must be >= 0", cfg.traceRing)
	}
	sink, err := obs.NewSink(cfg.traceRing, cfg.traceDir)
	if err != nil {
		return err
	}

	gw, err := gateway.New(gateway.Config{
		Provider:         provider,
		Policies:         pols,
		HeapPages:        cfg.heapPages,
		ClientPages:      cfg.clientPages,
		MaxConcurrent:    cfg.maxConcurrent,
		QueueDepth:       cfg.queueDepth,
		CacheEntries:     cfg.cacheEntries,
		FnCacheEntries:   cfg.fnCacheEntries,
		LoseEnclaveEvery: cfg.loseEnclaveEvery,
		IdleTimeout:      cfg.idleTimeout,
		SessionBudget:    cfg.sessionBudget,
		Counter:          counter,
		Logger:           logger,
		TraceSink:        sink,
	})
	if err != nil {
		return err
	}

	ln, err := net.Listen("tcp", cfg.listen)
	if err != nil {
		return err
	}
	logger.Info("serving", "addr", ln.Addr().String())

	var statsSrv *http.Server
	if cfg.statsAddr != "" {
		statsLn, err := net.Listen("tcp", cfg.statsAddr)
		if err != nil {
			return fmt.Errorf("stats listener: %w", err)
		}
		mux := gw.AdminHandler()
		if cfg.pprofOn {
			obs.MountPprof(mux)
			logger.Info("pprof exposed", "url", fmt.Sprintf("http://%s/debug/pprof/", statsLn.Addr()))
		}
		statsSrv = &http.Server{Handler: mux}
		go func() { _ = statsSrv.Serve(statsLn) }()
		logger.Info("telemetry endpoints up",
			"statsz", fmt.Sprintf("http://%s/statsz", statsLn.Addr()),
			"metricsz", fmt.Sprintf("http://%s/metricsz", statsLn.Addr()),
			"tracez", fmt.Sprintf("http://%s/tracez", statsLn.Addr()),
			"readyz", fmt.Sprintf("http://%s/readyz", statsLn.Addr()))
	}

	serveErr := make(chan error, 1)
	go func() { serveErr <- gw.Serve(context.Background(), ln) }()

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
			cancel() // second signal: stop waiting, force-close sessions
		}()
		result = gw.Shutdown(ctx)
		cancel()
		<-serveErr
	case err := <-serveErr:
		// Listener died underneath us; still drain what was admitted.
		ctx, cancel := context.WithTimeout(context.Background(), cfg.drainTimeout)
		if serr := gw.Shutdown(ctx); err == nil {
			err = serr
		}
		cancel()
		result = err
	}

	if statsSrv != nil {
		ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
		_ = statsSrv.Shutdown(ctx)
		cancel()
	}

	s := gw.Stats()
	logger.Info("shutdown complete",
		"served", s.Served, "compliant", s.Compliant,
		"non_compliant", s.NonCompliant, "errors", s.Errors,
		"cache_hit_rate", fmt.Sprintf("%.2f", s.CacheHitRate))
	return result
}
