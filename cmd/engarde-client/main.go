// Command engarde-client runs the cloud-client side of EnGarde: it
// connects to an engarde-gatewayd (or an engarde-router in front of
// several), verifies the enclave's attestation quote against the expected
// EnGarde measurement, establishes the encrypted channel, streams an
// executable, and prints the verdict. It exits 0 on a COMPLIANT verdict
// and 1 on a REJECTED one or any error.
//
// Usage:
//
//	engarde-client -connect 127.0.0.1:7779 \
//	               -attest-key /tmp/platform.pub \
//	               -binary /tmp/bins/nginx-stackprot.elf
//
// Against an engarde-router fleet, repeat -attest-key once per backend
// platform key (attestation succeeds if any key verifies the quote) and
// pass -announce so the router can steer the session to the gatewayd
// whose caches are warm for this binary's digest. The announcement is a
// plaintext routing hint — it never weakens attestation, which still runs
// end-to-end against whichever backend answers.
//
// The client's executable is never visible to the provider in plaintext:
// it is encrypted under a fresh AES-256 key that only the attested enclave
// can unwrap.
package main

import (
	"crypto/rsa"
	"crypto/x509"
	"encoding/pem"
	"errors"
	"flag"
	"fmt"
	"net"
	"os"
	"time"

	"engarde"
	"engarde/internal/obs"
)

func main() {
	var keyPaths []string
	flag.Func("attest-key", "platform attestation public key (PEM), as written by engarde-gatewayd -attest-key-out; repeat once per fleet backend", func(s string) error {
		keyPaths = append(keyPaths, s)
		return nil
	})
	connect := flag.String("connect", "127.0.0.1:7779", "engarde-gatewayd or engarde-router address")
	binPath := flag.String("binary", "", "ELF64 PIE executable to provision")
	announce := flag.Bool("announce", false, "send the plaintext routing preamble (image digest + tenant) so an engarde-router can pick the digest-affine backend")
	tenant := flag.String("tenant", "", "tenant label for the routing preamble (router quota accounting; implies nothing about identity)")
	heapPages := flag.Int("heap-pages", 5000, "expected enclave heap pages (must match the host)")
	clientPages := flag.Int("client-pages", 1024, "expected enclave client-region pages (must match the host)")
	retries := flag.Int("retries", engarde.DefaultRetryAttempts, "provisioning attempts before giving up (busy gateways and transient errors are retried; attestation failures are not)")
	retryBase := flag.Duration("retry-base", engarde.DefaultRetryBaseDelay, "base delay for exponential backoff between attempts")
	traceDir := flag.String("trace-dir", "", "originate a distributed trace and write the client's spans here (traces.jsonl + Chrome trace_event); the trace ID propagates to router and gateway")
	logLevel := flag.String("log-level", "info", "minimum log level (debug, info, warn, error)")
	logFormat := flag.String("log-format", "text", "log record format (text, json)")
	flag.Parse()

	if err := run(clientFlags{
		connect: *connect, keyPaths: keyPaths, binPath: *binPath,
		announce: *announce, tenant: *tenant,
		heapPages: *heapPages, clientPages: *clientPages,
		retries: *retries, retryBase: *retryBase,
		traceDir: *traceDir,
		logLevel: *logLevel, logFormat: *logFormat,
	}); err != nil {
		fmt.Fprintln(os.Stderr, "engarde-client:", err)
		os.Exit(1)
	}
}

type clientFlags struct {
	connect  string
	keyPaths []string
	binPath  string
	announce bool
	tenant   string

	heapPages, clientPages int
	retries                int
	retryBase              time.Duration
	traceDir               string
	logLevel, logFormat    string
}

func run(cfg clientFlags) error {
	level, err := obs.ParseLevel(cfg.logLevel)
	if err != nil {
		return err
	}
	logger, err := obs.NewLogger(os.Stderr, level, cfg.logFormat)
	if err != nil {
		return err
	}
	if cfg.binPath == "" {
		return errors.New("-binary is required")
	}
	if len(cfg.keyPaths) == 0 {
		return errors.New("-attest-key is required")
	}
	image, err := os.ReadFile(cfg.binPath)
	if err != nil {
		return err
	}
	var keys []*rsa.PublicKey
	for _, path := range cfg.keyPaths {
		key, err := readPlatformKey(path)
		if err != nil {
			return err
		}
		keys = append(keys, key)
	}

	// The client computes the expected EnGarde measurement itself, from
	// the EnGarde code both parties inspected (paper §3).
	expected, err := engarde.ExpectedMeasurement(engarde.SGXv2, engarde.EnclaveConfig{
		HeapPages: cfg.heapPages, ClientPages: cfg.clientPages,
	})
	if err != nil {
		return err
	}
	logger.Info("expecting EnGarde measurement",
		"mrenclave_prefix", fmt.Sprintf("%x", expected[:8]))

	client := &engarde.Client{
		Expected:     expected,
		PlatformKey:  keys[0],
		PlatformKeys: keys[1:],
	}
	if cfg.announce || cfg.tenant != "" {
		// ImageDigest is filled in by the client from the binary itself.
		client.Route = &engarde.RouteHello{Tenant: cfg.tenant}
	}

	// -trace-dir makes this client the origin of a distributed trace: the
	// random 128-bit trace ID is carried to the router (plaintext preamble)
	// and the gateway (authenticated session-open field), so one ID joins
	// all three processes' span output.
	var tr *obs.Trace
	var sink *obs.Sink
	if cfg.traceDir != "" {
		sink, err = obs.NewSink(0, cfg.traceDir)
		if err != nil {
			return err
		}
		tr = obs.NewTrace("provision", nil)
	}
	policy := engarde.RetryPolicy{
		Attempts:  cfg.retries,
		BaseDelay: cfg.retryBase,
		Trace:     tr,
		OnRetry: func(attempt int, delay time.Duration, cause error) {
			logger.Warn("attempt failed; retrying",
				"attempt", attempt, "delay", delay.String(), "err", cause)
		},
	}
	verdict, err := client.ProvisionRetry(
		func() (net.Conn, error) { return net.Dial("tcp", cfg.connect) },
		image,
		policy)
	if tr != nil {
		tr.Finish()
		sink.Record(tr)
		logger.Info("trace recorded", "trace_id", tr.ID(), "dir", cfg.traceDir)
	}
	if err != nil {
		return err
	}
	if verdict.Compliant {
		fmt.Printf("COMPLIANT: %s accepted (%d bytes)\n", cfg.binPath, len(image))
		return nil
	}
	fmt.Printf("REJECTED: %s\n", verdict.Reason)
	return errors.New("content rejected by policy")
}

func readPlatformKey(path string) (*rsa.PublicKey, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	block, _ := pem.Decode(raw)
	if block == nil {
		return nil, fmt.Errorf("no PEM block in %s", path)
	}
	pubAny, err := x509.ParsePKIXPublicKey(block.Bytes)
	if err != nil {
		return nil, err
	}
	pub, ok := pubAny.(*rsa.PublicKey)
	if !ok {
		return nil, errors.New("attestation key is not RSA")
	}
	return pub, nil
}
