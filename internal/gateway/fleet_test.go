package gateway_test

import (
	"context"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"engarde"
	"engarde/internal/gateway"
)

// TestGatewayReadyzLifecycle walks the readiness signal through the full
// gateway lifecycle: 503 before Serve, 200 while serving, 503 the moment
// Shutdown begins. Liveness stays 200 throughout — the process is up even
// when it is not accepting sessions.
func TestGatewayReadyzLifecycle(t *testing.T) {
	provider, err := engarde.NewProvider(engarde.ProviderConfig{EPCPages: 8192})
	if err != nil {
		t.Fatal(err)
	}
	gw, err := gateway.New(gateway.Config{
		Provider:      provider,
		HeapPages:     testHeapPages,
		ClientPages:   testClientPages,
		IdleTimeout:   time.Minute,
		SessionBudget: time.Minute,
	})
	if err != nil {
		t.Fatal(err)
	}

	status := func(h http.Handler, method, path string) int {
		rr := httptest.NewRecorder()
		h.ServeHTTP(rr, httptest.NewRequest(method, path, nil))
		return rr.Code
	}

	if got := status(gw.ReadyzHandler(), "GET", "/readyz"); got != http.StatusServiceUnavailable {
		t.Fatalf("readyz before Serve = %d, want 503", got)
	}
	if got := status(gw.HealthzHandler(), "GET", "/healthz"); got != http.StatusOK {
		t.Fatalf("healthz before Serve = %d, want 200", got)
	}

	ln := newPipeListener()
	serveErr := make(chan error, 1)
	go func() { serveErr <- gw.Serve(context.Background(), ln) }()
	waitFor(t, "readyz to flip to 200", func() bool {
		return status(gw.ReadyzHandler(), "GET", "/readyz") == http.StatusOK
	})
	if got := status(gw.HealthzHandler(), "GET", "/healthz"); got != http.StatusOK {
		t.Fatalf("healthz while serving = %d, want 200", got)
	}

	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := gw.Shutdown(ctx); err != nil {
		t.Fatal(err)
	}
	if err := <-serveErr; err != nil {
		t.Fatalf("Serve: %v", err)
	}
	if got := status(gw.ReadyzHandler(), "GET", "/readyz"); got != http.StatusServiceUnavailable {
		t.Fatalf("readyz after Shutdown = %d, want 503", got)
	}
}
