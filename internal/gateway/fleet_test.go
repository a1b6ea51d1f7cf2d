package gateway_test

import (
	"context"
	"net"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"engarde"
	"engarde/internal/faults"
	"engarde/internal/gateway"
	"engarde/internal/policy/memo"
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
		Provider:       provider,
		HeapPages:      testHeapPages,
		ClientPages:    testClientPages,
		IdleTimeout:    time.Minute,
		SessionBudget:  time.Minute,
		FnCacheEntries: -1, // disabled: FnMemoHandler must 404
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
	if got := status(gw.FnMemoHandler(), "POST", "/memoz/get"); got != http.StatusNotFound {
		t.Fatalf("FnMemoHandler with cache disabled = %d, want 404", got)
	}
}

// TestGatewayRemoteMemoSharing provisions an image cold on gateway A, then
// provisions the same image on gateway B whose fn-memo remote tier points
// at A's /memoz endpoint. B must pull A's memoized per-function outcomes
// over the wire (remote hits on B, peer-served on A) and reach the same
// verdict.
func TestGatewayRemoteMemoSharing(t *testing.T) {
	gwA, lnA, clientA := testGateway(t, gateway.Config{
		Policies:      engarde.NewPolicySet(engarde.StackProtectorPolicy()),
		MaxConcurrent: 2,
	})
	mux := http.NewServeMux()
	mux.Handle("/memoz/", gwA.FnMemoHandler())
	srvA := httptest.NewServer(mux)
	defer srvA.Close()

	gwB, lnB, clientB := testGateway(t, gateway.Config{
		Policies:      engarde.NewPolicySet(engarde.StackProtectorPolicy()),
		MaxConcurrent: 2,
		FnCachePeers:  []string{srvA.URL + "/memoz"},
	})

	image := buildImage(t, "shared", 607, true)
	vA, err := provisionOnce(t, lnA, clientA, image)
	if err != nil || !vA.Compliant {
		t.Fatalf("provision on A: %+v, %v", vA, err)
	}
	waitFor(t, "A to memoize its provision", func() bool {
		st := gwA.Stats()
		return st.FnCache != nil && st.FnCache.Entries > 0
	})

	vB, err := provisionOnce(t, lnB, clientB, image)
	if err != nil {
		t.Fatalf("provision on B: %v", err)
	}
	if vB.Compliant != vA.Compliant || vB.Code != vA.Code {
		t.Fatalf("verdicts diverge: A=%+v B=%+v", vA, vB)
	}
	waitFor(t, "B to record remote fn-memo hits", func() bool {
		st := gwB.Stats()
		return st.FnCache != nil && st.FnCache.RemoteHits > 0
	})
	if st := gwB.Stats(); st.FnCache.RemoteFaults != 0 {
		t.Errorf("B remote faults = %d, want 0", st.FnCache.RemoteFaults)
	}
	if st := gwA.Stats(); st.FnCache.PeerServed == 0 {
		t.Errorf("A served no records to its peer: %+v", st.FnCache)
	}
}

// bodyFlipper is an HTTP transport that runs every request body and every
// response body through a faults.ChaosReader on its own schedule.
type bodyFlipper struct {
	next  http.RoundTripper
	sched faults.Schedule
}

func (b bodyFlipper) RoundTrip(req *http.Request) (*http.Response, error) {
	out := req.Clone(req.Context())
	if req.Body != nil {
		out.Body = faults.WrapReader(req.Body, b.sched)
		out.GetBody = nil // a retry must not resend the body unflipped
	}
	resp, err := b.next.RoundTrip(out)
	if err != nil {
		return nil, err
	}
	resp.Body = faults.WrapReader(resp.Body, b.sched)
	return resp, nil
}

// TestGatewayRemoteMemoChaosEquivalence is the resilience acceptance test:
// a fleet peer set consisting of one dead endpoint and one byte-flipping
// endpoint must trip the remote tier's circuit breaker and degrade the
// cache to its local tiers — without ever corrupting a result or changing
// a verdict relative to a gateway that has no remote tier at all.
func TestGatewayRemoteMemoChaosEquivalence(t *testing.T) {
	// Dead peer: a listener that is already closed, so every dial fails.
	deadLn, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	deadURL := "http://" + deadLn.Addr().String() + "/memoz"
	deadLn.Close()

	// Byte-flipping peer: a real memo server reached through a transport
	// that flips one bit in every read of every request and response body,
	// so every exchange's payload is mangled. The CRC-framed record format
	// must reject all of it. (Flipping at the connection instead lets a
	// flip land in an HTTP header the peer ignores; the put then arrives
	// intact and is rightly stored, and the 204 resets the breaker.)
	peerCache, err := memo.Open(memo.Config{Entries: 256})
	if err != nil {
		t.Fatal(err)
	}
	defer peerCache.Close()
	flipSrv := httptest.NewServer(http.StripPrefix("/memoz", memo.Handler(peerCache)))
	defer flipSrv.Close()
	chaosClient := &http.Client{Transport: bodyFlipper{
		next:  &http.Transport{DisableKeepAlives: true},
		sched: faults.Schedule{Seed: 11, BitFlipProb: 1},
	}}

	control, lnControl, clientControl := testGateway(t, gateway.Config{
		Policies:      engarde.NewPolicySet(engarde.StackProtectorPolicy()),
		MaxConcurrent: 2,
	})
	_ = control
	chaos, lnChaos, clientChaos := testGateway(t, gateway.Config{
		Policies:             engarde.NewPolicySet(engarde.StackProtectorPolicy()),
		MaxConcurrent:        2,
		FnCachePeers:         []string{deadURL, flipSrv.URL + "/memoz"},
		FnCacheRemoteTimeout: time.Second,
		FnCacheRemoteClient:  chaosClient,
	})

	// Four distinct images (three compliant, one violating) so every
	// provision is a cold, full pipeline run that attempts a peer fetch.
	images := [][]byte{
		buildImage(t, "eq-a", 701, true),
		buildImage(t, "eq-b", 702, true),
		buildImage(t, "eq-c", 703, true),
		buildImage(t, "eq-bad", 704, false),
	}
	for i, image := range images {
		vc, err := provisionOnce(t, lnControl, clientControl, image)
		if err != nil {
			t.Fatalf("control provision %d: %v", i, err)
		}
		vx, err := provisionOnce(t, lnChaos, clientChaos, image)
		if err != nil {
			t.Fatalf("chaos provision %d: %v", i, err)
		}
		if vx.Compliant != vc.Compliant || vx.Code != vc.Code {
			t.Fatalf("image %d: chaos verdict %+v diverges from control %+v", i, vx, vc)
		}
	}

	waitFor(t, "remote breaker to trip", func() bool {
		st := chaos.Stats()
		return st.FnCache != nil && st.FnCache.RemoteTrips >= 1
	})
	st := chaos.Stats()
	if st.FnCache.RemoteFaults < 3 {
		t.Errorf("remote faults = %d, want >= breaker threshold (3)", st.FnCache.RemoteFaults)
	}
	if st.FnCache.RemoteHits != 0 {
		t.Errorf("remote hits = %d through dead/corrupting peers, want 0", st.FnCache.RemoteHits)
	}
	// No mangled put may have installed a record on the flipping peer.
	if pst := peerCache.Stats(); pst.PeerStored != 0 {
		t.Errorf("byte-flipped puts stored %d records on the peer, want 0", pst.PeerStored)
	}
	// The local tiers are untouched: a repeat provision of a known image
	// is a verdict-cache hit and still compliant.
	v, err := provisionOnce(t, lnChaos, clientChaos, images[0])
	if err != nil || !v.Compliant {
		t.Fatalf("repeat provision after breaker trip: %+v, %v", v, err)
	}
}
