package bench

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"slices"
	"sync"
	"testing"
	"time"

	"engarde"
	"engarde/internal/toolchain"
)

// fleetImages builds n small, byte-distinct compliant executables — small
// because fleet tests pay for real TCP and multiple gateways per session.
func fleetImages(t *testing.T, n int) [][]byte {
	t.Helper()
	images := make([][]byte, n)
	for i := range images {
		bin, err := toolchain.Build(toolchain.Config{
			Name: fmt.Sprintf("fleet%d", i), Seed: int64(8200 + i),
			NumFuncs: 6, AvgFuncInsts: 40,
			StackProtector: true,
		})
		if err != nil {
			t.Fatal(err)
		}
		images[i] = bin.Image
	}
	return images
}

// provisionAll drives sessions provisioning sessions through the fleet's
// router from clients concurrent goroutines; session i provisions
// images[i%len(images)]. Every session must end in a compliant verdict.
func provisionAll(t *testing.T, fl *ChaosFleet, images [][]byte, sessions, clients int) {
	t.Helper()
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			policy := engarde.RetryPolicy{
				Attempts:  10,
				BaseDelay: time.Millisecond,
				MaxDelay:  100 * time.Millisecond,
				Seed:      int64(c + 1),
			}
			for i := c; i < sessions; i += clients {
				v, err := fl.Client.ProvisionRetry(fl.Dial, images[i%len(images)], policy)
				if err != nil {
					t.Errorf("session %d: %v", i, err)
					return
				}
				if !v.Compliant {
					t.Errorf("session %d rejected: %s", i, v.Reason)
					return
				}
			}
		}(c)
	}
	wg.Wait()
}

// TestFleetDigestAffinity is the tentpole acceptance test: across a
// 4-backend fleet with announced sessions, at least 95% of sessions must
// land on their image digest's ring owner. With every backend healthy the
// router has no reason to divert, so in practice this is 100% — the
// margin only absorbs scheduling accidents, never systematic misrouting.
func TestFleetDigestAffinity(t *testing.T) {
	if testing.Short() {
		t.Skip("fleet topology is not short")
	}
	images := fleetImages(t, 8)
	fl, err := StartChaosFleet(ChaosFleetConfig{Backends: 4, HealthInterval: -1})
	if err != nil {
		t.Fatal(err)
	}
	fl.Client.Route = &engarde.RouteHello{Tenant: "affinity-test"}
	provisionAll(t, fl, images, 24, 3)
	rs := fl.Router.Stats()
	// Close drains every session, so the gateways' counters have settled.
	if err := fl.Close(); err != nil {
		t.Fatal(err)
	}
	if rs.Announced != 24 {
		t.Fatalf("announced sessions = %d, want 24", rs.Announced)
	}
	affinity := float64(rs.Affine) / float64(rs.Announced)
	busy := 0
	var hits uint64
	for i := 0; i < 4; i++ {
		s := fl.Gateway(i).Stats()
		t.Logf("backend %s: served %d, verdict-cache hits %d", fl.BackendName(i), s.Served, s.CacheHits)
		if s.Served > 0 {
			busy++
		}
		hits += s.CacheHits
	}
	t.Logf("affinity: %d/%d = %.2f", rs.Affine, rs.Announced, affinity)
	if affinity < 0.95 {
		t.Fatalf("digest affinity = %.2f, want >= 0.95", affinity)
	}
	// Sessions must actually spread: 8 distinct digests over a 4-node ring
	// essentially never all hash to one owner.
	if busy < 2 {
		t.Errorf("all sessions on %d backend(s); ring is not spreading", busy)
	}
	// Affine repeats of the same image hit the owner's verdict cache: the
	// whole point of digest-affine routing.
	if hits == 0 {
		t.Error("no verdict-cache hits despite digest-affine repeats")
	}
}

// TestFleetAdminSurface checks that ChaosFleet serves what the daemons
// serve: every backend answers each path engarde-gatewayd mounts from
// Gateway.AdminHandler, and the router each path engarde-router -pprof
// mounts from Router.AdminHandler plus /fleetz.
func TestFleetAdminSurface(t *testing.T) {
	if testing.Short() {
		t.Skip("fleet topology is not short")
	}
	fl, err := StartChaosFleet(ChaosFleetConfig{Backends: 2, HealthInterval: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer fl.Close()

	get := func(url string) (int, []byte) {
		t.Helper()
		resp, err := http.Get(url)
		if err != nil {
			t.Fatalf("GET %s: %v", url, err)
		}
		defer resp.Body.Close()
		body, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatalf("GET %s: %v", url, err)
		}
		return resp.StatusCode, body
	}
	// Serve flips readiness on from its own goroutine; wait for it the way
	// a prober does.
	for _, base := range []string{fl.RouterAdminURL, fl.AdminURL(0), fl.AdminURL(1)} {
		for deadline := time.Now().Add(5 * time.Second); ; {
			if code, _ := get(base + "/readyz"); code == http.StatusOK {
				break
			}
			if time.Now().After(deadline) {
				t.Fatalf("%s never became ready", base)
			}
			time.Sleep(10 * time.Millisecond)
		}
	}

	type check struct {
		path string
		want int
	}
	common := []check{
		{"/statsz", http.StatusOK},
		{"/metricsz", http.StatusOK},
		{"/healthz", http.StatusOK},
		{"/readyz", http.StatusOK},
		{"/tracez", http.StatusOK},
	}
	backend := slices.Concat(common, []check{
		// The function-result cache is never served off the process: the
		// peer path that once shipped its digests is not mounted.
		{"/memoz/get", http.StatusNotFound},
	})
	router := slices.Concat(common, []check{
		{"/fleetz", http.StatusOK},
		{"/debug/pprof/", http.StatusOK},
	})
	targets := []struct {
		name, base string
		checks     []check
	}{
		{"router", fl.RouterAdminURL, router},
		{fl.BackendName(0), fl.AdminURL(0), backend},
		{fl.BackendName(1), fl.AdminURL(1), backend},
	}
	for _, tg := range targets {
		for _, c := range tg.checks {
			if code, body := get(tg.base + c.path); code != c.want {
				t.Errorf("%s: GET %s = %d, want %d: %s", tg.name, c.path, code, c.want, body)
			}
		}
	}

	// perfbench reads router /statsz "healthy" to gate a fleet boot.
	_, body := get(fl.RouterAdminURL + "/statsz")
	var rs struct {
		Healthy *int `json:"healthy"`
	}
	if err := json.Unmarshal(body, &rs); err != nil || rs.Healthy == nil || *rs.Healthy != 2 {
		t.Errorf("router /statsz healthy = %v (err %v), want 2: %s", rs.Healthy, err, body)
	}
}
