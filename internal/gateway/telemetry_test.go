package gateway_test

import (
	"bufio"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync"
	"testing"

	"engarde"
	"engarde/internal/gateway"
	"engarde/internal/obs"
)

// scrape runs one handler request and returns the recorded response.
func scrape(t testing.TB, h http.Handler, target string) *httptest.ResponseRecorder {
	t.Helper()
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, target, nil))
	if rec.Code != http.StatusOK {
		t.Fatalf("GET %s: status %d", target, rec.Code)
	}
	return rec
}

// sampleValue finds one sample line (exact series match, labels included)
// in a Prometheus text exposition and returns its value.
func sampleValue(t testing.TB, exposition, series string) float64 {
	t.Helper()
	sc := bufio.NewScanner(strings.NewReader(exposition))
	sc.Buffer(make([]byte, 0, 64*1024), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		// Label values may contain spaces ("Policy Checking"), so match the
		// full series as a prefix rather than splitting the line on fields.
		if !strings.HasPrefix(line, series+" ") {
			continue
		}
		val := strings.TrimSpace(strings.TrimPrefix(line, series+" "))
		v, err := strconv.ParseFloat(val, 64)
		if err != nil {
			t.Fatalf("series %s: unparseable value %q", series, val)
		}
		return v
	}
	t.Fatalf("series %s not found in exposition", series)
	return 0
}

// TestMetricsExpositionConformance scrapes /metricsz from a gateway that
// has served compliant, non-compliant and cached sessions — so every
// metric family (counters, gauges, per-phase cycles, fn-cache, latency and
// frame histograms) has live series — and runs the output through the
// strict exposition linter. /statsz must agree with the scrape because
// both read the same registry.
func TestMetricsExpositionConformance(t *testing.T) {
	gw, ln, client := testGateway(t, gateway.Config{
		Policies:       engarde.NewPolicySet(engarde.StackProtectorPolicy()),
		FnCacheEntries: 4096,
	})
	good := buildImage(t, "conf-good", 501, true)
	bad := buildImage(t, "conf-bad", 502, false)

	if v, err := provisionOnce(t, ln, client, good); err != nil || !v.Compliant {
		t.Fatalf("good image: verdict %+v err %v", v, err)
	}
	if v, err := provisionOnce(t, ln, client, good); err != nil || !v.Compliant {
		t.Fatalf("good image (cache hit): verdict %+v err %v", v, err)
	}
	if v, err := provisionOnce(t, ln, client, bad); err != nil || v.Compliant {
		t.Fatalf("bad image: verdict %+v err %v", v, err)
	}
	// sessions_active drops in a deferred call after served is counted, so
	// wait for both before comparing the quiet gateway's series.
	waitFor(t, "3 served sessions, none active", func() bool {
		s := gw.Stats()
		return s.Served == 3 && s.Active == 0
	})

	rec := scrape(t, gw.MetricsHandler(), "/metricsz")
	if ct := rec.Header().Get("Content-Type"); !strings.HasPrefix(ct, "text/plain; version=0.0.4") {
		t.Errorf("Content-Type = %q, want text/plain; version=0.0.4", ct)
	}
	body := rec.Body.String()
	if errs := obs.Lint(strings.NewReader(body)); len(errs) > 0 {
		for _, e := range errs {
			t.Error(e)
		}
		t.Fatalf("exposition failed lint (%d problems)", len(errs))
	}

	// Spot-check the registry against the /statsz snapshot: same objects,
	// so the values must agree exactly on a quiet gateway.
	s := gw.Stats()
	for series, want := range map[string]float64{
		"engarde_gateway_sessions_served_total":                       float64(s.Served),
		"engarde_gateway_sessions_accepted_total":                     float64(s.Accepted),
		"engarde_gateway_verdicts_total{verdict=\"compliant\"}":       float64(s.Compliant),
		"engarde_gateway_verdicts_total{verdict=\"non_compliant\"}":   float64(s.NonCompliant),
		"engarde_gateway_verdict_cache_lookups_total{result=\"hit\"}": float64(s.CacheHits),
		"engarde_gateway_sessions_active":                             0,
		"engarde_gateway_session_seconds_count":                       float64(s.Latency.Count),
	} {
		if got := sampleValue(t, body, series); got != want {
			t.Errorf("%s = %v, /statsz says %v", series, got, want)
		}
	}
	if s.FnCache == nil {
		t.Fatal("fn-cache stats missing from /statsz")
	}
	if got := sampleValue(t, body, "engarde_gateway_fn_cache_lookups_total{result=\"hit\"}"); got != float64(s.FnCache.Hits) {
		t.Errorf("fn-cache hits: exposition %v, /statsz %v", got, s.FnCache.Hits)
	}

	// Per-phase cycle totals come from the same counter the report reads.
	var phaseSum float64
	for phase, cyc := range s.PhaseCycles {
		series := "engarde_cycles_total{phase=\"" + phase + "\"}"
		got := sampleValue(t, body, series)
		if got != float64(cyc) {
			t.Errorf("%s = %v, /statsz says %v", series, got, cyc)
		}
		phaseSum += got
	}
	if phaseSum == 0 {
		t.Error("no cycles recorded in any phase")
	}
}

// TestMetricsHammerDuringProvisions scrapes /metricsz, /statsz and /tracez
// concurrently with a provisioning load — the race-detector test for the
// registry's read paths (GaugeFunc/CounterFunc closures read live gateway
// state) and for trace snapshots taken while sessions run.
func TestMetricsHammerDuringProvisions(t *testing.T) {
	sink, err := obs.NewSink(8, "")
	if err != nil {
		t.Fatal(err)
	}
	gw, ln, client := testGateway(t, gateway.Config{
		Policies:       engarde.NewPolicySet(engarde.StackProtectorPolicy()),
		FnCacheEntries: 4096,
		TraceSink:      sink,
	})
	images := [][]byte{
		buildImage(t, "hammer-0", 511, true),
		buildImage(t, "hammer-1", 512, true),
		buildImage(t, "hammer-2", 513, false),
	}

	const sessions = 12
	done := make(chan struct{})
	var wg sync.WaitGroup
	for s := 0; s < 3; s++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-done:
					return
				default:
				}
				rec := scrape(t, gw.MetricsHandler(), "/metricsz")
				if errs := obs.Lint(rec.Body); len(errs) > 0 {
					t.Errorf("mid-load exposition invalid: %v", errs[0])
					return
				}
				scrape(t, gw.StatsHandler(), "/statsz")
				scrape(t, sink.Handler(), "/tracez")
				scrape(t, sink.Handler(), "/tracez?format=chrome")
			}
		}()
	}

	var provWG sync.WaitGroup
	errCh := make(chan error, sessions)
	for i := 0; i < sessions; i++ {
		provWG.Add(1)
		go func(i int) {
			defer provWG.Done()
			image := images[i%len(images)]
			v, err := provisionOnce(t, ln, client, image)
			if err != nil {
				errCh <- err
				return
			}
			if wantCompliant := i%len(images) != 2; v.Compliant != wantCompliant {
				errCh <- &verdictMismatch{i: i, got: v.Compliant}
			}
		}(i)
	}
	provWG.Wait()
	close(done)
	wg.Wait()
	close(errCh)
	for err := range errCh {
		t.Error(err)
	}

	waitFor(t, "all sessions served", func() bool { return gw.Stats().Served == sessions })

	// Final agreement check after the dust settles.
	body := scrape(t, gw.MetricsHandler(), "/metricsz").Body.String()
	s := gw.Stats()
	if got := sampleValue(t, body, "engarde_gateway_sessions_served_total"); got != float64(s.Served) {
		t.Errorf("served: exposition %v, /statsz %v", got, s.Served)
	}
	if len(sink.Recent()) == 0 {
		t.Error("trace sink recorded no sessions")
	}
}

type verdictMismatch struct {
	i   int
	got bool
}

func (e *verdictMismatch) Error() string {
	return "session " + strconv.Itoa(e.i) + ": unexpected verdict compliant=" + strconv.FormatBool(e.got)
}
