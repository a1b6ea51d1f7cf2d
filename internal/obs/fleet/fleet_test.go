package fleet

import (
	"context"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"engarde/internal/obs"
)

// fakeBackend is one scrape target built from a real obs.Registry and
// obs.Sink — the aggregator is tested against the exact admin surface a
// gatewayd serves, not a canned exposition.
type fakeBackend struct {
	reg     *obs.Registry
	session *obs.Histogram
	fbtv    *obs.Histogram
	served  *obs.Counter
	errors  *obs.Counter
	sink    *obs.Sink
	srv     *httptest.Server
}

func newFakeBackend(t *testing.T) *fakeBackend {
	t.Helper()
	b := &fakeBackend{reg: obs.NewRegistry()}
	b.served = b.reg.Counter(famServed, "sessions served")
	b.errors = b.reg.Counter(famErrors, "errors")
	// Scale 1e-3: record milliseconds, expose seconds — the gateway's own
	// convention, so the merge math runs against real exposed bounds.
	b.session = b.reg.Histogram(famSession, "session latency", obs.HistogramOpts{Scale: 1e-3})
	b.fbtv = b.reg.Histogram(famFBTV, "fbtv latency", obs.HistogramOpts{Scale: 1e-3})
	var err error
	b.sink, err = obs.NewSink(0, "")
	if err != nil {
		t.Fatal(err)
	}
	mux := http.NewServeMux()
	mux.Handle("/metricsz", b.reg.Handler())
	mux.Handle("/tracez", b.sink.Handler())
	b.srv = httptest.NewServer(mux)
	t.Cleanup(b.srv.Close)
	return b
}

func (b *fakeBackend) target(name string) Backend {
	return Backend{
		Name:       name,
		MetricsURL: b.srv.URL + "/metricsz",
		TracesURL:  b.srv.URL + "/tracez",
	}
}

func TestAggregatorSingleBackendQuantileExact(t *testing.T) {
	b := newFakeBackend(t)
	for _, ms := range []uint64{3, 7, 12, 40, 40, 95, 200, 900} {
		b.session.Observe(ms)
		b.served.Inc()
	}

	agg := New(Config{Backends: []Backend{b.target("b0")}})
	view := agg.ScrapeOnce(context.Background())

	if view.Fleet.BackendsUp != 1 || !view.Backends[0].Up {
		t.Fatalf("backend not up: %+v", view.Backends)
	}
	if view.Fleet.Served != 8 {
		t.Fatalf("served = %d, want 8", view.Fleet.Served)
	}
	// With one backend the fleet quantile must EQUAL the backend's own
	// Quantile (×scale): same buckets, same cumulative sums, same walk.
	want := float64(b.session.Quantile(0.99)) * 1e-3
	if view.Fleet.SessionP99 != want {
		t.Errorf("fleet p99 = %g, backend Quantile×scale = %g", view.Fleet.SessionP99, want)
	}
	if view.Backends[0].SessionP99 != want {
		t.Errorf("backend view p99 = %g, want %g", view.Backends[0].SessionP99, want)
	}
}

func TestAggregatorMergesAcrossBackends(t *testing.T) {
	b0, b1 := newFakeBackend(t), newFakeBackend(t)
	// A reference histogram receives the union of both backends'
	// observations: the merged fleet quantile must match it exactly,
	// because same-binary backends expose identical bucket bounds.
	ref := obs.NewRegistry().Histogram("ref", "", obs.HistogramOpts{Scale: 1e-3})
	for _, ms := range []uint64{2, 5, 9, 30} {
		b0.session.Observe(ms)
		ref.Observe(ms)
		b0.served.Inc()
	}
	for _, ms := range []uint64{400, 800, 1600, 3000} {
		b1.session.Observe(ms)
		ref.Observe(ms)
		b1.served.Inc()
	}

	agg := New(Config{Backends: []Backend{b0.target("b0"), b1.target("b1")}})
	view := agg.ScrapeOnce(context.Background())

	for _, q := range []struct {
		got  float64
		qval float64
	}{
		{view.Fleet.SessionP50, 0.50},
		{view.Fleet.SessionP90, 0.90},
		{view.Fleet.SessionP99, 0.99},
	} {
		want := float64(ref.Quantile(q.qval)) * 1e-3
		if q.got != want {
			t.Errorf("fleet q%.0f = %g, union reference = %g", q.qval*100, q.got, want)
		}
	}
	if view.Fleet.Served != 8 {
		t.Errorf("fleet served = %d, want 8", view.Fleet.Served)
	}
}

func TestAggregatorToleratesDeadBackend(t *testing.T) {
	live := newFakeBackend(t)
	live.served.Inc()
	dead := newFakeBackend(t)
	deadTarget := dead.target("dead")
	dead.srv.Close()

	agg := New(Config{Backends: []Backend{live.target("live"), deadTarget}})
	view := agg.ScrapeOnce(context.Background())

	if view.Fleet.BackendsUp != 1 || view.Fleet.BackendsTotal != 2 {
		t.Fatalf("up/total = %d/%d, want 1/2", view.Fleet.BackendsUp, view.Fleet.BackendsTotal)
	}
	var deadView *BackendView
	for i := range view.Backends {
		if view.Backends[i].Name == "dead" {
			deadView = &view.Backends[i]
		}
	}
	if deadView == nil || deadView.Up || deadView.Error == "" {
		t.Fatalf("dead backend view = %+v", deadView)
	}
	if view.Fleet.Served != 1 {
		t.Errorf("dead backend leaked counters into fleet sums: served = %d", view.Fleet.Served)
	}
}

func TestAggregatorDeltasAndSLO(t *testing.T) {
	b := newFakeBackend(t)
	for i := 0; i < 10; i++ {
		b.served.Inc()
	}
	b.errors.Inc()

	agg := New(Config{Backends: []Backend{b.target("b0")}, AvailabilityTarget: 0.9})
	v1 := agg.ScrapeOnce(context.Background())
	if v1.Backends[0].Deltas != nil {
		t.Errorf("first scrape produced deltas: %v", v1.Backends[0].Deltas)
	}
	// availability = 1 - 1/10 = 0.9, exactly on target: budget fully spent.
	if v1.SLO.Availability != 0.9 {
		t.Errorf("availability = %g, want 0.9", v1.SLO.Availability)
	}
	if v1.SLO.ErrorBudgetRemaining > 1e-9 {
		t.Errorf("error budget remaining = %g, want ~0", v1.SLO.ErrorBudgetRemaining)
	}
	if v1.SLO.VerdictIntegrity != 1.0 {
		t.Errorf("verdict integrity = %g, must be pinned at 1", v1.SLO.VerdictIntegrity)
	}

	for i := 0; i < 5; i++ {
		b.served.Inc()
	}
	v2 := agg.ScrapeOnce(context.Background())
	if d := v2.Backends[0].Deltas[famServed]; d != 5 {
		t.Errorf("served delta = %g, want 5 (deltas: %v)", d, v2.Backends[0].Deltas)
	}
}

func TestAggregatorPromOutputLints(t *testing.T) {
	b0, b1 := newFakeBackend(t), newFakeBackend(t)
	b0.session.Observe(10)
	b0.served.Inc()
	b1.session.Observe(20)
	b1.served.Inc()
	b1.errors.Inc()

	self := obs.NewRegistry()
	self.Counter("engarde_router_failover_total", "failovers").Inc()
	self.Counter("engarde_router_splices_evicted_total", "evictions").Inc()

	agg := New(Config{
		Backends: []Backend{b0.target("b0"), b1.target("b1")},
		Self:     self,
	})
	view := agg.ScrapeOnce(context.Background())
	if view.Fleet.RouterFailovers != 1 || view.Fleet.SplicesEvicted != 1 {
		t.Errorf("router counters not surfaced: failovers=%d evicted=%d",
			view.Fleet.RouterFailovers, view.Fleet.SplicesEvicted)
	}

	var buf strings.Builder
	agg.WriteProm(&buf, view)
	out := buf.String()
	if errs := obs.Lint(strings.NewReader(out)); len(errs) > 0 {
		t.Fatalf("merged exposition fails lint: %v\n%s", errs, out)
	}
	for _, want := range []string{
		`backend="b0"`, `backend="b1"`, `backend="router"`,
		"engarde_fleet_backends_up 2",
		"engarde_fleet_verdict_integrity 1",
		famSession + `_bucket{backend="b0",le="+Inf"}`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q", want)
		}
	}
}

func TestAggregatorRecentTraces(t *testing.T) {
	b := newFakeBackend(t)
	tr := obs.NewTrace("session", nil)
	tr.RecordSpan("disasm", time.Now(), 0)
	b.sink.Record(tr)

	selfSink, err := obs.NewSink(0, "")
	if err != nil {
		t.Fatal(err)
	}
	rt := obs.NewTrace("route", nil)
	selfSink.Record(rt)

	agg := New(Config{Backends: []Backend{b.target("b0")}, SelfSink: selfSink})
	view := agg.ScrapeOnce(context.Background())

	ids := map[string]string{}
	for _, ts := range view.RecentTraces {
		ids[ts.TraceID] = ts.Source
	}
	if src := ids[tr.ID()]; src != "b0" {
		t.Errorf("backend trace %s attributed to %q, want b0 (traces: %+v)", tr.ID(), src, view.RecentTraces)
	}
	if src := ids[rt.ID()]; src != "router" {
		t.Errorf("router trace %s attributed to %q, want router", rt.ID(), src)
	}
}

func TestParsePromRoundTrip(t *testing.T) {
	reg := obs.NewRegistry()
	reg.Counter("x_total", "a counter", obs.Label{Key: "k", Value: `quo"te`}).Inc()
	reg.Histogram("lat_seconds", "latency", obs.HistogramOpts{Scale: 1e-3}).Observe(5)

	var buf strings.Builder
	if err := reg.WriteText(&buf); err != nil {
		t.Fatal(err)
	}
	fams, err := obs.ParseText(strings.NewReader(buf.String()))
	if err != nil {
		t.Fatal(err)
	}
	byName := map[string]obs.Family{}
	for _, f := range fams {
		byName[f.Name] = f
	}
	c, ok := byName["x_total"]
	if !ok || c.Type != "counter" || len(c.Samples) != 1 || c.Samples[0].Value != 1 {
		t.Fatalf("x_total parsed as %+v", c)
	}
	if c.Samples[0].Labels[0].Value != `quo"te` {
		t.Errorf("escaped label decoded as %q", c.Samples[0].Labels[0].Value)
	}
	h, ok := byName["lat_seconds"]
	if !ok || h.Type != "histogram" {
		t.Fatalf("lat_seconds parsed as %+v", h)
	}
	var buckets, sums, counts int
	for _, s := range h.Samples {
		switch s.Name {
		case "lat_seconds_bucket":
			buckets++
		case "lat_seconds_sum":
			sums++
		case "lat_seconds_count":
			counts++
		}
	}
	if buckets == 0 || sums != 1 || counts != 1 {
		t.Errorf("histogram shape: %d buckets, %d sums, %d counts", buckets, sums, counts)
	}
}
