// Package fleet aggregates a fleet's telemetry at the router: it scrapes
// each backend's /metricsz (Prometheus text) and /tracez (trace JSONL) on
// a cadence, merges the histograms into fleet-level quantiles, derives an
// SLO/error-budget block, and re-serves the whole thing at /fleetz as
// JSON and as a backend-labeled Prometheus exposition.
//
// Everything is zero-dependency like the rest of obs: expositions are read
// with obs.ParseText, the same reader obs.Lint checks them with.
package fleet

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"log/slog"
	"math"
	"net/http"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"engarde/internal/obs"
)

// Aggregation defaults.
const (
	DefaultInterval           = 5 * time.Second
	DefaultScrapeTimeout      = 2 * time.Second
	DefaultKeepTraces         = 8
	DefaultAvailabilityTarget = 0.999
)

// Metric families the SLO block is derived from (the gateway's names).
const (
	famServed  = "engarde_gateway_sessions_served_total"
	famErrors  = "engarde_gateway_errors_total"
	famSession = "engarde_gateway_session_seconds"
	famFBTV    = "engarde_gateway_first_byte_to_verdict_seconds"
)

// escapeLabel encodes a label value for re-emission.
func escapeLabel(v string) string {
	v = strings.ReplaceAll(v, `\`, `\\`)
	v = strings.ReplaceAll(v, `"`, `\"`)
	v = strings.ReplaceAll(v, "\n", `\n`)
	return v
}

// Backend is one scrape target.
type Backend struct {
	// Name labels every re-emitted series (backend="<name>").
	Name string
	// MetricsURL is the full URL of the backend's Prometheus exposition.
	MetricsURL string
	// TracesURL, when non-empty, is the backend's trace JSONL endpoint;
	// its most recent traces feed FleetView.RecentTraces.
	TracesURL string
}

// Config configures an Aggregator.
type Config struct {
	Backends []Backend
	// Interval is the background scrape cadence (and the staleness bound
	// of Handler-triggered scrapes). 0 means DefaultInterval.
	Interval time.Duration
	// ScrapeTimeout bounds one backend scrape. 0 means DefaultScrapeTimeout.
	ScrapeTimeout time.Duration
	// Client overrides the scrape HTTP client (tests).
	Client *http.Client
	// Self, when set, is the router's own registry: its families are
	// merged into the prom exposition under SelfName, and the
	// aggregator's scrape counters are registered on it.
	Self *obs.Registry
	// SelfSink, when set, contributes the router's own recent traces to
	// RecentTraces under SelfName.
	SelfSink *obs.Sink
	// SelfName labels the Self registry's series; default "router".
	SelfName string
	// AvailabilityTarget is the SLO target availability; default 0.999.
	AvailabilityTarget float64
	// KeepTraces bounds recent traces retained per source; default 8,
	// negative disables trace scraping.
	KeepTraces int
	// Logger receives scrape diagnostics at debug level. Nil discards
	// them.
	Logger *slog.Logger
}

// Aggregator scrapes the fleet and serves the merged view.
type Aggregator struct {
	cfg     Config
	client  *http.Client
	scrapes *obs.Counter
	fails   *obs.Counter

	mu        sync.Mutex
	last      FleetView
	families  map[string][]obs.Family // per-backend parsed exposition
	prevSums  map[string]map[string]float64
	scrapedAt time.Time

	stopOnce sync.Once
	stop     chan struct{}
	done     chan struct{}
}

// New builds an Aggregator (no background scraping until Start).
func New(cfg Config) *Aggregator {
	if cfg.Interval <= 0 {
		cfg.Interval = DefaultInterval
	}
	if cfg.ScrapeTimeout <= 0 {
		cfg.ScrapeTimeout = DefaultScrapeTimeout
	}
	if cfg.SelfName == "" {
		cfg.SelfName = "router"
	}
	if cfg.AvailabilityTarget <= 0 || cfg.AvailabilityTarget >= 1 {
		cfg.AvailabilityTarget = DefaultAvailabilityTarget
	}
	if cfg.KeepTraces == 0 {
		cfg.KeepTraces = DefaultKeepTraces
	}
	if cfg.Logger == nil {
		cfg.Logger = obs.DiscardLogger()
	}
	a := &Aggregator{
		cfg:      cfg,
		client:   cfg.Client,
		families: make(map[string][]obs.Family),
		prevSums: make(map[string]map[string]float64),
		stop:     make(chan struct{}),
		done:     make(chan struct{}),
	}
	if a.client == nil {
		a.client = &http.Client{Timeout: cfg.ScrapeTimeout}
	}
	if cfg.Self != nil {
		a.scrapes = cfg.Self.Counter("engarde_fleet_scrapes_total",
			"Backend scrapes attempted by the fleet aggregator.")
		a.fails = cfg.Self.Counter("engarde_fleet_scrape_errors_total",
			"Backend scrapes that failed (backend down or malformed exposition).")
	}
	return a
}

// Start launches the background scrape loop (Stop to end it).
func (a *Aggregator) Start() {
	go func() {
		defer close(a.done)
		tick := time.NewTicker(a.cfg.Interval)
		defer tick.Stop()
		for {
			select {
			case <-a.stop:
				return
			case <-tick.C:
				a.ScrapeOnce(context.Background())
			}
		}
	}()
}

// Stop ends the background loop started by Start. Safe to call without
// Start (the loop goroutine simply never ran; Stop only closes the
// channel) and safe to call twice.
func (a *Aggregator) Stop() {
	a.stopOnce.Do(func() { close(a.stop) })
}

// scrapeText GETs url and hands the body to parse.
func (a *Aggregator) scrapeBody(ctx context.Context, url string) (io.ReadCloser, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
	if err != nil {
		return nil, err
	}
	resp, err := a.client.Do(req)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		resp.Body.Close()
		return nil, fmt.Errorf("status %s", resp.Status)
	}
	return resp.Body, nil
}

// ScrapeOnce scrapes every backend, rebuilds the merged view, and returns
// it. A dead backend costs its scrape timeout and appears with Up=false;
// it never fails the aggregation.
func (a *Aggregator) ScrapeOnce(ctx context.Context) FleetView {
	type result struct {
		backend Backend
		fams    []obs.Family
		traces  []obs.TraceData
		err     error
	}
	results := make([]result, len(a.cfg.Backends))
	var wg sync.WaitGroup
	for i, b := range a.cfg.Backends {
		wg.Add(1)
		go func(i int, b Backend) {
			defer wg.Done()
			res := result{backend: b}
			sctx, cancel := context.WithTimeout(ctx, a.cfg.ScrapeTimeout)
			defer cancel()
			if a.scrapes != nil {
				a.scrapes.Inc()
			}
			body, err := a.scrapeBody(sctx, b.MetricsURL)
			if err == nil {
				res.fams, err = obs.ParseText(body)
				body.Close()
			}
			if err != nil {
				res.err = err
				if a.fails != nil {
					a.fails.Inc()
				}
				a.cfg.Logger.Debug("fleet: scrape failed", "backend", b.Name, "err", err)
			} else if b.TracesURL != "" && a.cfg.KeepTraces > 0 {
				// Traces are best-effort garnish on a healthy scrape.
				if tb, terr := a.scrapeBody(sctx, b.TracesURL); terr == nil {
					res.traces = readTraceJSONL(tb, a.cfg.KeepTraces)
					tb.Close()
				}
			}
			results[i] = res
		}(i, b)
	}
	wg.Wait()

	a.mu.Lock()
	defer a.mu.Unlock()
	now := time.Now()
	view := FleetView{
		ScrapedAtUnixNano: now.UnixNano(),
		SLO:               SLO{AvailabilityTarget: a.cfg.AvailabilityTarget, VerdictIntegrity: 1.0},
	}
	sessionAll, fbtvAll := newHist(), newHist()
	for _, res := range results {
		bv := BackendView{Name: res.backend.Name, Up: res.err == nil}
		if res.err != nil {
			bv.Error = res.err.Error()
			// A dead backend's families are dropped — its counters would
			// otherwise freeze into the fleet sums forever. Its delta
			// baseline is kept so a restart shows sane deltas.
			delete(a.families, res.backend.Name)
		} else {
			a.families[res.backend.Name] = res.fams
			sums := counterSums(res.fams)
			bv.Served = uint64(sums[famServed])
			bv.Errors = uint64(sums[famErrors])
			bv.Deltas = counterDeltas(a.prevSums[res.backend.Name], sums)
			a.prevSums[res.backend.Name] = sums
			if h := histogramOf(res.fams, famSession); h != nil {
				bv.SessionP50 = h.quantile(0.50)
				bv.SessionP99 = h.quantile(0.99)
				sessionAll.merge(h)
			}
			if h := histogramOf(res.fams, famFBTV); h != nil {
				bv.FBTVP99 = h.quantile(0.99)
				fbtvAll.merge(h)
			}
			view.Fleet.Served += bv.Served
			view.Fleet.Errors += bv.Errors
			view.Fleet.BackendsUp++
		}
		for _, td := range res.traces {
			view.RecentTraces = append(view.RecentTraces, summarize(res.backend.Name, td))
		}
		view.Backends = append(view.Backends, bv)
	}
	view.Fleet.BackendsTotal = len(a.cfg.Backends)
	view.Fleet.SessionP50 = sessionAll.quantile(0.50)
	view.Fleet.SessionP90 = sessionAll.quantile(0.90)
	view.Fleet.SessionP99 = sessionAll.quantile(0.99)
	view.Fleet.FBTVP99 = fbtvAll.quantile(0.99)

	// The router's own registry contributes the fleet-level failover and
	// splice-eviction counters (satellite: surface them in /fleetz).
	if a.cfg.Self != nil {
		var buf strings.Builder
		a.cfg.Self.WriteText(&buf)
		if fams, err := obs.ParseText(strings.NewReader(buf.String())); err == nil {
			a.families[a.cfg.SelfName] = fams
			sums := counterSums(fams)
			view.Fleet.RouterFailovers = uint64(sums["engarde_router_failover_total"])
			view.Fleet.SplicesEvicted = uint64(sums["engarde_router_splices_evicted_total"])
		}
	}
	if a.cfg.SelfSink != nil && a.cfg.KeepTraces > 0 {
		recent := a.cfg.SelfSink.Recent()
		if len(recent) > a.cfg.KeepTraces {
			recent = recent[len(recent)-a.cfg.KeepTraces:]
		}
		for _, td := range recent {
			if td != nil {
				view.RecentTraces = append(view.RecentTraces, summarize(a.cfg.SelfName, *td))
			}
		}
	}

	// Availability over everything the fleet carried to completion:
	// served sessions that did not end in a machinery error. Verdict
	// integrity is 1.0 by construction — verdicts are computed inside the
	// attested enclave and checked end-to-end; no aggregation layer can
	// degrade that number, which is exactly why it is pinned here.
	view.SLO.Availability = 1.0
	if view.Fleet.Served > 0 {
		av := 1.0 - float64(view.Fleet.Errors)/float64(view.Fleet.Served)
		view.SLO.Availability = math.Max(0, av)
	}
	budget := 1.0 - a.cfg.AvailabilityTarget
	view.SLO.ErrorBudgetRemaining = (budget - (1.0 - view.SLO.Availability)) / budget
	view.SLO.FBTVP99Seconds = view.Fleet.FBTVP99

	a.last = view
	a.scrapedAt = now
	return view
}

// Snapshot returns the most recent view, scraping synchronously when none
// exists yet or the last one is older than the interval — so /fleetz is
// always at most one cadence stale, loop or no loop.
func (a *Aggregator) Snapshot(ctx context.Context) FleetView {
	a.mu.Lock()
	fresh := !a.scrapedAt.IsZero() && time.Since(a.scrapedAt) <= a.cfg.Interval
	view := a.last
	a.mu.Unlock()
	if fresh {
		return view
	}
	return a.ScrapeOnce(ctx)
}

// Handler serves the fleet view (mount at /fleetz): JSON by default, the
// merged backend-labeled Prometheus exposition with ?format=prom.
func (a *Aggregator) Handler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		view := a.Snapshot(r.Context())
		if r.URL.Query().Get("format") == "prom" {
			w.Header().Set("Content-Type", "text/plain; version=0.0.4")
			a.WriteProm(w, view)
			return
		}
		w.Header().Set("Content-Type", "application/json")
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		_ = enc.Encode(view)
	})
}

// WriteProm renders the fleet exposition: fleet-level summary series
// first, then every scraped family re-emitted with a backend label. One
// HELP/TYPE per family and per-backend label disambiguation keep the
// merged output valid under obs.Lint.
func (a *Aggregator) WriteProm(w io.Writer, view FleetView) {
	fmt.Fprintf(w, "# HELP engarde_fleet_backends_up Backends whose last scrape succeeded.\n# TYPE engarde_fleet_backends_up gauge\nengarde_fleet_backends_up %d\n", view.Fleet.BackendsUp)
	fmt.Fprintf(w, "# HELP engarde_fleet_backends_total Backends configured for aggregation.\n# TYPE engarde_fleet_backends_total gauge\nengarde_fleet_backends_total %d\n", view.Fleet.BackendsTotal)
	fmt.Fprintf(w, "# HELP engarde_fleet_availability Fleet availability (served minus errors over served).\n# TYPE engarde_fleet_availability gauge\nengarde_fleet_availability %s\n", formatProm(view.SLO.Availability))
	fmt.Fprintf(w, "# HELP engarde_fleet_error_budget_remaining Fraction of the availability error budget left.\n# TYPE engarde_fleet_error_budget_remaining gauge\nengarde_fleet_error_budget_remaining %s\n", formatProm(view.SLO.ErrorBudgetRemaining))
	fmt.Fprintf(w, "# HELP engarde_fleet_verdict_integrity Verdict integrity (always 1: verdicts are enclave-computed and end-to-end checked).\n# TYPE engarde_fleet_verdict_integrity gauge\nengarde_fleet_verdict_integrity 1\n")
	fmt.Fprintf(w, "# HELP engarde_fleet_session_p99_seconds Fleet-merged p99 session latency.\n# TYPE engarde_fleet_session_p99_seconds gauge\nengarde_fleet_session_p99_seconds %s\n", formatProm(view.Fleet.SessionP99))
	fmt.Fprintf(w, "# HELP engarde_fleet_fbtv_p99_seconds Fleet-merged p99 first-byte-to-verdict latency.\n# TYPE engarde_fleet_fbtv_p99_seconds gauge\nengarde_fleet_fbtv_p99_seconds %s\n", formatProm(view.SLO.FBTVP99Seconds))

	a.mu.Lock()
	sources := make([]string, 0, len(a.families))
	for name := range a.families {
		sources = append(sources, name)
	}
	sort.Strings(sources)
	// Merge families across sources by name, preserving one TYPE/HELP.
	type series struct {
		source string
		sample obs.Sample
	}
	type merged struct {
		typ, help string
		series    []series
	}
	order := []string{}
	fams := map[string]*merged{}
	for _, src := range sources {
		for _, f := range a.families[src] {
			m, ok := fams[f.Name]
			if !ok {
				m = &merged{typ: f.Type, help: f.Help}
				fams[f.Name] = m
				order = append(order, f.Name)
			}
			if m.typ != f.Type {
				// A cross-source type clash would corrupt the exposition;
				// first declaration wins, the clashing source is skipped.
				a.cfg.Logger.Debug("fleet: family type clash; skipped",
					"family", f.Name, "type", f.Type, "source", src, "first_type", m.typ)
				continue
			}
			if m.help == "" {
				m.help = f.Help
			}
			for _, s := range f.Samples {
				m.series = append(m.series, series{source: src, sample: s})
			}
		}
	}
	a.mu.Unlock()

	for _, name := range order {
		m := fams[name]
		if m.help != "" {
			fmt.Fprintf(w, "# HELP %s %s\n", name, m.help)
		}
		fmt.Fprintf(w, "# TYPE %s %s\n", name, m.typ)
		for _, s := range m.series {
			var lb strings.Builder
			lb.WriteString(`{backend="`)
			lb.WriteString(escapeLabel(s.source))
			lb.WriteByte('"')
			for _, l := range s.sample.Labels {
				lb.WriteString(",")
				lb.WriteString(l.Key)
				lb.WriteString(`="`)
				lb.WriteString(escapeLabel(l.Value))
				lb.WriteByte('"')
			}
			lb.WriteByte('}')
			fmt.Fprintf(w, "%s%s %s\n", s.sample.Name, lb.String(), formatProm(s.sample.Value))
		}
	}
}

// FleetView is the JSON shape of /fleetz.
type FleetView struct {
	ScrapedAtUnixNano int64          `json:"scraped_at_unix_nano"`
	Backends          []BackendView  `json:"backends"`
	Fleet             Summary        `json:"fleet"`
	SLO               SLO            `json:"slo"`
	RecentTraces      []TraceSummary `json:"recent_traces,omitempty"`
}

// BackendView is one backend's slice of the fleet view.
type BackendView struct {
	Name string `json:"name"`
	Up   bool   `json:"up"`
	// Error is the scrape failure when Up is false.
	Error  string `json:"error,omitempty"`
	Served uint64 `json:"served"`
	Errors uint64 `json:"errors"`
	// Deltas are per-counter-family increases since the previous
	// successful scrape — the per-backend health delta block.
	Deltas     map[string]float64 `json:"deltas,omitempty"`
	SessionP50 float64            `json:"session_p50_seconds"`
	SessionP99 float64            `json:"session_p99_seconds"`
	FBTVP99    float64            `json:"fbtv_p99_seconds"`
}

// Summary is the fleet-merged block.
type Summary struct {
	BackendsUp      int     `json:"backends_up"`
	BackendsTotal   int     `json:"backends_total"`
	Served          uint64  `json:"served"`
	Errors          uint64  `json:"errors"`
	SessionP50      float64 `json:"session_p50_seconds"`
	SessionP90      float64 `json:"session_p90_seconds"`
	SessionP99      float64 `json:"session_p99_seconds"`
	FBTVP99         float64 `json:"fbtv_p99_seconds"`
	RouterFailovers uint64  `json:"router_failovers"`
	SplicesEvicted  uint64  `json:"splices_evicted"`
}

// SLO is the error-budget block.
type SLO struct {
	AvailabilityTarget   float64 `json:"availability_target"`
	Availability         float64 `json:"availability"`
	ErrorBudgetRemaining float64 `json:"error_budget_remaining"`
	FBTVP99Seconds       float64 `json:"fbtv_p99_seconds"`
	// VerdictIntegrity is pinned at 1: the inspection verdict is computed
	// inside the attested enclave and integrity-protected end to end, so
	// no fleet component can degrade it — the SLO records the invariant.
	VerdictIntegrity float64 `json:"verdict_integrity"`
}

// TraceSummary is one recent trace, for drill-down correlation.
type TraceSummary struct {
	Source    string  `json:"source"`
	TraceID   string  `json:"trace_id"`
	Name      string  `json:"name"`
	DurMillis float64 `json:"dur_ms"`
	Spans     int     `json:"spans"`
}

func summarize(source string, td obs.TraceData) TraceSummary {
	ts := TraceSummary{Source: source, TraceID: td.ID, Name: td.Name, Spans: len(td.Spans)}
	if td.EndUnixNano > td.StartUnixNano {
		ts.DurMillis = float64(td.EndUnixNano-td.StartUnixNano) / 1e6
	}
	return ts
}

// readTraceJSONL parses a /tracez body (one TraceData JSON per line),
// keeping the last keep traces.
func readTraceJSONL(r io.Reader, keep int) []obs.TraceData {
	var out []obs.TraceData
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 1<<20)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" {
			continue
		}
		var td obs.TraceData
		if json.Unmarshal([]byte(line), &td) == nil && td.ID != "" {
			out = append(out, td)
		}
	}
	if len(out) > keep {
		out = out[len(out)-keep:]
	}
	return out
}

// counterSums sums each counter family's samples (all label sets).
func counterSums(fams []obs.Family) map[string]float64 {
	out := make(map[string]float64)
	for _, f := range fams {
		if f.Type != "counter" {
			continue
		}
		for _, s := range f.Samples {
			out[f.Name] += s.Value
		}
	}
	return out
}

// counterDeltas returns per-family increases since prev, dropping zeros.
func counterDeltas(prev, cur map[string]float64) map[string]float64 {
	if prev == nil {
		return nil
	}
	out := make(map[string]float64)
	for name, v := range cur {
		if d := v - prev[name]; d > 0 {
			out[name] = d
		}
	}
	if len(out) == 0 {
		return nil
	}
	return out
}

// hist is a merged cumulative histogram over exposed le bounds. Every
// backend runs the same binary, so bounds line up and cumulative counts
// sum exactly; a union of differing bounds still merges correctly because
// a cumulative histogram is a non-decreasing step function (each source
// contributes its value at the greatest of its own bounds ≤ le).
type hist struct {
	cum map[float64]float64 // finite le → cumulative count
	inf float64
	sum float64
}

func newHist() *hist { return &hist{cum: make(map[float64]float64)} }

// histogramOf extracts famName's merged bucket set (all label groups
// folded together) or nil when absent.
func histogramOf(fams []obs.Family, famName string) *hist {
	for _, f := range fams {
		if f.Name != famName || f.Type != "histogram" {
			continue
		}
		h := newHist()
		for _, s := range f.Samples {
			switch s.Name {
			case famName + "_bucket":
				for _, l := range s.Labels {
					if l.Key != "le" {
						continue
					}
					if l.Value == "+Inf" {
						h.inf += s.Value
					} else if le, err := parsePromFloat(l.Value); err == nil {
						h.cum[le] += s.Value
					}
				}
			case famName + "_sum":
				h.sum += s.Value
			}
		}
		return h
	}
	return nil
}

func (h *hist) merge(o *hist) {
	les := make([]float64, 0, len(h.cum)+len(o.cum))
	seen := map[float64]bool{}
	for le := range h.cum {
		les = append(les, le)
		seen[le] = true
	}
	for le := range o.cum {
		if !seen[le] {
			les = append(les, le)
		}
	}
	sort.Float64s(les)
	merged := make(map[float64]float64, len(les))
	for _, le := range les {
		merged[le] = stepAt(h.cum, le) + stepAt(o.cum, le)
	}
	h.cum = merged
	h.inf += o.inf
	h.sum += o.sum
}

// stepAt evaluates a cumulative bucket map as a step function at le.
func stepAt(cum map[float64]float64, le float64) float64 {
	best, val := math.Inf(-1), 0.0
	for b, c := range cum {
		if b <= le && b > best {
			best, val = b, c
		}
	}
	return val
}

// quantile mirrors obs.Histogram.Quantile over the exposed (scaled)
// bounds: the first bound whose cumulative count exceeds q of the total.
func (h *hist) quantile(q float64) float64 {
	if h == nil || h.inf == 0 {
		return 0
	}
	target := math.Floor(q * h.inf)
	les := make([]float64, 0, len(h.cum))
	for le := range h.cum {
		les = append(les, le)
	}
	sort.Float64s(les)
	for _, le := range les {
		if h.cum[le] > target {
			return le
		}
	}
	if len(les) > 0 {
		return les[len(les)-1]
	}
	return 0
}

func parsePromFloat(s string) (float64, error) {
	return strconv.ParseFloat(s, 64)
}

// formatProm renders a value the way the registry does.
func formatProm(v float64) string {
	if math.IsInf(v, 1) {
		return "+Inf"
	}
	if math.IsInf(v, -1) {
		return "-Inf"
	}
	return strconv.FormatFloat(v, 'g', -1, 64)
}
