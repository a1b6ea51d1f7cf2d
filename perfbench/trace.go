package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"time"

	"engarde/internal/obs"
)

// scrape is what the daemons export, read after the traced window.
type scrape struct {
	gateways []gatewayStats
	router   *routerStats
	// traces holds every /tracez trace, keyed by trace ID: gatewayd
	// session traces under "gw", router route traces under "router".
	traces map[string]map[string]*obs.TraceData
}

type gatewayStats struct {
	Shed        uint64 `json:"shed"`
	CacheHits   uint64 `json:"cache_hits"`
	CacheMisses uint64 `json:"cache_misses"`
	FnCache     *struct {
		Hits   uint64 `json:"hits"`
		Misses uint64 `json:"misses"`
	} `json:"fn_cache"`
}

type routerStats struct {
	Announced uint64 `json:"announced"`
	Affine    uint64 `json:"affine"`
}

func scrapeFleet(f *fleet) (*scrape, error) {
	s := &scrape{traces: map[string]map[string]*obs.TraceData{"gw": {}, "router": {}}}
	for _, g := range f.gateways {
		var st gatewayStats
		if err := getJSON(g.admin+"/statsz", &st); err != nil {
			return nil, err
		}
		s.gateways = append(s.gateways, st)
		if err := readTraces(g.admin+"/tracez", s.traces["gw"]); err != nil {
			return nil, err
		}
	}
	if f.router != nil {
		s.router = &routerStats{}
		if err := getJSON(f.router.admin+"/statsz", s.router); err != nil {
			return nil, err
		}
		if err := readTraces(f.router.admin+"/tracez", s.traces["router"]); err != nil {
			return nil, err
		}
	}
	httpClient.CloseIdleConnections()
	return s, nil
}

// readTraces reads a /tracez JSONL body into into, by trace ID.
func readTraces(url string, into map[string]*obs.TraceData) error {
	resp, err := httpClient.Get(url)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 0, 1<<20), 16<<20)
	for sc.Scan() {
		var td obs.TraceData
		if err := json.Unmarshal(sc.Bytes(), &td); err != nil {
			return fmt.Errorf("%s: %w", url, err)
		}
		into[td.ID] = &td
	}
	return sc.Err()
}

// gatewayPhases are the top-level spans of a gatewayd session trace; a
// session's time outside their union is unattributed.
var gatewayPhases = map[string]bool{
	"create-enclave": true, "pool-checkout": true, "clone-enclave": true,
	"attest": true, "key-exchange": true, "recv-image": true,
	"stage": true, "disasm": true, "policy": true, "load": true,
	"finalize": true, "send-verdict": true, "enclave-failover": true,
}

// unattributed is a trace's wall time minus the union of its top-level
// spans.
func unattributed(td *obs.TraceData) time.Duration {
	type iv struct{ lo, hi int64 }
	var ivs []iv
	for _, sp := range td.Spans {
		if gatewayPhases[sp.Name] {
			ivs = append(ivs, iv{sp.StartUnixNano, sp.StartUnixNano + int64(sp.Dur)})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].lo < ivs[j].lo })
	var covered, end int64
	for _, v := range ivs {
		if v.lo > end {
			covered += v.hi - v.lo
			end = v.hi
		} else if v.hi > end {
			covered += v.hi - end
			end = v.hi
		}
	}
	return time.Duration(td.EndUnixNano - td.StartUnixNano - covered)
}

func spanDur(td *obs.TraceData, name string) (time.Duration, int64, bool) {
	for _, sp := range td.Spans {
		if sp.Name == name {
			return sp.Dur, sp.StartUnixNano + int64(sp.Dur), true
		}
	}
	return 0, 0, false
}

// layerReport is the traced run's per-layer breakdown.
type layerReport struct {
	// Values holds every per-layer metric the run could measure.
	Values map[string]float64 `json:"values"`
	// Quantiles gives n and rank for the metrics that are medians or
	// tails of raw samples.
	Quantiles map[string]Quantile `json:"quantiles"`
	// NotExercised lists the per-layer metrics this workload's path does
	// not reach; they are reported as 0.
	NotExercised []string `json:"not_exercised"`
	// Ledger holds the exact counts (cycle model, NumInsts, allocations)
	// of the replayed layer calls. A seed reproduces them exactly.
	Ledger     map[string]uint64 `json:"ledger"`
	Mismatches []string          `json:"mismatches,omitempty"`
	SpansFile  string            `json:"spans_file"`
}

// perLayer lists the per-layer metrics of the result line and their
// units, in BENCHMARK.json order.
var perLayer = []struct{ name, unit string }{
	{"secchan.keygen_ms", "ms"}, {"secchan.open_mb_s", "MB/s"}, {"secchan.seal_mb_s", "MB/s"},
	{"secchan.recv_allocs_per_frame", "count"},
	{"core.create_ms", "ms"}, {"core.create_cycles", "cycles"},
	{"core.clone_ms", "ms"}, {"core.recycle_ms", "ms"},
	{"attest.quote_ms", "ms"}, {"attest.verify_ms", "ms"},
	{"elf64.parse_us", "us"}, {"loader.load_ms", "ms"}, {"loader.load_cycles", "cycles"},
	{"nacl.decode_ns_per_inst", "ns"}, {"nacl.decode_allocs_per_op", "count"},
	{"nacl.validate_ms", "ms"}, {"nacl.reach_ms", "ms"}, {"nacl.disasm_cycles", "cycles"},
	{"stream.upload_ms", "ms"}, {"stream.exposed_ms", "ms"},
	{"policy.stackprot.ns_per_inst", "ns"}, {"policy.stackprot.allocs_per_op", "count"},
	{"policy.ifcc.ns_per_inst", "ns"}, {"policy.ifcc.allocs_per_op", "count"},
	{"policy.liblink.ns_per_inst", "ns"}, {"policy.liblink.allocs_per_op", "count"},
	{"policy.noforbidden.ns_per_inst", "ns"}, {"policy.noforbidden.allocs_per_op", "count"},
	{"policy.cycles", "cycles"},
	{"memo.fn_hit_ratio", "ratio"}, {"memo.probe_us", "us"},
	{"gateway.queue_wait_p50_ms", "ms"}, {"gateway.verdict_hit_ratio", "ratio"}, {"gateway.shed_total", "count"},
	{"router.affinity_ratio", "ratio"}, {"router.peek_dial_ms", "ms"}, {"router.splice_overhead_ms", "ms"},
	{"client.retries", "count"},
	{"unattributed_ms", "ms"}, {"obs.tracing_overhead_pct", "%"},
}

// metrics projects the layer report onto the result line: every
// per-layer metric, 0 where this workload does not exercise the layer.
func (l *layerReport) metrics() map[string]metric {
	out := make(map[string]metric, len(perLayer))
	for _, m := range perLayer {
		v, ok := l.Values[m.name]
		if !ok {
			l.NotExercised = append(l.NotExercised, m.name)
		}
		out[m.name] = metric{v, m.unit}
	}
	return out
}

// traceLayers builds the per-layer report: the in-process replay, plus
// what the daemons exported about the traced window and what the clients
// saw of it.
func traceLayers(w *workload, seed int64, ins []*input, outs []*outcome, sc *scrape, dir string) (*layerReport, error) {
	l, spans, err := replay(w, ins)
	if err != nil {
		return nil, err
	}
	l.SpansFile = filepath.Join(dir, "..", fmt.Sprintf("%s-%d.spans.jsonl", w.Name, seed))
	if err := writeSpans(l.SpansFile, spans); err != nil {
		return nil, err
	}
	l.fromWindow(w, outs, sc)
	return l, nil
}

func writeSpans(path string, spans []span) error {
	fh, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(fh)
	enc := json.NewEncoder(bw)
	for i := range spans {
		if err := enc.Encode(&spans[i]); err != nil {
			fh.Close()
			return err
		}
	}
	if err := bw.Flush(); err != nil {
		fh.Close()
		return err
	}
	return fh.Close()
}

func (l *layerReport) set(name string, q Quantile) {
	if q.N == 0 {
		return
	}
	l.Values[name] = q.Value
	l.Quantiles[name] = q
}

// fromWindow derives the metrics the daemons and clients measured during
// the traced window, joining client sessions to daemon traces on the
// client-originated trace ID.
func (l *layerReport) fromWindow(w *workload, outs []*outcome, sc *scrape) {
	var upload, exposed, queue, peekDial, splice, unattr []time.Duration
	retries := 0
	for _, o := range outs {
		retries += o.Retries
		if !o.ok() {
			continue
		}
		upload = append(upload, o.Last.Sub(o.First))
		exposed = append(exposed, o.End.Sub(o.Last))
		gw, ok := sc.traces["gw"][o.TraceID]
		if !ok {
			continue // aged out of the gatewayd's recent-trace ring
		}
		unattr = append(unattr, unattributed(gw))
		admitted := o.Dialed.UnixNano()
		if rt, ok := sc.traces["router"][o.TraceID]; ok {
			peek, _, _ := spanDur(rt, "peek-preamble")
			dial, dialEnd, ok := spanDur(rt, "dial")
			if ok {
				peekDial = append(peekDial, peek+dial)
				admitted = dialEnd
			}
			splice = append(splice, o.End.Sub(o.Dialed)-time.Duration(gw.EndUnixNano-gw.StartUnixNano))
		}
		queue = append(queue, time.Duration(gw.StartUnixNano-admitted))
	}
	l.set("stream.upload_ms", nearestRank(sortedMillis(upload), 0.5))
	l.set("stream.exposed_ms", nearestRank(sortedMillis(exposed), 0.5))
	l.Values["client.retries"] = float64(retries)
	l.set("gateway.queue_wait_p50_ms", nearestRank(sortedMillis(queue), 0.5))
	l.set("unattributed_ms", nearestRank(sortedMillis(unattr), 0.5))
	if w.Router {
		l.set("router.peek_dial_ms", nearestRank(sortedMillis(peekDial), 0.5))
		l.set("router.splice_overhead_ms", nearestRank(sortedMillis(splice), 0.5))
		if sc.router.Announced > 0 {
			l.Values["router.affinity_ratio"] = float64(sc.router.Affine) / float64(sc.router.Announced)
		}
	}

	var hits, misses, fnHits, fnMisses, shed uint64
	for _, g := range sc.gateways {
		hits += g.CacheHits
		misses += g.CacheMisses
		shed += g.Shed
		if g.FnCache != nil {
			fnHits += g.FnCache.Hits
			fnMisses += g.FnCache.Misses
		}
	}
	l.Values["gateway.shed_total"] = float64(shed)
	if hits+misses > 0 {
		l.Values["gateway.verdict_hit_ratio"] = float64(hits) / float64(hits+misses)
	}
	if fnHits+fnMisses > 0 {
		l.Values["memo.fn_hit_ratio"] = float64(fnHits) / float64(fnHits+fnMisses)
	}
}

// replay runs the workload's first w.Replay sessions in-process: after an
// untimed warm-up session, once untraced, once traced, and once more over
// the module calls alone to count their allocations. The per-layer
// figures come from the traced pass, the allocation counts from the last.
func replay(w *workload, ins []*input) (*layerReport, []span, error) {
	r, err := newReplayer(w)
	if err != nil {
		return nil, nil, err
	}
	sessions := ins[:min(w.Replay, len(ins))]
	l := &layerReport{Values: map[string]float64{}, Quantiles: map[string]Quantile{}, Ledger: map[string]uint64{}}

	runPass := func(t *tracer, list []*input) ([]*sessionResult, error) {
		p, err := r.newPass(t)
		if err != nil {
			return nil, err
		}
		defer p.close()
		var out []*sessionResult
		for i, in := range list {
			res, err := r.replaySession(p, i, in, i == 0)
			if err != nil {
				return nil, fmt.Errorf("replaying image seed %d: %w", in.Seed, err)
			}
			out = append(out, res)
		}
		return out, nil
	}
	if _, err := runPass(newTracer(r.counter, true), sessions[:1]); err != nil {
		return nil, nil, err // warm-up
	}
	plain, err := runPass(nil, sessions)
	if err != nil {
		return nil, nil, err
	}
	t := newTracer(r.counter, false)
	traced, err := runPass(t, sessions)
	if err != nil {
		return nil, nil, err
	}
	ta := newTracer(r.counter, true)
	for i, in := range sessions {
		if err := r.modules(ta, i, 0, in); err != nil {
			return nil, nil, err
		}
		if err := r.channel(ta, i, 0, in); err != nil {
			return nil, nil, err
		}
	}

	var plainCore, tracedCore time.Duration
	for i := range sessions {
		plainCore += plain[i].core
		tracedCore += traced[i].core
		if !sessions[i].Oracle.matches(traced[i].verdict) {
			l.Mismatches = append(l.Mismatches, fmt.Sprintf("replay of image seed %d (kind %s): want %+v, got %+v",
				sessions[i].Seed, sessions[i].Kind, sessions[i].Oracle, traced[i].verdict))
		}
		l.Ledger["nacl.insts"] += uint64(traced[i].insts)
	}
	l.Values["obs.tracing_overhead_pct"] = 100 * (float64(tracedCore) - float64(plainCore)) / float64(plainCore)
	l.fromSpans(r, t.spans)
	l.allocsFrom(r, ta.spans)
	return l, t.spans, nil
}

// fromSpans folds the traced replay's spans into per-layer figures and
// the exact-count ledger. Rates and per-instruction costs pool time and
// work units over every call that recorded units.
func (l *layerReport) fromSpans(r *replayer, spans []span) {
	durs := map[string][]time.Duration{}
	total := map[string]time.Duration{}
	units := map[string]int64{}
	cyc := map[string]uint64{}
	calls := map[string]int{}
	for _, sp := range spans {
		d := time.Duration(sp.DurNs)
		durs[sp.Name] = append(durs[sp.Name], d)
		cyc[sp.Name] += sp.Cycles
		calls[sp.Name]++
		if sp.Units > 0 {
			total[sp.Name] += d
			units[sp.Name] += sp.Units
		}
		if sp.Name == "session" {
			continue
		}
		l.Ledger[sp.Name+".calls"]++
		if sp.Cycles != 0 {
			l.Ledger[sp.Name+".cycles"] += sp.Cycles
		}
		if sp.Units != 0 {
			l.Ledger[sp.Name+".units"] += uint64(sp.Units)
		}
	}
	medianOf := func(name, metric string, scale float64) {
		q := nearestRank(sortedMillis(durs[name]), 0.5)
		q.Value *= scale
		l.set(metric, q)
	}
	perCall := func(m map[string]uint64, name, metric string) {
		if calls[name] > 0 {
			l.Values[metric] = float64(m[name]) / float64(calls[name])
		}
	}
	perUnit := func(name, metric string, scale float64) {
		if units[name] > 0 {
			l.Values[metric] = float64(total[name]) / float64(units[name]) * scale
		}
	}
	medianOf("secchan.keygen", "secchan.keygen_ms", 1)
	medianOf("core.create", "core.create_ms", 1)
	perCall(cyc, "core.create", "core.create_cycles")
	medianOf("core.clone", "core.clone_ms", 1)
	medianOf("core.recycle", "core.recycle_ms", 1)
	medianOf("attest.quote", "attest.quote_ms", 1)
	medianOf("attest.verify", "attest.verify_ms", 1)
	medianOf("elf64.parse", "elf64.parse_us", 1000)
	medianOf("core.load", "loader.load_ms", 1)
	perCall(cyc, "core.load", "loader.load_cycles")
	medianOf("nacl.validate", "nacl.validate_ms", 1)
	medianOf("nacl.reach", "nacl.reach_ms", 1)
	perCall(cyc, "nacl.program", "nacl.disasm_cycles")
	perUnit("nacl.decode", "nacl.decode_ns_per_inst", 1)
	medianOf("memo.probe", "memo.probe_us", 1000)
	// Bytes per nanosecond is GB/s; the metrics are MB/s.
	perUnit("secchan.seal", "secchan.seal_mb_s", 1)
	perUnit("secchan.open", "secchan.open_mb_s", 1)
	for _, name := range []string{"secchan.seal_mb_s", "secchan.open_mb_s"} {
		if v := l.Values[name]; v > 0 {
			l.Values[name] = 1e3 / v
		}
	}
	var policyCycles uint64
	for key := range r.mods {
		name := "policy." + key
		perUnit(name, name+".ns_per_inst", 1)
		policyCycles += cyc[name]
	}
	if calls["session"] > 0 && len(r.mods) > 0 {
		l.Values["policy.cycles"] = float64(policyCycles) / float64(calls["session"])
	}
}

// allocsFrom folds the allocation-counting pass into the ledger and the
// per-call allocation metrics.
func (l *layerReport) allocsFrom(r *replayer, spans []span) {
	allocs := map[string]uint64{}
	calls := map[string]uint64{}
	units := map[string]int64{}
	for _, sp := range spans {
		if !sp.counted {
			continue
		}
		allocs[sp.Name] += sp.Allocs
		calls[sp.Name]++
		units[sp.Name] += sp.Units
		l.Ledger[sp.Name+".allocs"] += sp.Allocs
	}
	perCall := func(name, metric string) {
		if calls[name] > 0 {
			l.Values[metric] = float64(allocs[name]) / float64(calls[name])
		}
	}
	perCall("nacl.program", "nacl.decode_allocs_per_op")
	for key := range r.mods {
		perCall("policy."+key, "policy."+key+".allocs_per_op")
	}
	if units["secchan.recv"] > 0 {
		l.Values["secchan.recv_allocs_per_frame"] = float64(allocs["secchan.recv"]) / float64(units["secchan.recv"])
	}
}
