package obs

import (
	"bytes"
	"math"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"engarde/internal/cycles"
)

func TestTracePhaseDeltasMatchCounter(t *testing.T) {
	ctr := cycles.NewCounter(cycles.DefaultModel())
	tr := NewTrace("session", ctr)

	sp := tr.StartPhase("disasm")
	ctr.Charge(cycles.PhaseDisasm, cycles.UnitDecodedInst, 100)
	sp.End()

	sp = tr.StartPhase("policy")
	ctr.Charge(cycles.PhasePolicy, cycles.UnitScanInst, 100)
	ctr.Charge(cycles.PhasePolicy, cycles.UnitHashedByte, 64)
	sp.End()

	// A plain span never attributes cycles, even if charges land inside it.
	plain := tr.StartSpan("shard")
	ctr.Charge(cycles.PhaseLoad, cycles.UnitRelocEntry, 7)
	plain.End()

	// An open phase span at Finish still captures its delta.
	_ = tr.StartPhase("load-tail")
	ctr.Charge(cycles.PhaseLoad, cycles.UnitPageMap, 3)
	tr.Finish()

	got := tr.PhaseTotals()
	want := ctr.Snapshot()
	// PhaseLoad charges split across a plain span (unattributed) and an open
	// phase span: the phase span's window covers both charges because the
	// plain span doesn't snapshot — so totals must still equal the counter
	// for PhaseLoad? No: the plain-span charge happened BEFORE load-tail
	// started, outside any phase span, so it must be missing from totals.
	wantLoad := want[cycles.PhaseLoad] - 7*cycles.DefaultModel()[cycles.UnitRelocEntry]
	if got[cycles.PhaseDisasm] != want[cycles.PhaseDisasm] {
		t.Errorf("disasm: got %d want %d", got[cycles.PhaseDisasm], want[cycles.PhaseDisasm])
	}
	if got[cycles.PhasePolicy] != want[cycles.PhasePolicy] {
		t.Errorf("policy: got %d want %d", got[cycles.PhasePolicy], want[cycles.PhasePolicy])
	}
	if got[cycles.PhaseLoad] != wantLoad {
		t.Errorf("load: got %d want %d (charge outside phase spans must not be attributed)", got[cycles.PhaseLoad], wantLoad)
	}
}

func TestTraceSequentialPhasesSumToSnapshot(t *testing.T) {
	// The acceptance property: when every charge happens inside some phase
	// span and the counter is session-private, span totals == Snapshot.
	ctr := cycles.NewCounter(cycles.DefaultModel())
	tr := NewTrace("session", ctr)
	phases := []struct {
		name string
		p    cycles.Phase
		u    cycles.Unit
		n    uint64
	}{
		{"stage", cycles.PhaseProvision, cycles.UnitAESByte, 4096},
		{"disasm", cycles.PhaseDisasm, cycles.UnitDecodedInst, 500},
		{"policy", cycles.PhasePolicy, cycles.UnitScanInst, 500},
		{"load", cycles.PhaseLoad, cycles.UnitRelocEntry, 20},
		{"attest", cycles.PhaseAttest, cycles.UnitKeyAgreement, 1},
	}
	for _, ph := range phases {
		sp := tr.StartPhase(ph.name)
		ctr.Charge(ph.p, ph.u, ph.n)
		sp.End()
	}
	tr.Finish()
	got := tr.PhaseTotals()
	want := ctr.Snapshot()
	if len(got) != len(want) {
		t.Fatalf("phase sets differ: got %v want %v", got, want)
	}
	for p, w := range want {
		if got[p] != w {
			t.Errorf("%v: got %d want %d", p, got[p], w)
		}
	}
}

func TestTraceNilSafety(t *testing.T) {
	var tr *Trace
	sp := tr.StartSpan("x")
	sp.End()
	tr.StartPhase("y").End()
	tr.Finish()
	if tr.ID() != "" || tr.Name() != "" || tr.Snapshot() != nil || tr.PhaseTotals() != nil {
		t.Fatal("nil trace must be inert")
	}
	if FromContext(nil) != nil {
		t.Fatal("FromContext(nil)")
	}
	var ref SpanRef
	ref.End() // zero SpanRef must not panic
}

func TestTraceConcurrentSpans(t *testing.T) {
	tr := NewTrace("conc", nil)
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 100; j++ {
				sp := tr.StartSpan("worker")
				sp.End()
			}
		}()
	}
	wg.Wait()
	tr.Finish()
	if n := len(tr.Snapshot().Spans); n != 800 {
		t.Fatalf("got %d spans, want 800", n)
	}
}

func TestHistogramBucketsAndQuantiles(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("test_latency_seconds", "t", HistogramOpts{Buckets: 10, Scale: 1e-3})
	for v := uint64(0); v < 100; v++ {
		h.Observe(v)
	}
	if h.Count() != 100 {
		t.Fatalf("count %d", h.Count())
	}
	if h.Sum() != 4950 {
		t.Fatalf("sum %d", h.Sum())
	}
	// p50 of 0..99: first bucket with cumulative > 50 observations.
	// Buckets: len 0→{0}, 1→{1}, 2→{2,3}, ... len 6 → [32,63]: cumulative 64 > 50.
	if q := h.Quantile(0.5); q != 64 {
		t.Errorf("p50 = %d, want 64", q)
	}
	if q := h.Quantile(0.99); q != 128 {
		t.Errorf("p99 = %d, want 128 (values 64..99 in bucket le=128)", q)
	}
	snap := h.Snapshot()
	if len(snap) == 0 || snap[len(snap)-1].Count != 100 {
		t.Fatalf("snapshot %v", snap)
	}
	for i := 1; i < len(snap); i++ {
		if snap[i].Count < snap[i-1].Count {
			t.Fatalf("non-cumulative snapshot %v", snap)
		}
	}
}

func TestHistogramClampsOverflow(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("test_small", "t", HistogramOpts{Buckets: 4})
	h.Observe(math.MaxUint64)
	if h.Count() != 1 {
		t.Fatal("overflow observation lost")
	}
	var buf bytes.Buffer
	if err := r.WriteText(&buf); err != nil {
		t.Fatal(err)
	}
	if errs := Lint(strings.NewReader(buf.String())); len(errs) > 0 {
		t.Fatalf("lint: %v\n%s", errs, buf.String())
	}
	// The +Inf bucket must carry the clamped observation.
	if !strings.Contains(buf.String(), `test_small_bucket{le="+Inf"} 1`) {
		t.Fatalf("missing +Inf bucket:\n%s", buf.String())
	}
}

func TestRegistryExpositionLints(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("engarde_sessions_accepted_total", "Sessions admitted.")
	c.Add(3)
	r.Counter("engarde_faults_total", "Faults injected.", Label{"op", "read"}).Inc()
	r.Counter("engarde_faults_total", "Faults injected.", Label{"op", "write"}).Add(2)
	g := r.Gauge("engarde_sessions_active", "In-flight sessions.")
	g.Set(2)
	r.GaugeFunc("engarde_phase_cycles_total", "Cycles.", func() float64 { return 12345 },
		Label{"phase", "Policy Checking"})
	r.GaugeFunc("engarde_phase_cycles_total", "Cycles.", func() float64 { return 99 },
		Label{"phase", `odd"name\with`}) // exercises escaping
	h := r.Histogram("engarde_session_seconds", "Latency.", HistogramOpts{Buckets: 22, Scale: 1e-3})
	h.Observe(5)
	h.Observe(120)

	var buf bytes.Buffer
	if err := r.WriteText(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if errs := Lint(strings.NewReader(out)); len(errs) > 0 {
		t.Fatalf("lint errors: %v\nexposition:\n%s", errs, out)
	}
	for _, want := range []string{
		"# TYPE engarde_sessions_accepted_total counter",
		"engarde_sessions_accepted_total 3",
		`engarde_faults_total{op="write"} 2`,
		"# TYPE engarde_session_seconds histogram",
		`engarde_session_seconds_bucket{le="+Inf"} 2`,
		"engarde_session_seconds_count 2",
		`engarde_phase_cycles_total{phase="Policy Checking"} 12345`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q:\n%s", want, out)
		}
	}
}

func TestRegistryPanicsOnMisuse(t *testing.T) {
	mustPanic := func(name string, f func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Errorf("%s: expected panic", name)
			}
		}()
		f()
	}
	r := NewRegistry()
	r.Counter("ok_total", "h")
	mustPanic("bad name", func() { r.Counter("1bad", "h") })
	mustPanic("type clash", func() { r.Gauge("ok_total", "h") })
	mustPanic("dup series", func() { r.Counter("ok_total", "h") })
	mustPanic("le reserved", func() { r.Counter("x_total", "h", Label{"le", "1"}) })
}

func TestLintCatchesMalformedExpositions(t *testing.T) {
	cases := map[string]string{
		"no type":            "some_metric 1\n",
		"dup series":         "# TYPE a counter\na 1\na 1\n",
		"bad value":          "# TYPE a counter\na abc\n",
		"type after sample":  "# TYPE a counter\na 1\n# TYPE a counter\n",
		"no inf bucket":      "# TYPE h histogram\nh_bucket{le=\"1\"} 1\nh_sum 1\nh_count 1\n",
		"count mismatch":     "# TYPE h histogram\nh_bucket{le=\"+Inf\"} 2\nh_sum 1\nh_count 1\n",
		"non-cumulative":     "# TYPE h histogram\nh_bucket{le=\"1\"} 5\nh_bucket{le=\"2\"} 3\nh_bucket{le=\"+Inf\"} 5\nh_sum 1\nh_count 5\n",
		"missing sum":        "# TYPE h histogram\nh_bucket{le=\"+Inf\"} 1\nh_count 1\n",
		"unterminated label": "# TYPE a counter\na{x=\"y 1\n",
		"bad escape":         "# TYPE a counter\na{x=\"\\q\"} 1\n",
		"le on counter":      "# TYPE a counter\na{le=\"1\"} 1\n",
	}
	for name, in := range cases {
		if errs := Lint(strings.NewReader(in)); len(errs) == 0 {
			t.Errorf("%s: lint accepted malformed input:\n%s", name, in)
		}
	}
	good := "# HELP a help text\n# TYPE a counter\na{x=\"esc\\\\aped\\\"quote\\nnewline\"} 1 1712345678\n" +
		"# TYPE h histogram\nh_bucket{le=\"0.001\"} 1\nh_bucket{le=\"+Inf\"} 2\nh_sum 0.5\nh_count 2\n"
	if errs := Lint(strings.NewReader(good)); len(errs) > 0 {
		t.Errorf("lint rejected valid input: %v", errs)
	}
}

func TestSinkWritesJSONLAndChromeTrace(t *testing.T) {
	dir := t.TempDir()
	sink, err := NewSink(2, dir)
	if err != nil {
		t.Fatal(err)
	}
	ctr := cycles.NewCounter(cycles.DefaultModel())
	var last *Trace
	for i := 0; i < 3; i++ {
		tr := NewTrace("session", ctr)
		sp := tr.StartPhase("disasm")
		ctr.Charge(cycles.PhaseDisasm, cycles.UnitDecodedInst, 10)
		sp.End()
		sink.Record(tr)
		last = tr
	}
	if n := len(sink.Recent()); n != 2 {
		t.Fatalf("ring kept %d traces, want 2", n)
	}

	jl, err := os.ReadFile(filepath.Join(dir, "traces.jsonl"))
	if err != nil {
		t.Fatal(err)
	}
	if n := strings.Count(string(jl), "\n"); n != 3 {
		t.Fatalf("traces.jsonl has %d lines, want 3", n)
	}

	cf, err := os.Open(filepath.Join(dir, "session-"+last.ID()+".trace.json"))
	if err != nil {
		t.Fatal(err)
	}
	defer cf.Close()
	spans, err := ReadChromeTrace(cf)
	if err != nil {
		t.Fatal(err)
	}
	if len(spans) != 1 || spans[0].Name != "disasm" || spans[0].TraceID != last.ID() {
		t.Fatalf("chrome spans %+v", spans)
	}
	wantCycles := 10 * cycles.DefaultModel()[cycles.UnitDecodedInst]
	if spans[0].Cycles[cycles.PhaseDisasm.String()] != wantCycles {
		t.Fatalf("chrome span cycles %v, want %d", spans[0].Cycles, wantCycles)
	}
}

func TestSpanDurations(t *testing.T) {
	tr := NewTrace("d", nil)
	sp := tr.StartSpan("sleepy")
	time.Sleep(5 * time.Millisecond)
	sp.End()
	tr.Finish()
	d := tr.Snapshot()
	if d.Spans[0].Dur < 5*time.Millisecond {
		t.Fatalf("span duration %v < 5ms", d.Spans[0].Dur)
	}
	if d.EndUnixNano < d.StartUnixNano {
		t.Fatal("trace end before start")
	}
}

func TestLoggers(t *testing.T) {
	if _, err := ParseLevel("nope"); err == nil {
		t.Fatal("ParseLevel accepted garbage")
	}
	lv, err := ParseLevel("WARN")
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	lg, err := NewLogger(&buf, lv, "json")
	if err != nil {
		t.Fatal(err)
	}
	lg.Info("dropped")
	lg.Warn("kept", "trace", "abc123")
	out := buf.String()
	if strings.Contains(out, "dropped") || !strings.Contains(out, "abc123") {
		t.Fatalf("level filtering broken: %q", out)
	}
	if _, err := NewLogger(&buf, lv, "yaml"); err == nil {
		t.Fatal("NewLogger accepted unknown format")
	}
	DiscardLogger().Error("nowhere")
}
