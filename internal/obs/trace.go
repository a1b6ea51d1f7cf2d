// Package obs is the gateway's zero-dependency telemetry layer: per-session
// trace spans threaded through the provisioning pipeline via
// context.Context, a Prometheus text-format metrics registry, and log/slog
// construction helpers — so an operator can see not just *that* a provision
// was slow or shed, but *where* it spent its time, in both wall-clock and
// the paper's cycle model.
//
// The disclosure contract matches the paper's (§3) and the Confidential
// Attestation line of work: telemetry exposes timings, sizes, verdict codes
// and cycle counts — never client code bytes, image hashes, or anything
// derived from the plaintext content.
//
// Everything here is allocation-light by construction: spans live in a
// per-trace slab addressed by index, histograms are fixed arrays of atomic
// buckets, and every instrumentation entry point is a no-op on a nil
// *Trace, so untraced provisioning (benchmarks, library use) pays nothing.
package obs

import (
	"context"
	"crypto/rand"
	"encoding/hex"
	"sync"
	"time"

	"engarde/internal/cycles"
)

// Trace is one session's span timeline. A Trace is created per provisioning
// session (gateway admit), threaded through the pipeline via
// context.Context and core.Config, and finished when the session ends.
//
// Two span kinds exist:
//
//   - Phase spans (StartPhase) additionally snapshot the trace's cycle
//     counter at start and end, attributing the per-phase cycle delta to
//     the span. Phase spans must not overlap each other in time; the
//     provisioning pipeline is sequential, so its phase spans partition the
//     session and their per-phase deltas sum exactly to the counter's
//     growth over the trace — Report.Phases, when the counter is
//     session-private and started at zero.
//   - Plain spans (StartSpan) record wall-clock only and may overlap freely
//     (a validation pass inside the disassembly phase span, say).
//
// All methods are safe on a nil *Trace and do nothing, so instrumented code
// needs no "is tracing on" branches.
type Trace struct {
	id      string
	name    string
	start   time.Time
	counter *cycles.Counter

	mu    sync.Mutex
	spans []span
	end   time.Time
	done  bool
}

// span is the slab-resident record behind a SpanRef.
type span struct {
	name  string
	start time.Time
	dur   time.Duration
	open  bool
	phase bool
	args  map[string]string        // optional tags (attempt, backend, …)
	begin [cycles.NumPhases]uint64 // counter snapshot at StartPhase
	delta [cycles.NumPhases]uint64 // per-phase cycles attributed on End
}

// spanSlabCap is the preallocated span capacity: a full provisioning
// session records a couple dozen spans (protocol steps, pipeline phases,
// decode chunks, policy modules), so one slab allocation covers it.
const spanSlabCap = 32

// NewTrace starts a trace. counter, when non-nil, is snapshotted by phase
// spans to attribute per-phase cycle deltas; pass the counter the session's
// enclave charges into.
func NewTrace(name string, counter *cycles.Counter) *Trace {
	var b [8]byte
	_, _ = rand.Read(b[:])
	return &Trace{
		id:      hex.EncodeToString(b[:]),
		name:    name,
		start:   time.Now(),
		counter: counter,
		spans:   make([]span, 0, spanSlabCap),
	}
}

// ID returns the trace's identifier ("" on a nil trace) — the value
// logged as the "trace" attribute of every session log record. The ID is
// random at NewTrace and may be replaced once by AdoptID when an upstream
// hop propagated its own, hence the lock.
func (t *Trace) ID() string {
	if t == nil {
		return ""
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.id
}

// Name returns the trace name ("" on nil).
func (t *Trace) Name() string {
	if t == nil {
		return ""
	}
	return t.name
}

// SpanRef addresses a span within its trace's slab by index, so the slab
// can grow (append) without invalidating outstanding references. The zero
// SpanRef is valid and End on it is a no-op.
type SpanRef struct {
	t *Trace
	i int
}

// StartSpan opens a wall-clock span. Safe for concurrent use; plain spans
// may overlap freely.
func (t *Trace) StartSpan(name string) SpanRef {
	if t == nil {
		return SpanRef{}
	}
	return t.startSpan(name, false)
}

// StartSpanArgs opens a wall-clock span carrying tags that export with it
// (Chrome args, JSONL) — the mechanism behind the failover loop's attempt
// and backend labels. The map is copied; nil args degrade to StartSpan.
func (t *Trace) StartSpanArgs(name string, args map[string]string) SpanRef {
	r := t.StartSpan(name)
	r.setArgs(args)
	return r
}

// SetArg tags the span after it was opened — outcomes ("error", "busy")
// known only once the work finished. No-op on the zero SpanRef.
func (r SpanRef) SetArg(key, value string) {
	if r.t == nil {
		return
	}
	r.t.mu.Lock()
	defer r.t.mu.Unlock()
	sp := &r.t.spans[r.i]
	if sp.args == nil {
		sp.args = make(map[string]string, 2)
	}
	sp.args[key] = value
}

func (r SpanRef) setArgs(args map[string]string) {
	if r.t == nil || len(args) == 0 {
		return
	}
	cp := make(map[string]string, len(args))
	for k, v := range args {
		cp[k] = v
	}
	r.t.mu.Lock()
	r.t.spans[r.i].args = cp
	r.t.mu.Unlock()
}

// StartPhase opens a cycle-metered span: the trace counter's per-phase
// totals are snapshotted now and again at End, and the deltas attributed to
// this span. Phase spans must be sequential within a trace — overlapping
// phase spans double-attribute cycles. With a nil trace counter the span
// degrades to wall-clock only.
func (t *Trace) StartPhase(name string) SpanRef {
	if t == nil {
		return SpanRef{}
	}
	return t.startSpan(name, t.counter != nil)
}

func (t *Trace) startSpan(name string, phase bool) SpanRef {
	t.mu.Lock()
	i := len(t.spans)
	t.spans = append(t.spans, span{name: name, open: true, phase: phase})
	sp := &t.spans[i]
	if phase {
		sp.begin = t.counter.SnapshotArray()
	}
	sp.start = time.Now() // last, so the span excludes slab bookkeeping
	t.mu.Unlock()
	return SpanRef{t: t, i: i}
}

// End closes the span, recording its duration and (for phase spans) the
// per-phase cycle delta since StartPhase. Ending a span twice, or ending
// the zero SpanRef, does nothing.
func (r SpanRef) End() {
	if r.t == nil {
		return
	}
	now := time.Now()
	var after [cycles.NumPhases]uint64
	// Snapshot before taking the lock: the charges belong to work that
	// already happened, and keeping counter loads outside the critical
	// section keeps concurrent plain spans cheap.
	t := r.t
	t.mu.Lock()
	sp := &t.spans[r.i]
	if !sp.open {
		t.mu.Unlock()
		return
	}
	sp.open = false
	sp.dur = now.Sub(sp.start)
	if sp.phase {
		after = t.counter.SnapshotArray()
		for p := 1; p < cycles.NumPhases; p++ {
			sp.delta[p] = after[p] - sp.begin[p]
		}
	}
	t.mu.Unlock()
}

// RecordSpan appends an already-closed plain (wall-clock) span whose start
// predates the call — windows measured from timestamps taken elsewhere,
// like first-byte-to-verdict (anchored at the first frame's arrival).
// No-op on a nil or finished trace.
func (t *Trace) RecordSpan(name string, start time.Time, dur time.Duration) {
	if t == nil {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.done {
		return
	}
	t.spans = append(t.spans, span{name: name, start: start, dur: dur})
}

// RecordSpanArgs is RecordSpan with tags attached, for windows measured
// elsewhere that still need attempt/endpoint labels in the export.
func (t *Trace) RecordSpanArgs(name string, start time.Time, dur time.Duration, args map[string]string) {
	if t == nil {
		return
	}
	var cp map[string]string
	if len(args) > 0 {
		cp = make(map[string]string, len(args))
		for k, v := range args {
			cp[k] = v
		}
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.done {
		return
	}
	t.spans = append(t.spans, span{name: name, start: start, dur: dur, args: cp})
}

// Finish ends the trace. Spans still open are closed with their duration up
// to now (phase deltas included), so a session that errors out mid-phase
// still exports a complete timeline. Finish is idempotent.
func (t *Trace) Finish() {
	if t == nil {
		return
	}
	now := time.Now()
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.done {
		return
	}
	t.done = true
	t.end = now
	for i := range t.spans {
		sp := &t.spans[i]
		if !sp.open {
			continue
		}
		sp.open = false
		sp.dur = now.Sub(sp.start)
		if sp.phase {
			after := t.counter.SnapshotArray()
			for p := 1; p < cycles.NumPhases; p++ {
				sp.delta[p] = after[p] - sp.begin[p]
			}
		}
	}
}

// PhaseTotals sums the per-phase cycle deltas over all phase spans. For a
// session-private counter that started at zero, the result equals the
// counter's final snapshot — i.e. Report.Phases — exactly; under a counter
// shared across concurrent sessions the deltas also absorb the other
// sessions' concurrent charges and are an attribution estimate.
func (t *Trace) PhaseTotals() map[cycles.Phase]uint64 {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	var sums [cycles.NumPhases]uint64
	for i := range t.spans {
		if !t.spans[i].phase {
			continue
		}
		for p := 1; p < cycles.NumPhases; p++ {
			sums[p] += t.spans[i].delta[p]
		}
	}
	out := make(map[cycles.Phase]uint64)
	for p := 1; p < cycles.NumPhases; p++ {
		if sums[p] > 0 {
			out[cycles.Phase(p)] = sums[p]
		}
	}
	return out
}

// SpanData is one exported span.
type SpanData struct {
	Name          string        `json:"name"`
	StartUnixNano int64         `json:"start_unix_nano"`
	Dur           time.Duration `json:"dur_ns"`
	// Cycles is the per-phase cycle delta attributed to this span, keyed by
	// phase name. Present only on phase spans with a non-zero delta.
	Cycles map[string]uint64 `json:"cycles,omitempty"`
	// Args are the span's tags (attempt, backend, outcome, …), exported
	// into the Chrome event's args block.
	Args map[string]string `json:"args,omitempty"`
}

// TraceData is the exportable snapshot of a finished (or in-flight) trace.
type TraceData struct {
	ID            string     `json:"trace_id"`
	Name          string     `json:"name"`
	StartUnixNano int64      `json:"start_unix_nano"`
	EndUnixNano   int64      `json:"end_unix_nano,omitempty"`
	Spans         []SpanData `json:"spans"`
}

// Snapshot exports the trace. Open spans appear with their duration so far.
func (t *Trace) Snapshot() *TraceData {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	d := &TraceData{
		ID:            t.id,
		Name:          t.name,
		StartUnixNano: t.start.UnixNano(),
		Spans:         make([]SpanData, 0, len(t.spans)),
	}
	if t.done {
		d.EndUnixNano = t.end.UnixNano()
	}
	now := time.Now()
	for i := range t.spans {
		sp := &t.spans[i]
		sd := SpanData{
			Name:          sp.name,
			StartUnixNano: sp.start.UnixNano(),
			Dur:           sp.dur,
		}
		if sp.open {
			sd.Dur = now.Sub(sp.start)
		}
		if len(sp.args) > 0 {
			sd.Args = make(map[string]string, len(sp.args))
			for k, v := range sp.args {
				sd.Args[k] = v
			}
		}
		if sp.phase {
			for p := 1; p < cycles.NumPhases; p++ {
				if sp.delta[p] == 0 {
					continue
				}
				if sd.Cycles == nil {
					sd.Cycles = make(map[string]uint64, 2)
				}
				sd.Cycles[cycles.Phase(p).String()] = sp.delta[p]
			}
		}
		d.Spans = append(d.Spans, sd)
	}
	return d
}

// traceKey is the context key carrying the session trace.
type traceKey struct{}

// WithTrace returns a context carrying t, the threading mechanism between
// the gateway's admission layer and the protocol/pipeline instrumentation.
func WithTrace(ctx context.Context, t *Trace) context.Context {
	if t == nil {
		return ctx
	}
	return context.WithValue(ctx, traceKey{}, t)
}

// FromContext returns the context's trace, or nil — and nil flows through
// every instrumentation point as a no-op.
func FromContext(ctx context.Context) *Trace {
	if ctx == nil {
		return nil
	}
	t, _ := ctx.Value(traceKey{}).(*Trace)
	return t
}
