package main

import (
	"bytes"
	"fmt"
	"math"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
	"time"

	"engarde"
	"engarde/internal/attest"
	"engarde/internal/cycles"
	"engarde/internal/elf64"
	"engarde/internal/nacl"
	"engarde/internal/obs"
	"engarde/internal/policy"
	"engarde/internal/policy/memo"
	"engarde/internal/secchan"
	"engarde/internal/symtab"
)

// The traced run replays a workload's first sessions in-process, calling
// each layer's public functions in the order the gateway does, and records
// one span per call. Spans stay in memory and are written when the replay
// ends.

// span is one timed call into a layer.
type span struct {
	Session int    `json:"session"`
	ID      int    `json:"id"`
	Parent  int    `json:"parent"`
	Name    string `json:"name"`
	StartNs int64  `json:"start_ns"`
	DurNs   int64  `json:"dur_ns"`
	Cycles  uint64 `json:"cycles,omitempty"`
	Allocs  uint64 `json:"allocs,omitempty"`
	// Units is the work the call did, in the layer's own unit: bytes
	// for the secure channel, frames for a stream receive, instructions
	// for disassembly and policy checks.
	Units int64 `json:"units,omitempty"`
	// counted marks a span whose allocations were counted (Allocs may
	// legitimately be 0).
	counted bool
}

// tracer records spans. A nil *tracer records nothing and calls straight
// through, which is the untraced baseline the overhead is measured
// against.
type tracer struct {
	t0      time.Time
	spans   []span
	counter *cycles.Counter
	// allocs makes the tracer count allocations of the calls that ask
	// for it. That costs repeated runs and collections per call, so
	// allocations are counted in a pass of their own, never in the timed
	// one.
	allocs bool
}

func newTracer(counter *cycles.Counter, allocs bool) *tracer {
	return &tracer{t0: time.Now(), counter: counter, allocs: allocs}
}

// call runs fn as span name under parent. When counting allocations it
// then runs fn allocRuns more times on a single P, each time after
// emptying the sync.Pools (two collections) and with the collector held
// off, so the count depends neither on when the last collection
// happened nor on which P a pooled buffer was returned to. The runtime
// now and then adds a heap object of its own to the process-wide count
// during a call (about one call in twenty, by one); that only ever adds,
// so the call's count is the least of the runs.
func (t *tracer) call(session, parent int, name string, allocs bool, fn func() error) (int, time.Duration, error) {
	if t == nil {
		start := time.Now()
		err := fn()
		return 0, time.Since(start), err
	}
	c0 := t.counter.Total()
	start := time.Now()
	err := fn()
	d := time.Since(start)
	sp := span{
		Session: session, ID: len(t.spans) + 1, Parent: parent, Name: name,
		StartNs: start.Sub(t.t0).Nanoseconds(), DurNs: d.Nanoseconds(),
		Cycles: t.counter.Total() - c0,
	}
	if allocs && t.allocs {
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
		defer debug.SetGCPercent(debug.SetGCPercent(-1))
		sp.Allocs, sp.counted = math.MaxUint64, true
		for range allocRuns {
			n, rerr := mallocs(fn)
			if (rerr == nil) != (err == nil) {
				return 0, 0, fmt.Errorf("%s: a repeated run returned %v, the first %v", name, rerr, err)
			}
			sp.Allocs = min(sp.Allocs, n)
		}
	}
	t.spans = append(t.spans, sp)
	return sp.ID, d, err
}

// allocRuns is how many times an allocation-counted call is repeated.
const allocRuns = 3

// mallocs runs fn with the sync.Pools emptied and returns the number of
// heap allocations made while it ran.
func mallocs(fn func() error) (uint64, error) {
	var m0, m1 runtime.MemStats
	runtime.GC()
	runtime.GC()
	runtime.ReadMemStats(&m0)
	err := fn()
	runtime.ReadMemStats(&m1)
	return m1.Mallocs - m0.Mallocs, err
}

// setUnits records the work units of span id.
func (t *tracer) setUnits(id int, n int64) {
	if t != nil && id > 0 {
		t.spans[id-1].Units = n
	}
}

// record adds an already-timed span (a phase span the core library
// recorded on its own trace).
func (t *tracer) record(session, parent int, name string, start time.Time, d time.Duration, cyc uint64) int {
	t.spans = append(t.spans, span{
		Session: session, ID: len(t.spans) + 1, Parent: parent, Name: name,
		StartNs: start.Sub(t.t0).Nanoseconds(), DurNs: d.Nanoseconds(), Cycles: cyc,
	})
	return len(t.spans)
}

// policyModules maps gatewayd -policies names to the metric key and a
// constructor of the same module the gatewayd checks with.
var policyModules = []struct {
	flag, key string
	make      func() (policy.Module, error)
}{
	{"musl-sp", "liblink", func() (policy.Module, error) { return engarde.MuslLinkingPolicy(engarde.MuslApprovedVersion, true) }},
	{"stack-protector", "stackprot", func() (policy.Module, error) { return engarde.StackProtectorPolicy(), nil }},
	{"ifcc", "ifcc", func() (policy.Module, error) { return engarde.IFCCPolicy(), nil }},
	{"no-forbidden", "noforbidden", func() (policy.Module, error) { return engarde.NoForbiddenInstructionsPolicy(), nil }},
}

// replayer holds the in-process platform a replay provisions on.
type replayer struct {
	pols     *engarde.PolicySet
	mods     map[string]policy.Module // metric key → module, in the workload's set
	counter  *cycles.Counter
	provider *engarde.Provider
	expected engarde.Measurement
	// workers is the disassembly fan-out a gatewayd on the same host uses
	// (GOMAXPROCS), fixed here so the single-P allocation pass decodes
	// the same way.
	workers int
	// key is the enclave key the stand-alone channel measurements wrap
	// their session keys to.
	key *secchan.EnclaveKey
}

// protocolBlockSize is the client's default frame payload, the one every
// workload sends with.
const protocolBlockSize = 64 * 1024

func newReplayer(w *workload) (*replayer, error) {
	r := &replayer{mods: map[string]policy.Module{}, workers: runtime.GOMAXPROCS(0)}
	var err error
	if r.pols, err = engarde.ParsePolicies(w.Policies); err != nil {
		return nil, err
	}
	for _, pm := range policyModules {
		for _, name := range strings.Split(w.Policies, ",") {
			if name == pm.flag {
				if r.mods[pm.key], err = pm.make(); err != nil {
					return nil, err
				}
			}
		}
	}
	r.counter = cycles.NewCounter(cycles.DefaultModel())
	if r.provider, err = engarde.NewProvider(engarde.ProviderConfig{Counter: r.counter}); err != nil {
		return nil, err
	}
	if r.key, err = secchan.GenerateEnclaveKey(nil); err != nil {
		return nil, err
	}
	r.expected, err = engarde.ExpectedMeasurement(engarde.SGXv2, r.enclaveConfig(nil))
	return r, err
}

func (r *replayer) enclaveConfig(fn *engarde.FnCache) engarde.EnclaveConfig {
	return engarde.EnclaveConfig{
		Policies: r.pols, HeapPages: gatewayHeapPages, ClientPages: gatewayClientPages,
		FnCache: fn,
	}
}

// pass is one replay of the session list. Like a gatewayd, it shares
// one function-result cache across its sessions; a traced pass also
// holds an enclave snapshot to time the pool's clone and scrub against.
type pass struct {
	t    *tracer // nil: untraced
	fn   *engarde.FnCache
	snap *engarde.EnclaveSnapshot
}

func (r *replayer) newPass(t *tracer) (*pass, error) {
	fn, err := engarde.OpenFnCache(0, "")
	if err != nil {
		return nil, err
	}
	p := &pass{t: t, fn: fn}
	if t != nil {
		if p.snap, err = r.provider.NewEnclaveSnapshot(r.enclaveConfig(fn)); err != nil {
			fn.Close()
			return nil, err
		}
	}
	return p, nil
}

func (p *pass) close() { p.fn.Close() }

// sessionResult is what one replayed session measured.
type sessionResult struct {
	verdict engarde.Verdict
	insts   int
	// core is the keygen-free part of the session: receive, provision
	// and the per-module calls, the stretch the overhead compares.
	core time.Duration
}

// replaySession provisions one input through the layers in gateway
// order: measured enclave build, attestation, key exchange, encrypted
// stream, provisioning, then each layer's own entry points on the same
// image. extras adds, once per replay, the pool's clone and scrub, which
// no workload's gatewayd runs.
func (r *replayer) replaySession(p *pass, s int, in *input, extras bool) (*sessionResult, error) {
	t := p.t
	res := &sessionResult{}
	root := 0
	if t != nil {
		root = len(t.spans) + 1
		t.spans = append(t.spans, span{Session: s, ID: root, Name: "session", StartNs: time.Since(t.t0).Nanoseconds()})
		defer func() { t.spans[root-1].DurNs = time.Since(t.t0).Nanoseconds() - t.spans[root-1].StartNs }()
		if _, _, err := t.call(s, root, "secchan.keygen", false, func() error {
			_, err := secchan.GenerateEnclaveKey(nil)
			return err
		}); err != nil {
			return nil, err
		}
	}

	var encl *engarde.Enclave
	if extras && t != nil {
		if _, _, err := t.call(s, root, "core.clone", false, func() error {
			var err error
			encl, err = p.snap.Clone()
			return err
		}); err != nil {
			return nil, err
		}
		if err := r.recycle(p, s, root, encl); err != nil {
			return nil, err
		}
	}
	if _, _, err := t.call(s, root, "core.create", false, func() error {
		var err error
		encl, err = r.provider.CreateEnclave(r.enclaveConfig(p.fn))
		return err
	}); err != nil {
		return nil, err
	}
	defer encl.Destroy()

	// Attestation and key exchange, client side included.
	var q engarde.Quote
	if _, _, err := t.call(s, root, "attest.quote", false, func() error {
		var err error
		q, err = encl.Quote()
		return err
	}); err != nil {
		return nil, err
	}
	der, err := encl.PublicKeyDER()
	if err != nil {
		return nil, err
	}
	if _, _, err := t.call(s, root, "attest.verify", false, func() error {
		return attest.VerifyQuote(q, r.provider.AttestationPublicKey(), r.expected, attest.BindPublicKey(der))
	}); err != nil {
		return nil, err
	}
	sess, wrapped, err := secchan.WrapSessionKey(der, nil)
	if err != nil {
		return nil, err
	}
	if err := encl.AcceptSessionKey(wrapped); err != nil {
		return nil, err
	}
	var wire bytes.Buffer
	sealID, _, err := t.call(s, root, "secchan.seal", false, func() error {
		return sess.SendStream(&wire, in.Image, protocolBlockSize)
	})
	if err != nil {
		return nil, err
	}
	t.setUnits(sealID, int64(len(in.Image)))

	coreStart := time.Now()
	var tr *obs.Trace
	if t != nil {
		tr = obs.NewTrace("replay", r.counter)
		encl.SetTrace(tr)
	}
	var st *engarde.StagedImage
	if _, _, err := t.call(s, root, "stream.recv", false, func() error {
		var err error
		st, err = encl.Core().RecvImageStreaming(bytes.NewReader(wire.Bytes()))
		return err
	}); err != nil {
		return nil, err
	}
	var rep *engarde.Report
	provID, _, err := t.call(s, root, "core.provision", false, func() error {
		var err error
		rep, err = encl.ProvisionStaged(st)
		return err
	})
	if err != nil {
		return nil, err
	}
	res.verdict = engarde.VerdictForReport(rep)
	res.insts = rep.NumInsts
	if t != nil {
		encl.SetTrace(nil)
		tr.Finish()
		for _, sd := range tr.Snapshot().Spans {
			if strings.Contains(sd.Name, ":") {
				continue // sub-spans of the phases
			}
			var cyc uint64
			for _, c := range sd.Cycles {
				cyc += c
			}
			t.record(s, provID, "core."+sd.Name, time.Unix(0, sd.StartUnixNano), sd.Dur, cyc)
		}
	}
	if err := r.modules(t, s, root, in); err != nil {
		return nil, err
	}
	res.core = time.Since(coreStart)
	if t != nil {
		if err := r.channel(t, s, root, in); err != nil {
			return nil, err
		}
	}
	return res, nil
}

// recycle scrubs a used clone back to the snapshot, as the gateway's
// pool does when a session returns its enclave.
func (r *replayer) recycle(p *pass, s, root int, encl *engarde.Enclave) error {
	_, _, err := p.t.call(s, root, "core.recycle", false, func() error {
		var err error
		encl, err = p.snap.Recycle(encl)
		return err
	})
	if err == nil {
		encl.Destroy()
	}
	return err
}

// modules calls the disassembler, each policy module and the memo probe
// directly on the plaintext image, each under its own cycle counter.
func (r *replayer) modules(t *tracer, s, root int, in *input) error {
	var f *elf64.File
	if _, _, err := t.call(s, root, "elf64.parse", false, func() error {
		var err error
		f, err = elf64.Parse(in.Image)
		return err
	}); err != nil {
		return fmt.Errorf("image seed %d: %w", in.Seed, err)
	}
	tab, err := symtab.FromELF(f)
	if err != nil {
		return err
	}
	texts := f.TextSections()
	if len(texts) != 1 {
		return fmt.Errorf("image seed %d: %d text sections", in.Seed, len(texts))
	}
	text := texts[0]
	var prog *nacl.Program
	var ntr *obs.Trace
	if t != nil {
		ntr = obs.NewTrace("nacl", nil)
	}
	progID, _, err := t.call(s, root, "nacl.program", true, func() error {
		var err error
		prog, err = nacl.DecodeProgramTraced(text.Data, text.Addr, r.counter, r.workers, ntr)
		return err
	})
	if err != nil {
		return nil // rejected at disassembly: nothing downstream runs
	}
	if t != nil {
		// The decode pass, and the bundle and branch passes that
		// validate what it decoded.
		ntr.Finish()
		var vStart time.Time
		var vDur time.Duration
		for _, sd := range ntr.Snapshot().Spans {
			start := time.Unix(0, sd.StartUnixNano)
			switch sd.Name {
			case "disasm:decode":
				id := t.record(s, progID, "nacl.decode", start, sd.Dur, 0)
				t.setUnits(id, int64(len(prog.Insts)))
			default:
				if vStart.IsZero() {
					vStart = start
				}
				vDur += sd.Dur
			}
		}
		t.record(s, progID, "nacl.validate", vStart, vDur, 0)
	}
	if _, _, err := t.call(s, root, "nacl.reach", false, func() error {
		return prog.CheckReachability(f.Header.Entry, tab)
	}); err != nil {
		return nil
	}
	keys := make([]string, 0, len(r.mods))
	for k := range r.mods {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		set := policy.NewSet(r.mods[k])
		violated := false
		id, _, err := t.call(s, root, "policy."+k, true, func() error {
			err := set.Check(&policy.Context{Program: prog, Symbols: tab, Counter: r.counter})
			if _, ok := policy.AsViolation(err); ok {
				violated = true // a verdict, not a failure
				return nil
			}
			return err
		})
		if err != nil {
			return err
		}
		if !violated {
			// Per-instruction cost counts only checks that walked the
			// whole image; a violation exits early.
			t.setUnits(id, int64(len(prog.Insts)))
		}
	}
	cache, err := memo.Open(memo.Config{})
	if err != nil {
		return err
	}
	defer cache.Close()
	_, _, err = t.call(s, root, "memo.probe", false, func() error {
		ctx := &policy.Context{Program: prog, Symbols: tab, Counter: r.counter}
		ctx.Memo = memo.NewSession(cache, prog, tab, r.counter)
		r.pols.ProbeMemo(ctx)
		return nil
	})
	return err
}

// channel measures the secure channel on its own: open throughput over
// the image's sealed frames, and allocations per received frame.
func (r *replayer) channel(t *tracer, s, root int, in *input) error {
	key := r.key
	der, err := key.PublicDER()
	if err != nil {
		return err
	}
	pair := func() (*secchan.Session, *secchan.Session, error) {
		cs, wrapped, err := secchan.WrapSessionKey(der, nil)
		if err != nil {
			return nil, nil, err
		}
		es, err := key.UnwrapSessionKey(wrapped, nil)
		return cs, es, err
	}
	cs, es, err := pair()
	if err != nil {
		return err
	}
	var frames [][]byte
	for off := 0; off < len(in.Image); off += protocolBlockSize {
		ct, err := cs.Seal(in.Image[off:min(off+protocolBlockSize, len(in.Image))])
		if err != nil {
			return err
		}
		frames = append(frames, ct)
	}
	openID, _, err := t.call(s, root, "secchan.open", false, func() error {
		for _, ct := range frames {
			if _, err := es.Open(ct); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return err
	}
	t.setUnits(openID, int64(len(in.Image)))
	// A receive advances its session's sequence, so every run of the
	// call gets a session and stream of its own.
	type stream struct {
		es   *secchan.Session
		wire []byte
	}
	streams := make([]stream, 1)
	if t.allocs {
		streams = make([]stream, 1+allocRuns)
	}
	for i := range streams {
		cs, es, err := pair()
		if err != nil {
			return err
		}
		var wire bytes.Buffer
		if err := cs.SendStream(&wire, in.Image, protocolBlockSize); err != nil {
			return err
		}
		streams[i] = stream{es, wire.Bytes()}
	}
	run := 0
	recvID, _, err := t.call(s, root, "secchan.recv", true, func() error {
		st := streams[run]
		run++
		_, err := st.es.RecvStream(bytes.NewReader(st.wire))
		return err
	})
	// The stream is a length-header frame plus the data frames.
	t.setUnits(recvID, int64(1+len(frames)))
	return err
}
