// Package core implements EnGarde itself — the mutually-trusted in-enclave
// inspection library of the paper. An EnGarde instance is the bootstrap
// content of a freshly created enclave. It
//
//  1. generates an ephemeral key pair (X25519 here, RSA-2048 in the paper)
//     whose digest is bound into the enclave's attestation quote (§2, §3);
//  2. agrees on an AES-256 session key with the client and receives the
//     client's executable over the encrypted channel in blocks (§3);
//  3. disassembles the executable with the NaCl-style disassembler into a
//     dynamically allocated full instruction buffer, paying one OpenSGX
//     trampoline (2 SGX crossings) per page-granular malloc (§4);
//  4. runs the agreed policy modules over the instruction buffer (§3, §5);
//  5. if compliant, loads the executable — text r-x, data/bss rw-, dynamic
//     relocations applied, call stack built — and reports the executable
//     page list to the host-kernel component, which pins W^X and locks the
//     enclave (§3, §4);
//  6. transfers control to the loaded code (§4).
//
// Every step is metered with the cycle model of internal/cycles so the
// paper's Figures 3-5 can be regenerated.
package core

import (
	"errors"
	"fmt"

	"engarde/internal/attest"
	"engarde/internal/cycles"
	"engarde/internal/elf64"
	"engarde/internal/funcid"
	"engarde/internal/hostos"
	"engarde/internal/loader"
	"engarde/internal/obs"
	"engarde/internal/policy"
	"engarde/internal/policy/memo"
	"engarde/internal/secchan"
	"engarde/internal/sgx"
	"engarde/internal/symtab"
)

// Version is the EnGarde bootstrap-code version measured into MRENCLAVE.
const Version = "engarde-1.0"

// InstRecordBytes is the modelled size of one decoded-instruction record in
// the in-enclave instruction buffer.
const InstRecordBytes = 64

// BufferMode selects how the disassembler retains decoded instructions
// (the ablation of DESIGN.md §5.1).
type BufferMode int

// Buffer modes.
const (
	// FullBuffer keeps every decoded instruction — EnGarde's choice, so
	// policy modules can random-access the buffer (paper §4).
	FullBuffer BufferMode = iota + 1
	// SlidingWindow keeps only NaCl's small recent-instruction window; it
	// allocates once but could not support EnGarde's policy modules.
	// Provided for the ablation benchmark.
	SlidingWindow
)

// Provisioning errors.
var (
	// ErrAlreadyProvisioned is returned on a second provisioning attempt;
	// the enclave is locked after the first (paper §3).
	ErrAlreadyProvisioned = errors.New("core: enclave already provisioned")
	// ErrNoSession is returned when content arrives before the key
	// exchange.
	ErrNoSession = errors.New("core: session key not established")
)

// Config configures an EnGarde enclave.
type Config struct {
	// Version selects SGX v1 or v2 semantics; default V2 (EnGarde requires
	// v2 for security, §3, but v1 is supported to demonstrate the attack).
	Version sgx.Version
	// EPCPages is the device EPC capacity; default ModifiedEPCPages (the
	// paper's OpenSGX modification).
	EPCPages int
	// HeapPages is the enclave's pre-committed heap (receive buffer +
	// instruction buffer); default ModifiedHeapPages.
	HeapPages int
	// ClientPages is the region reserved for the loaded client image +
	// stack; default 1024 (4 MB).
	ClientPages int
	// Policies are the mutually agreed policy modules.
	Policies *policy.Set
	// Counter meters all work; a fresh default-model counter is created
	// if nil.
	Counter *cycles.Counter
	// BufferMode is FullBuffer unless overridden for ablation.
	BufferMode BufferMode
	// MallocPerInst disables the page-at-a-time malloc batching (paper
	// §4's optimization), paying one trampoline per instruction record —
	// the ablation baseline.
	MallocPerInst bool
	// AllowStripped enables the §6 extension: binaries without symbol
	// tables are not auto-rejected; function boundaries are recovered
	// statically (internal/funcid) instead. Name-based policies (library
	// linking) still cannot match recovered names and will reject.
	AllowStripped bool
	// EnableEPCPaging turns on OS demand paging of EPC pages (EWB/ELDU):
	// the alternative to the paper's enlarge-the-EPC modification. Large
	// clients then fit a stock 2000-page EPC at the cost of extra SGX
	// instructions per eviction/reload.
	EnableEPCPaging bool
	// DisasmWorkers shards the disassembly pass across this many workers;
	// 0 means GOMAXPROCS, 1 forces the sequential path. The decoded
	// Program and all cycle charges are identical either way.
	DisasmWorkers int
	// PolicyWorkers sizes the policy-checking worker pool the same way.
	PolicyWorkers int
	// FnMemo, when non-nil, enables warm-path provisioning: per-function
	// policy outcomes are shared through this content-addressed cache, so
	// an image whose functions (typically the approved libc) were already
	// checked — by another enclave or a previous gatewayd run — skips
	// re-checking them. Verdicts are identical with or without it; only
	// the metered cost changes. Nil (the default) means cold checking.
	FnMemo *memo.Cache
	// Trace, when non-nil, records the provisioning timeline: one
	// cycle-metered phase span per pipeline stage (enclave creation,
	// staging, disassembly, policy checking, loading, finalization) plus
	// wall-clock sub-spans from the sharded passes. When the trace shares
	// Counter with this config and the counter started at zero, the spans'
	// per-phase cycle sums equal Report.Phases exactly.
	Trace *obs.Trace
}

func (c *Config) applyDefaults() {
	if c.Version == 0 {
		c.Version = sgx.V2
	}
	if c.EPCPages == 0 {
		c.EPCPages = sgx.ModifiedEPCPages
	}
	if c.HeapPages == 0 {
		c.HeapPages = sgx.ModifiedHeapPages
	}
	if c.ClientPages == 0 {
		c.ClientPages = 1024
	}
	if c.Policies == nil {
		c.Policies = policy.NewSet()
	}
	if c.Counter == nil {
		c.Counter = cycles.NewCounter(cycles.DefaultModel())
	}
	if c.BufferMode == 0 {
		c.BufferMode = FullBuffer
	}
}

// bootPages is the number of bootstrap-code pages EnGarde occupies.
const bootPages = 16

// enclaveBase is where the EnGarde enclave lives in the host process.
const enclaveBase = 0x10000000

// Layout describes the enclave's internal address map.
type Layout struct {
	Base       uint64
	BootBase   uint64
	HeapBase   uint64
	ClientBase uint64
	Size       uint64
}

// EnGarde is one provisioning-ready enclave instance.
type EnGarde struct {
	cfg    Config
	dev    *sgx.Device
	drv    *hostos.Driver
	proc   *hostos.Process
	kern   *hostos.KernelComponent
	encl   *sgx.Enclave
	ctx    *sgx.Context
	key    *secchan.EnclaveKey
	sess   *secchan.Session
	layout Layout

	peerTC   obs.TraceContext // client trace context from the session-open extra
	peerTCOK bool

	heapUsed     uint64
	provisioned  bool
	loadResult   *loader.Result
	clientSymtab *symtab.Table
}

// BootstrapCode returns the deterministic bootstrap content measured into
// the enclave. Both the provider and the client inspect this code and can
// recompute the expected MRENCLAVE from it.
func BootstrapCode() [][]byte {
	pages := make([][]byte, bootPages)
	for i := range pages {
		page := make([]byte, sgx.PageSize)
		seed := []byte(Version + "/bootstrap-page/")
		copy(page, seed)
		page[len(seed)] = byte(i)
		// Fill with a deterministic pattern standing in for the loader,
		// crypto library and policy-module code.
		for j := len(seed) + 1; j < len(page); j++ {
			page[j] = byte(j*7 + i*13)
		}
		pages[i] = page
	}
	return pages
}

// New creates a fresh enclave provisioned with the EnGarde bootstrap:
// ECREATE, EADD+EEXTEND of the bootstrap/heap/client pages, EINIT, EENTER,
// and the ephemeral key generation.
func New(cfg Config) (*EnGarde, error) {
	cfg.applyDefaults()
	dev, err := sgx.NewDevice(sgx.Config{
		EPCPages: cfg.EPCPages,
		Version:  cfg.Version,
		Counter:  cfg.Counter,
	})
	if err != nil {
		return nil, err
	}
	return NewOnDevice(cfg, dev)
}

// NewOnDevice creates the EnGarde enclave on an existing device (so several
// enclaves can share one device, as in the multi-tenant example).
func NewOnDevice(cfg Config, dev *sgx.Device) (*EnGarde, error) {
	cfg.applyDefaults()
	// Enclave creation charges (EADD/EEXTEND/EINIT/EENTER, keygen) land
	// in the provisioning phase; the span attributes them to this session.
	sp := cfg.Trace.StartPhase("create-enclave")
	defer sp.End()
	g, err := build(cfg, dev)
	if err != nil {
		return nil, err
	}
	ctx, err := dev.EEnter(g.encl)
	if err != nil {
		return nil, err
	}
	g.ctx = ctx

	// "The bootstrap code loaded into a freshly-created enclave first
	// generates a 2048-bit RSA key pair" (§3) — here an X25519 key, see
	// the secchan package comment.
	key, err := secchan.GenerateEnclaveKey(cfg.Counter)
	if err != nil {
		return nil, err
	}
	g.key = key
	return g, nil
}

// enclavePages is the number of EPC pages the measured build commits.
func (c *Config) enclavePages() int { return bootPages + c.HeapPages + c.ClientPages }

// build performs the measured build on dev: ECREATE, EADD+EEXTEND of the
// bootstrap, heap and client pages, and EINIT. cfg has defaults applied.
func build(cfg Config, dev *sgx.Device) (*EnGarde, error) {
	g := &EnGarde{cfg: cfg, dev: dev}
	g.drv = hostos.NewDriver(dev)
	g.proc = hostos.NewProcess()
	g.kern = hostos.NewKernelComponent(g.drv, cfg.Counter)
	if cfg.EnableEPCPaging {
		g.drv.EnablePaging()
		g.proc.FaultHandler = g.drv.HandleEPCFault
	}

	g.layout = Layout{
		Base:       enclaveBase,
		BootBase:   enclaveBase,
		HeapBase:   enclaveBase + bootPages*sgx.PageSize,
		ClientBase: enclaveBase + uint64(bootPages+cfg.HeapPages)*sgx.PageSize,
		Size:       uint64(cfg.enclavePages()) * sgx.PageSize,
	}

	dev.SetPhase(cycles.PhaseProvision)
	encl, err := g.drv.CreateEnclave(g.proc, g.layout.Base, g.layout.Size)
	if err != nil {
		return nil, err
	}
	g.encl = encl

	// Bootstrap code: r-x at both levels.
	for i, page := range BootstrapCode() {
		va := g.layout.BootBase + uint64(i)*sgx.PageSize
		if err := g.drv.AddMeasuredPage(g.proc, encl, va,
			sgx.PermR|sgx.PermX, hostos.PermR|hostos.PermX, page); err != nil {
			return nil, fmt.Errorf("core: adding bootstrap page: %w", err)
		}
	}
	// Heap and client regions: rw- in page tables; the EPCM keeps RWX at
	// build time so the kernel component can later *restrict* client text
	// pages to r-x (EMODPR can only remove permissions).
	for p := bootPages; p < cfg.enclavePages(); p++ {
		va := g.layout.Base + uint64(p)*sgx.PageSize
		if err := g.drv.AddMeasuredPage(g.proc, encl, va,
			sgx.PermR|sgx.PermW|sgx.PermX, hostos.PermR|hostos.PermW, nil); err != nil {
			return nil, fmt.Errorf("core: adding heap page %#x: %w", va, err)
		}
	}
	if err := g.drv.InitEnclave(encl); err != nil {
		return nil, err
	}
	return g, nil
}

// ExpectedMeasurement computes the MRENCLAVE a correctly initialized
// EnGarde enclave with this configuration must have. Clients call this
// (over code they have inspected) to know what to demand in the quote.
func ExpectedMeasurement(cfg Config) (sgx.Measurement, error) {
	// Measurements depend on neither device keys nor EPC size, so
	// replaying the measured build on a scratch device that just fits the
	// enclave yields the production enclave's measurement. The ephemeral
	// key is not measured, so none is generated.
	bare := Config{Version: cfg.Version, HeapPages: cfg.HeapPages, ClientPages: cfg.ClientPages}
	bare.applyDefaults()
	scratch, err := sgx.NewDevice(sgx.Config{EPCPages: bare.enclavePages(), Version: bare.Version})
	if err != nil {
		return sgx.Measurement{}, err
	}
	g, err := build(bare, scratch)
	if err != nil {
		return sgx.Measurement{}, err
	}
	return g.encl.Measurement(), nil
}

// Measurement returns the enclave's MRENCLAVE.
func (g *EnGarde) Measurement() sgx.Measurement { return g.encl.Measurement() }

// Enclave returns the underlying enclave (tests and examples).
func (g *EnGarde) Enclave() *sgx.Enclave { return g.encl }

// Process returns the hosting process (tests and examples).
func (g *EnGarde) Process() *hostos.Process { return g.proc }

// Device returns the SGX device.
func (g *EnGarde) Device() *sgx.Device { return g.dev }

// Counter returns the cycle counter.
func (g *EnGarde) Counter() *cycles.Counter { return g.cfg.Counter }

// Layout returns the enclave's internal address map.
func (g *EnGarde) Layout() Layout { return g.layout }

// PublicKeyDER exports the enclave's ephemeral public key.
func (g *EnGarde) PublicKeyDER() ([]byte, error) { return g.key.PublicDER() }

// Quote obtains a signed quote binding the enclave measurement and the
// ephemeral public key, via the platform's quoting enclave.
func (g *EnGarde) Quote(qe *attest.QuotingEnclave) (attest.Quote, error) {
	g.dev.SetPhase(cycles.PhaseAttest)
	defer g.dev.SetPhase(cycles.PhaseProvision)
	pub, err := g.key.PublicDER()
	if err != nil {
		return attest.Quote{}, err
	}
	return qe.Quote(g.encl, attest.BindPublicKey(pub))
}

// AcceptSessionKey completes the key exchange from the client's
// session-open frame (its ephemeral X25519 key plus the sealed extra). A
// trace context sealed into the frame (the authenticated session-open
// extra) is captured for SessionTraceContext; a malformed extra is ignored
// rather than failing the handshake — tracing is best-effort, key exchange
// is not.
func (g *EnGarde) AcceptSessionKey(wrapped []byte) error {
	sess, extra, err := g.key.UnwrapSessionKeyExtra(wrapped, g.cfg.Counter)
	if err != nil {
		return err
	}
	g.sess = sess
	g.peerTC, g.peerTCOK = obs.TraceContext{}, false
	if len(extra) > 0 {
		if tc, err := obs.UnmarshalTraceContext(extra); err == nil && tc.Valid() {
			g.peerTC, g.peerTCOK = tc, true
		}
	}
	return nil
}

// SessionTraceContext returns the client's trace context carried inside
// the current session's wrapped-key exchange, and whether one was present
// and well-formed. Unlike the RouteHello copy, this one is authenticated:
// it was sealed under a key derived from the enclave's attested key, so no
// on-path router could alter it.
func (g *EnGarde) SessionTraceContext() (obs.TraceContext, bool) {
	return g.peerTC, g.peerTCOK
}

// Report is the outcome of a provisioning attempt. Its Compliant flag and
// the executable-page list are the only facts EnGarde discloses to the
// cloud provider (§3).
type Report struct {
	// Compliant says whether the content passed every check.
	Compliant bool
	// Reason explains a rejection (empty when compliant).
	Reason string
	// Violation carries the policy violation, if that is what failed.
	Violation *policy.Violation

	// NumInsts is the size of the decoded instruction buffer.
	NumInsts int
	// HeapBytes is the in-enclave heap consumed (receive buffer +
	// instruction buffer).
	HeapBytes uint64
	// ExecPages and DataPages are the page lists handed to the host.
	ExecPages []uint64
	DataPages []uint64
	// Entry is the relocated client entry point (0 if rejected).
	Entry uint64
	// Phases snapshots the per-phase cycle counters after the attempt.
	Phases map[cycles.Phase]uint64
	// CacheHit records that this verdict was served from a verdict cache:
	// the byte-identical image had already been checked under an identical
	// policy set, so disassembly and policy evaluation were skipped (the
	// check is deterministic, making the reuse sound).
	CacheHit bool
	// CachedFunctions counts per-function policy outcomes served from the
	// function-result cache (Config.FnMemo) during this provisioning —
	// function × module reuses whose revalidation succeeded. Zero when the
	// cache is disabled or everything was checked cold.
	CachedFunctions uint64
}

// reject produces a non-compliant report.
func (g *EnGarde) reject(reason string, violation *policy.Violation) *Report {
	return &Report{
		Compliant: false,
		Reason:    reason,
		Violation: violation,
		Phases:    g.cfg.Counter.Snapshot(),
	}
}

// Provision runs the full EnGarde pipeline over a decrypted executable
// image. A non-nil Report with Compliant == false is a *decision*, not an
// error; errors mean the machinery itself failed.
func (g *EnGarde) Provision(image []byte) (*Report, error) {
	return g.provision(&StagedImage{Image: image}, nil)
}

// ProvisionPrechecked provisions an image a prior compliant Report already
// vouches for: disassembly and policy checking are skipped, any speculative
// decode is discarded unused, and the image goes straight to loading. The
// caller must guarantee that the image is byte-identical to the one the
// prior report describes AND that it was checked under a policy set with an
// identical fingerprint — that is what makes skipping the deterministic
// check sound. The returned Report carries CacheHit = true.
func (g *EnGarde) ProvisionPrechecked(st *StagedImage, prior *Report) (*Report, error) {
	if prior == nil || !prior.Compliant {
		return nil, errors.New("core: prechecked provisioning requires a prior compliant report")
	}
	return g.provision(st, prior)
}

// provision is the shared pipeline — Provision, ProvisionStaged and
// ProvisionPrechecked all land here, so their verdicts and charges cannot
// diverge. With prior == nil it runs the full check; with a prior
// compliant report it skips disassembly and policy evaluation (the
// verdict-cache fast path).
// A streamed st may carry a speculative decode, adopted (or discarded) at
// the disassembly stage by decodeText.
func (g *EnGarde) provision(st *StagedImage, prior *Report) (*Report, error) {
	// Whatever path exits, never leave the speculative decoder's chunk
	// goroutines or pooled buffers in flight.
	defer st.Release()
	image := st.Image
	if g.provisioned {
		return nil, ErrAlreadyProvisioned
	}

	// Each pipeline stage runs under a cycle-metered phase span. The stages
	// are strictly sequential, so `cur` always holds the one open span; the
	// deferred End closes it on every early return (End is idempotent).
	tr := g.cfg.Trace
	cur := tr.StartPhase("stage")
	defer func() { cur.End() }()

	// Stage the received image in the enclave heap.
	g.dev.SetPhase(cycles.PhaseProvision)
	if _, err := g.heapAlloc(uint64(len(image)), cycles.PhaseProvision); err != nil {
		return g.reject(fmt.Sprintf("image too large for enclave heap: %v", err), nil), nil
	}
	if err := (enclaveMemory{g: g}).Write(g.layout.HeapBase, image); err != nil {
		return nil, fmt.Errorf("core: staging image: %w", err)
	}
	g.cfg.Counter.Charge(cycles.PhaseProvision, cycles.UnitCopiedByte, uint64(len(image)))

	// Header verification (§4: signature, class, machine, PIE).
	f, err := elf64.Parse(image)
	if err != nil {
		return g.reject(fmt.Sprintf("malformed executable: %v", err), nil), nil
	}
	if err := f.VerifyPIE(); err != nil {
		return g.reject(err.Error(), nil), nil
	}

	var tab *symtab.Table
	var numInsts int
	var cachedFuncs uint64
	if prior == nil {
		// Symbol hash table; stripped binaries are auto-rejected (§6)
		// unless boundary recovery is enabled.
		var symErr error
		tab, symErr = symtab.FromELF(f)
		stripped := false
		if symErr != nil {
			if !g.cfg.AllowStripped {
				return g.reject(fmt.Sprintf("symbol table: %v", symErr), nil), nil
			}
			stripped = true
		}

		texts := f.TextSections()
		if len(texts) != 1 {
			return g.reject(fmt.Sprintf("expected exactly one text section, found %d", len(texts)), nil), nil
		}
		text := texts[0]

		// Disassembly into the instruction buffer, with malloc-trampoline
		// accounting (§4). For stripped binaries, function boundaries are
		// recovered from the decoded program before the reachability rule
		// runs (the §6 extension).
		cur.End()
		cur = tr.StartPhase("disasm")
		g.dev.SetPhase(cycles.PhaseDisasm)
		prog, err := g.decodeText(st, text, tr)
		if err != nil {
			return g.reject(fmt.Sprintf("disassembly: %v", err), nil), nil
		}
		if stripped {
			tab = funcid.Recover(prog, f.Header.Entry)
		}
		if err := prog.CheckReachability(f.Header.Entry, tab); err != nil {
			return g.reject(fmt.Sprintf("disassembly: %v", err), nil), nil
		}
		if err := g.chargeInstBuffer(len(prog.Insts)); err != nil {
			return g.reject(err.Error(), nil), nil
		}
		numInsts = len(prog.Insts)

		// Policy checking (§3, §5).
		cur.End()
		cur = tr.StartPhase("policy")
		g.dev.SetPhase(cycles.PhasePolicy)
		pctx := &policy.Context{Program: prog, Symbols: tab, Counter: g.cfg.Counter, Trace: tr}
		if g.cfg.FnMemo != nil && tab != nil && g.cfg.Policies.AnyMemoizable() {
			// Warm path: one serial fingerprint pass computes every
			// function's content digest, then the module hit sets are fixed
			// — both before the parallel fan-out, so the charges land in a
			// deterministic order and span checkers read without locks.
			pctx.Memo = memo.NewSession(g.cfg.FnMemo, prog, tab, g.cfg.Counter)
			g.cfg.Policies.ProbeMemo(pctx)
		}
		if err := g.cfg.Policies.CheckParallel(pctx, g.cfg.PolicyWorkers); err != nil {
			if v, ok := policy.AsViolation(err); ok {
				rep := g.reject(err.Error(), v)
				if pctx.Memo != nil {
					rep.CachedFunctions = pctx.Memo.Reused()
				}
				return rep, nil
			}
			return nil, fmt.Errorf("core: policy machinery: %w", err)
		}
		if pctx.Memo != nil {
			cachedFuncs = pctx.Memo.Reused()
		}
	} else {
		// Verdict-cache fast path: the byte-identical image already passed
		// disassembly and policy checking under an identical policy set, so
		// neither is repeated (and no instruction buffer is allocated). The
		// symbol table is still rebuilt — runtime CFI needs it — but that is
		// ELF metadata parsing, not the metered in-enclave check.
		tab, _ = symtab.FromELF(f)
		numInsts = prior.NumInsts
	}

	// Loading and relocation (§4).
	cur.End()
	cur = tr.StartPhase("load")
	g.dev.SetPhase(cycles.PhaseLoad)
	res, err := loader.Load(f, enclaveMemory{g: g}, loader.Config{
		Base:    g.layout.ClientBase,
		Limit:   uint64(g.cfg.ClientPages) * sgx.PageSize,
		Counter: g.cfg.Counter,
	})
	if err != nil {
		if errors.Is(err, sgx.ErrEnclaveLost) {
			// The enclave died under the loader (EPC reclaim). That is a
			// machinery failure to recover from, never a verdict about the
			// image — misclassifying it as a rejection would poison the
			// client with a wrong outcome.
			return nil, fmt.Errorf("core: loading: %w", err)
		}
		return g.reject(fmt.Sprintf("loading: %v", err), nil), nil
	}
	g.loadResult = res

	// Hand the executable-page list to the host kernel component, which
	// pins W^X, drops the stack guard to read-only, and locks the enclave
	// (§3).
	cur.End()
	cur = tr.StartPhase("finalize")
	g.dev.SetPhase(cycles.PhaseProvision)
	if err := g.kern.ProtectGuardPages(g.proc, g.encl, []uint64{res.GuardPage}); err != nil {
		return nil, fmt.Errorf("core: guard setup: %w", err)
	}
	if err := g.kern.ApplyProvisionedPermissions(g.proc, g.encl, res.ExecPages, res.DataPages); err != nil {
		return nil, fmt.Errorf("core: host permission setup: %w", err)
	}
	g.provisioned = true
	g.clientSymtab = tab

	return &Report{
		Compliant:       true,
		NumInsts:        numInsts,
		HeapBytes:       g.heapUsed,
		ExecPages:       res.ExecPages,
		DataPages:       res.DataPages,
		Entry:           res.Entry,
		Phases:          g.cfg.Counter.Snapshot(),
		CacheHit:        prior != nil,
		CachedFunctions: cachedFuncs,
	}, nil
}

// chargeInstBuffer models the dynamically allocated instruction buffer:
// records are InstRecordBytes each; in FullBuffer mode every record is
// kept, and each page-granular malloc pays one trampoline (2 SGX
// crossings). MallocPerInst pays the trampoline per record instead —
// the cost the paper's batching optimization removes.
func (g *EnGarde) chargeInstBuffer(n int) error {
	var bytes uint64
	var mallocs uint64
	switch g.cfg.BufferMode {
	case SlidingWindow:
		bytes = 4 * sgx.PageSize // NaCl's bounded window
		mallocs = 1
	default:
		bytes = uint64(n) * InstRecordBytes
		if g.cfg.MallocPerInst {
			mallocs = uint64(n)
		} else {
			mallocs = (bytes + sgx.PageSize - 1) / sgx.PageSize
		}
	}
	if _, err := g.heapAlloc(bytes, cycles.PhaseDisasm); err != nil {
		return fmt.Errorf("instruction buffer: %v", err)
	}
	g.dev.ChargeSGX(2 * mallocs)
	return nil
}

// heapAlloc bumps the in-enclave heap.
func (g *EnGarde) heapAlloc(n uint64, _ cycles.Phase) (uint64, error) {
	heapSize := uint64(g.cfg.HeapPages) * sgx.PageSize
	if g.heapUsed+n > heapSize {
		return 0, fmt.Errorf("core: enclave heap exhausted (%d + %d > %d bytes)",
			g.heapUsed, n, heapSize)
	}
	addr := g.layout.HeapBase + g.heapUsed
	g.heapUsed += n
	return addr, nil
}

// Enter transfers control to the provisioned executable: EENTER, then an
// instruction fetch at the relocated entry point (both the page tables and
// the EPCM must grant execute). It returns the entry address actually
// fetched.
func (g *EnGarde) Enter() (uint64, error) {
	if !g.provisioned {
		return 0, errors.New("core: nothing provisioned")
	}
	ctx, err := g.dev.EEnter(g.encl)
	if err != nil {
		return 0, err
	}
	defer ctx.EExit()
	var first [16]byte
	if err := g.proc.EnclaveFetch(g.encl, g.loadResult.Entry, first[:]); err != nil {
		return 0, fmt.Errorf("core: fetching entry instruction: %w", err)
	}
	return g.loadResult.Entry, nil
}

// LoadResult exposes the loader outcome (examples/benches).
func (g *EnGarde) LoadResult() *loader.Result { return g.loadResult }

// Destroy releases the enclave's EPC pages back to the device. A serving
// layer that creates one enclave per connection must call this when the
// connection ends, or the shared EPC is exhausted after a handful of
// tenants. The instance is unusable afterwards.
func (g *EnGarde) Destroy() {
	g.dev.DestroyEnclave(g.encl)
}
