// Package engarde is a from-scratch reproduction of "EnGarde:
// Mutually-Trusted Inspection of SGX Enclaves" (Nguyen & Ganapathy,
// ICDCS 2017) as a reusable Go library.
//
// EnGarde lets a cloud provider and a cloud client — who do not trust each
// other — agree on policies that the client's enclave code must satisfy.
// The provider creates a fresh enclave provisioned with the EnGarde
// bootstrap (inspectable by both parties, attested via SGX), the client
// provisions its executable over an end-to-end encrypted channel into the
// enclave, and EnGarde statically checks the code against the agreed
// policies before loading it. The provider learns exactly one bit
// (compliant or not) plus the executable-page layout; the client's code
// never leaves the enclave in plaintext; and no runtime overhead remains
// after provisioning.
//
// The package is organized around two roles:
//
//   - Provider: owns the (emulated) SGX device and its quoting enclave,
//     creates EnGarde enclaves, and serves the provisioning protocol.
//   - Client: verifies the enclave's attestation quote against the
//     expected EnGarde measurement, wraps a session key, and streams its
//     executable.
//
// The SGX substrate is a software emulation (internal/sgx) following the
// paper's own methodology — the paper, too, ran on an emulator (OpenSGX)
// with a cycle model rather than on silicon. See DESIGN.md for the full
// substitution map.
package engarde

import (
	"crypto/rsa"
	"errors"
	"fmt"

	"engarde/internal/attest"
	"engarde/internal/core"
	"engarde/internal/cycles"
	"engarde/internal/obs"
	"engarde/internal/policy"
	"engarde/internal/policy/asan"
	"engarde/internal/policy/ifcc"
	"engarde/internal/policy/liblink"
	"engarde/internal/policy/memo"
	"engarde/internal/policy/noforbidden"
	"engarde/internal/policy/stackprot"
	"engarde/internal/sgx"
	"engarde/internal/toolchain"
)

// Re-exported core types, so downstream users interact with one package.
type (
	// Policy is one pluggable compliance check (paper §3).
	Policy = policy.Module
	// PolicySet is the ordered module list both parties agreed on.
	PolicySet = policy.Set
	// Violation reports why content was rejected.
	Violation = policy.Violation
	// Report is the outcome of a provisioning attempt.
	Report = core.Report
	// StagedImage is an executable received by the streaming pipeline:
	// plaintext plus an incrementally computed digest (see
	// ServeProvisionFunc).
	StagedImage = core.StagedImage
	// Measurement is an enclave measurement (MRENCLAVE).
	Measurement = sgx.Measurement
	// Quote is a signed attestation statement.
	Quote = attest.Quote
	// SGXVersion selects SGX v1/v2 semantics.
	SGXVersion = sgx.Version
	// FnCache is the content-addressed function-result cache enabling
	// warm-path provisioning; share one across enclaves via
	// EnclaveConfig.FnCache.
	FnCache = memo.Cache
	// FnCacheStats is a snapshot of a FnCache's hit/miss/eviction metrics.
	FnCacheStats = memo.Stats
)

// OpenFnCache builds a function-result cache: an in-process sharded LRU
// bounded at entries (0 means the default capacity). The cache lives only
// in this process; it is never written to disk or shared with another
// process, so path must be empty and a non-empty path is an error.
func OpenFnCache(entries int, path string) (*FnCache, error) {
	if path != "" {
		return nil, errors.New("engarde: the function-result cache has no disk tier; path must be empty")
	}
	return memo.Open(memo.Config{Entries: entries})
}

// SGX instruction-set versions. EnGarde requires V2 for security (§3); V1
// is provided to demonstrate the attack that motivates the requirement.
const (
	SGXv1 = sgx.V1
	SGXv2 = sgx.V2
)

// NewPolicySet builds a policy set.
func NewPolicySet(mods ...Policy) *PolicySet { return policy.NewSet(mods...) }

// MuslLinkingPolicy returns the paper's first policy module: the client's
// executable must be linked against the approved musl-libc build (§5,
// Figure 3). The hash database is derived from the provider's approved
// libc build; stackProtected selects the canary-instrumented libc variant.
func MuslLinkingPolicy(version string, stackProtected bool) (Policy, error) {
	db, err := toolchain.MuslHashDB(version, stackProtected)
	if err != nil {
		return nil, fmt.Errorf("engarde: building musl hash database: %w", err)
	}
	return liblink.New("musl-libc v"+version, db), nil
}

// MuslApprovedVersion is the library version the paper's provider demands.
const MuslApprovedVersion = toolchain.MuslV105

// StackProtectorPolicy returns the paper's second policy module: every
// function must carry Clang -fstack-protector-all instrumentation (§5,
// Figure 4).
func StackProtectorPolicy() Policy { return stackprot.New() }

// IFCCPolicy returns the paper's third policy module: every indirect call
// must carry LLVM IFCC jump-table guards (§5, Figure 5).
func IFCCPolicy() Policy { return ifcc.New() }

// NoForbiddenInstructionsPolicy rejects executables containing SYSCALL,
// INT and other instructions that cannot legally execute inside an enclave
// (§2) — a fourth module demonstrating the pluggable architecture.
func NoForbiddenInstructionsPolicy() Policy { return noforbidden.New() }

// ASanPolicy verifies AddressSanitizer-style shadow-check instrumentation
// on every frame store — the "other tools, such as Google's
// AddressSanitizer" customization §5 suggests. Approved-library functions
// are exempt (their exact bytes are pinned by the library-linking policy
// instead).
func ASanPolicy() Policy { return asan.New(toolchain.MuslFunctionNames()...) }

// EnclaveConfig configures one EnGarde enclave.
type EnclaveConfig struct {
	// Policies both parties agreed on.
	Policies *PolicySet
	// HeapPages / ClientPages size the enclave regions (defaults match
	// the paper's modified OpenSGX: 5000 heap pages).
	HeapPages   int
	ClientPages int
	// FnCache, when non-nil, enables warm-path provisioning: per-function
	// policy outcomes are memoized in (and reused from) this cache, keyed
	// by function content digest × module fingerprint. Verdicts are
	// identical with or without it; Report.CachedFunctions counts the
	// reuses. Share one cache across enclaves to amortize checking of the
	// common approved libc.
	FnCache *FnCache
	// Trace, when non-nil, records this enclave's provisioning timeline:
	// cycle-metered spans for enclave creation and every pipeline phase.
	// Serving layers thread the same trace through the protocol context
	// (obs.WithTrace) so the protocol steps land on the same timeline.
	Trace *obs.Trace
}

// Provider is the cloud provider's side: one SGX machine with its quoting
// enclave.
type Provider struct {
	dev *sgx.Device
	qe  *attest.QuotingEnclave
	cfg ProviderConfig
}

// ProviderConfig configures the provider's SGX platform.
type ProviderConfig struct {
	// Version is the SGX generation; default SGXv2.
	Version SGXVersion
	// EPCPages is the EPC capacity; default the paper's 32000 pages.
	EPCPages int
	// Counter, if set, meters all SGX and EnGarde work.
	Counter *cycles.Counter
}

// NewProvider boots an SGX platform: device plus quoting enclave.
func NewProvider(cfg ProviderConfig) (*Provider, error) {
	if cfg.Version == 0 {
		cfg.Version = sgx.V2
	}
	if cfg.EPCPages == 0 {
		cfg.EPCPages = sgx.ModifiedEPCPages
	}
	dev, err := sgx.NewDevice(sgx.Config{
		EPCPages: cfg.EPCPages,
		Version:  cfg.Version,
		Counter:  cfg.Counter,
	})
	if err != nil {
		return nil, err
	}
	qe, err := attest.NewQuotingEnclave(dev)
	if err != nil {
		return nil, err
	}
	return &Provider{dev: dev, qe: qe, cfg: cfg}, nil
}

// AttestationPublicKey is the platform attestation key clients verify
// quotes against (what Intel's attestation service would vouch for).
func (p *Provider) AttestationPublicKey() *rsa.PublicKey {
	return p.qe.AttestationPublicKey()
}

// Device exposes the underlying SGX device (examples, benches).
func (p *Provider) Device() *sgx.Device { return p.dev }

// Counter returns the cycle counter metering this platform (nil if the
// provider was built without one). Enclaves created on the platform all
// charge into it, so it aggregates work across tenants — the gateway's
// stats endpoint reads per-phase totals from here.
func (p *Provider) Counter() *cycles.Counter { return p.cfg.Counter }

// Enclave is one EnGarde-provisioned enclave on a provider platform.
type Enclave struct {
	provider *Provider
	core     *core.EnGarde
}

// CreateEnclave creates a fresh enclave provisioned with the EnGarde
// bootstrap and the agreed policy modules.
func (p *Provider) CreateEnclave(cfg EnclaveConfig) (*Enclave, error) {
	g, err := core.NewOnDevice(core.Config{
		Version:     p.cfg.Version,
		EPCPages:    p.cfg.EPCPages,
		HeapPages:   cfg.HeapPages,
		ClientPages: cfg.ClientPages,
		Policies:    cfg.Policies,
		Counter:     p.cfg.Counter,
		FnMemo:      cfg.FnCache,
		Trace:       cfg.Trace,
	}, p.dev)
	if err != nil {
		return nil, err
	}
	return &Enclave{provider: p, core: g}, nil
}

// EnclaveSnapshot is a reusable post-EINIT enclave image on a provider
// platform: one template enclave is built the measured way and captured,
// then Clone mints attestation-ready enclaves at page-restore speed and
// Recycle scrubs used ones back to the pristine image. All clones carry
// the template's MRENCLAVE (identical to ExpectedMeasurement for the same
// configuration) with fresh per-instance identities and channel keys.
type EnclaveSnapshot struct {
	provider *Provider
	snap     *core.Snapshotter
}

// NewEnclaveSnapshot builds and captures the snapshot template. The
// one-time measured-build cost is charged to the provider's counter.
func (p *Provider) NewEnclaveSnapshot(cfg EnclaveConfig) (*EnclaveSnapshot, error) {
	s, err := core.NewSnapshotter(core.Config{
		Version:     p.cfg.Version,
		EPCPages:    p.cfg.EPCPages,
		HeapPages:   cfg.HeapPages,
		ClientPages: cfg.ClientPages,
		Policies:    cfg.Policies,
		Counter:     p.cfg.Counter,
		FnMemo:      cfg.FnCache,
	}, p.dev)
	if err != nil {
		return nil, err
	}
	return &EnclaveSnapshot{provider: p, snap: s}, nil
}

// Clone mints a fresh provisioning-ready enclave from the snapshot,
// behaviorally identical to CreateEnclave minus the measured-build cost.
func (s *EnclaveSnapshot) Clone() (*Enclave, error) { return s.CloneTraced(nil) }

// CloneTraced is Clone with the enclave's provisioning timeline recorded
// on tr (the counterpart of EnclaveConfig.Trace): the clone-enclave span
// and every later provisioning phase land there. tr may be nil.
func (s *EnclaveSnapshot) CloneTraced(tr *obs.Trace) (*Enclave, error) {
	g, err := s.snap.Clone(tr)
	if err != nil {
		return nil, err
	}
	return &Enclave{provider: s.provider, core: g}, nil
}

// Recycle scrubs a used clone back to the snapshot image — erasing all
// session state including any client page contents — and returns it as a
// fresh enclave around the same EPC pages. The argument must not be used
// afterwards; on error it has been destroyed.
func (s *EnclaveSnapshot) Recycle(e *Enclave) (*Enclave, error) {
	g, err := s.snap.Recycle(e.core)
	if err != nil {
		return nil, err
	}
	return &Enclave{provider: s.provider, core: g}, nil
}

// Measurement returns the MRENCLAVE every clone carries.
func (s *EnclaveSnapshot) Measurement() Measurement { return s.snap.Measurement() }

// Quote produces the attestation quote binding the enclave measurement and
// its ephemeral public key.
func (e *Enclave) Quote() (Quote, error) { return e.core.Quote(e.provider.qe) }

// SetTrace attaches a trace to the enclave so later work (provisioning
// phases) lands on a session's timeline: an enclave cloned untraced adopts
// the trace of whoever uses it next; nil detaches it.
func (e *Enclave) SetTrace(tr *obs.Trace) { e.core.SetTrace(tr) }

// PublicKeyDER exports the enclave's ephemeral X25519 public key as PKIX
// DER: the key the quote binds (attest.BindPublicKey) and the client
// agrees on the session key with.
func (e *Enclave) PublicKeyDER() ([]byte, error) { return e.core.PublicKeyDER() }

// AcceptSessionKey completes the key exchange from the client's
// session-open frame (secchan.WrapSessionKey) and installs the derived
// AES session key.
func (e *Enclave) AcceptSessionKey(wrapped []byte) error {
	return e.core.AcceptSessionKey(wrapped)
}

// SessionTraceContext returns the trace context the client carried inside
// the current session's wrapped-key exchange (authenticated under the
// enclave key, so not forgeable by an on-path router), and whether one
// was present. The gateway adopts it onto the session trace so client,
// router and gateway span files share one trace ID.
func (e *Enclave) SessionTraceContext() (obs.TraceContext, bool) {
	return e.core.SessionTraceContext()
}

// Provision runs the EnGarde pipeline over a plaintext image (in-process
// use; the network protocol lives in protocol.go). The image is provisioned
// as a one-frame StagedImage, so verdicts and cycle charges are those of a
// streamed session.
func (e *Enclave) Provision(image []byte) (*Report, error) {
	return e.core.Provision(image)
}

// ProvisionStaged runs the pipeline over a streamed image. Verdicts and
// cycle charges are identical to Provision(st.Image).
func (e *Enclave) ProvisionStaged(st *StagedImage) (*Report, error) {
	return e.core.ProvisionStaged(st)
}

// ProvisionPrechecked provisions an image that a prior compliant Report
// already vouches for, skipping disassembly and policy checking. The caller
// must guarantee the image is byte-identical to the one behind prior and
// was checked under a policy set with an identical Fingerprint — the
// gateway's verdict cache enforces exactly that.
func (e *Enclave) ProvisionPrechecked(st *StagedImage, prior *Report) (*Report, error) {
	return e.core.ProvisionPrechecked(st, prior)
}

// Enter transfers control to the provisioned executable.
func (e *Enclave) Enter() (uint64, error) { return e.core.Enter() }

// Measurement returns the enclave's MRENCLAVE.
func (e *Enclave) Measurement() Measurement { return e.core.Measurement() }

// Core exposes the underlying core instance (benches, examples).
func (e *Enclave) Core() *core.EnGarde { return e.core }

// Destroy releases the enclave's EPC pages back to the platform. The
// gateway calls this when a connection ends; without it the shared EPC
// fills up after a handful of tenants.
func (e *Enclave) Destroy() { e.core.Destroy() }

// ErrEnclaveLost is returned (wrapped) by enclave operations after the
// host reclaimed the enclave's EPC pages — the SGX failure mode where an
// enclave dies out from under its owner. The gateway detects it with
// errors.Is and transparently re-runs the session on a fresh enclave;
// losses cost availability headroom, never verdict integrity.
var ErrEnclaveLost = sgx.ErrEnclaveLost

// Reclaim tears the enclave's EPC pages out from under it, marking it
// lost — deterministic enclave-loss injection for recovery drills and
// chaos tests. Returns the number of pages reclaimed.
func (e *Enclave) Reclaim() int {
	return e.core.Device().ReclaimEnclave(e.core.Enclave())
}

// ExpectedMeasurement computes the MRENCLAVE a genuine EnGarde enclave
// with the given configuration must carry; clients compare quotes against
// it (both parties can compute it from the inspectable EnGarde code).
func ExpectedMeasurement(version SGXVersion, cfg EnclaveConfig) (Measurement, error) {
	if version == 0 {
		version = sgx.V2
	}
	return core.ExpectedMeasurement(core.Config{
		Version:     version,
		HeapPages:   cfg.HeapPages,
		ClientPages: cfg.ClientPages,
	})
}
