package core

import (
	"errors"
	"math/rand"
	"strings"
	"testing"

	"engarde/internal/attest"
	"engarde/internal/cycles"
	"engarde/internal/policy"
	"engarde/internal/policy/ifcc"
	"engarde/internal/policy/liblink"
	"engarde/internal/policy/noforbidden"
	"engarde/internal/policy/stackprot"
	"engarde/internal/secchan"
	"engarde/internal/sgx"
	"engarde/internal/toolchain"
)

// testConfig keeps enclaves small so tests stay fast.
func testConfig(pols *policy.Set) Config {
	return Config{
		Version:     sgx.V2,
		EPCPages:    4096,
		HeapPages:   1500,
		ClientPages: 512,
		Policies:    pols,
	}
}

func buildClient(t *testing.T, cfg toolchain.Config) []byte {
	t.Helper()
	bin, err := toolchain.Build(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return bin.Image
}

func clientCfg() toolchain.Config {
	return toolchain.Config{
		Name: "cl", Seed: 61,
		NumFuncs: 8, AvgFuncInsts: 60,
		LibcCallRate: 0.05, NumDataRelocs: 6,
	}
}

// newEnGarde builds an EnGarde enclave and completes the key exchange,
// returning the enclave side and the client session.
func newEnGarde(t *testing.T, cfg Config) (*EnGarde, *secchan.Session) {
	t.Helper()
	g, err := New(cfg)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	pub, err := g.PublicKeyDER()
	if err != nil {
		t.Fatal(err)
	}
	client, wrapped, err := secchan.WrapSessionKey(pub, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := g.AcceptSessionKey(wrapped); err != nil {
		t.Fatal(err)
	}
	return g, client
}

func TestProvisionCompliant(t *testing.T) {
	db, err := toolchain.MuslHashDB(toolchain.MuslV105, false)
	if err != nil {
		t.Fatal(err)
	}
	pols := policy.NewSet(liblink.New("musl-1.0.5", db))
	g, _ := newEnGarde(t, testConfig(pols))

	rep, err := g.Provision(buildClient(t, clientCfg()))
	if err != nil {
		t.Fatalf("Provision: %v", err)
	}
	if !rep.Compliant {
		t.Fatalf("rejected: %s", rep.Reason)
	}
	if rep.NumInsts == 0 || len(rep.ExecPages) == 0 {
		t.Error("report incomplete")
	}
	// All four pipeline phases must have accumulated cycles.
	for _, ph := range []cycles.Phase{cycles.PhaseProvision, cycles.PhaseDisasm, cycles.PhasePolicy, cycles.PhaseLoad} {
		if rep.Phases[ph] == 0 {
			t.Errorf("phase %s has no cycles", ph)
		}
	}

	// Control transfer works: entry fetch succeeds.
	entry, err := g.Enter()
	if err != nil {
		t.Fatalf("Enter: %v", err)
	}
	if entry != rep.Entry {
		t.Errorf("entered at %#x, report says %#x", entry, rep.Entry)
	}
}

func TestProvisionRejectsPolicyViolation(t *testing.T) {
	pols := policy.NewSet(stackprot.New())
	g, _ := newEnGarde(t, testConfig(pols))
	// Client built WITHOUT stack protection.
	rep, err := g.Provision(buildClient(t, clientCfg()))
	if err != nil {
		t.Fatalf("Provision: %v", err)
	}
	if rep.Compliant {
		t.Fatal("unprotected client must be rejected")
	}
	if rep.Violation == nil {
		t.Error("rejection should carry the violation")
	}
	// The enclave must NOT be locked or provisioned.
	if _, err := g.Enter(); err == nil {
		t.Error("Enter after rejection should fail")
	}
}

func TestProvisionAcceptsInstrumentedClient(t *testing.T) {
	pols := policy.NewSet(stackprot.New(), ifcc.New())
	g, _ := newEnGarde(t, testConfig(pols))
	cfg := clientCfg()
	cfg.StackProtector = true
	cfg.IFCC = true
	cfg.IndirectRate = 0.02
	rep, err := g.Provision(buildClient(t, cfg))
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Compliant {
		t.Fatalf("rejected: %s", rep.Reason)
	}
}

func TestProvisionRejectsStripped(t *testing.T) {
	g, _ := newEnGarde(t, testConfig(nil))
	cfg := clientCfg()
	cfg.Strip = true
	rep, err := g.Provision(buildClient(t, cfg))
	if err != nil {
		t.Fatal(err)
	}
	if rep.Compliant || !strings.Contains(rep.Reason, "symbol") {
		t.Errorf("stripped binary: compliant=%v reason=%q", rep.Compliant, rep.Reason)
	}
}

func TestProvisionStrippedWithRecovery(t *testing.T) {
	// The §6 extension: with AllowStripped, function boundaries are
	// recovered and boundary-only policies still run.
	pols := policy.NewSet(noforbidden.New())
	cfg := testConfig(pols)
	cfg.AllowStripped = true
	g, _ := newEnGarde(t, cfg)
	ccfg := clientCfg()
	ccfg.Strip = true
	rep, err := g.Provision(buildClient(t, ccfg))
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Compliant {
		t.Fatalf("stripped binary with recovery rejected: %s", rep.Reason)
	}
	// And the loaded code still executes.
	if _, err := g.Execute(50_000); err != nil {
		t.Errorf("Execute: %v", err)
	}
}

func TestProvisionStrippedSyscallStillCaught(t *testing.T) {
	// Recovery does not weaken the checks: a forbidden instruction in a
	// stripped binary is still found.
	pols := policy.NewSet(noforbidden.New())
	cfg := testConfig(pols)
	cfg.AllowStripped = true
	g, _ := newEnGarde(t, cfg)
	ccfg := clientCfg()
	ccfg.Strip = true
	ccfg.EmitSyscall = true
	rep, err := g.Provision(buildClient(t, ccfg))
	if err != nil {
		t.Fatal(err)
	}
	if rep.Compliant {
		t.Fatal("forbidden instruction must be caught in stripped binaries too")
	}
}

func TestProvisionRejectsMixedCodeData(t *testing.T) {
	g, _ := newEnGarde(t, testConfig(nil))
	cfg := clientCfg()
	cfg.MixedCodeData = true
	rep, err := g.Provision(buildClient(t, cfg))
	if err != nil {
		t.Fatal(err)
	}
	if rep.Compliant || !strings.Contains(rep.Reason, "disassembly") {
		t.Errorf("mixed code/data: compliant=%v reason=%q", rep.Compliant, rep.Reason)
	}
}

func newDeterministicRand() *rand.Rand { return rand.New(rand.NewSource(12345)) }

func TestProvisionMutatedImagesNeverPanic(t *testing.T) {
	// EnGarde's pipeline handles attacker-supplied images; random
	// mutations of a valid binary must always produce a verdict or a
	// clean error, never a panic.
	image := buildClient(t, clientCfg())
	rng := newDeterministicRand()
	for trial := 0; trial < 10; trial++ {
		mutated := append([]byte(nil), image...)
		for k := 0; k < 8; k++ {
			mutated[rng.Intn(len(mutated))] ^= byte(1 << rng.Intn(8))
		}
		g, _ := newEnGarde(t, testConfig(nil))
		rep, err := g.Provision(mutated)
		if err != nil {
			continue // mechanical failure is acceptable; panics are not
		}
		if rep == nil {
			t.Fatalf("trial %d: nil report without error", trial)
		}
	}
}

func TestProvisionRejectsGarbage(t *testing.T) {
	g, _ := newEnGarde(t, testConfig(nil))
	rep, err := g.Provision([]byte("not an elf at all"))
	if err != nil {
		t.Fatal(err)
	}
	if rep.Compliant {
		t.Error("garbage accepted")
	}
}

func TestProvisionOnlyOnce(t *testing.T) {
	g, _ := newEnGarde(t, testConfig(nil))
	image := buildClient(t, clientCfg())
	if _, err := g.Provision(image); err != nil {
		t.Fatal(err)
	}
	if _, err := g.Provision(image); !errors.Is(err, ErrAlreadyProvisioned) {
		t.Errorf("second Provision = %v, want ErrAlreadyProvisioned", err)
	}
}

func TestProvisionedPagesAreWX(t *testing.T) {
	g, _ := newEnGarde(t, testConfig(nil))
	rep, err := g.Provision(buildClient(t, clientCfg()))
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Compliant {
		t.Fatal(rep.Reason)
	}
	// Writing to a code page must fault; writing to a data page must work.
	code := rep.ExecPages[0]
	if err := g.Process().EnclaveWrite(g.Enclave(), code, []byte{0xCC}); err == nil {
		t.Error("write to provisioned code page should fault")
	}
	data := rep.DataPages[len(rep.DataPages)-1]
	if err := g.Process().EnclaveWrite(g.Enclave(), data, []byte{1}); err != nil {
		t.Errorf("write to data page: %v", err)
	}
	// The enclave is locked: no new pages.
	if err := g.Device().EAug(g.Enclave(), g.Layout().Base+g.Layout().Size-sgx.PageSize, sgx.PermR); !errors.Is(err, sgx.ErrEnclaveLocked) {
		// The page may already be mapped; the point is growth is refused.
		if err == nil {
			t.Error("post-provision EAUG should fail")
		}
	}
}

func TestAttestationFlow(t *testing.T) {
	g, _ := newEnGarde(t, testConfig(nil))
	qe, err := attest.NewQuotingEnclave(g.Device())
	if err != nil {
		t.Fatal(err)
	}
	q, err := g.Quote(qe)
	if err != nil {
		t.Fatalf("Quote: %v", err)
	}
	expected, err := ExpectedMeasurement(testConfig(nil))
	if err != nil {
		t.Fatal(err)
	}
	pub, err := g.PublicKeyDER()
	if err != nil {
		t.Fatal(err)
	}
	if err := attest.VerifyQuote(q, qe.AttestationPublicKey(), expected, attest.BindPublicKey(pub)); err != nil {
		t.Errorf("VerifyQuote: %v", err)
	}
	// A different layout (tampered bootstrap) yields a different expected
	// measurement.
	other := testConfig(nil)
	other.HeapPages++
	otherM, err := ExpectedMeasurement(other)
	if err != nil {
		t.Fatal(err)
	}
	if otherM == expected {
		t.Error("different enclave layouts must measure differently")
	}
}

func TestDefaultEPCTooSmallForLargeClients(t *testing.T) {
	// The paper's motivation for raising OpenSGX's EPC limit: EnGarde's
	// enclave (bootstrap + heap for image and instruction buffer + client
	// region) does not fit the stock 2000-page EPC.
	cfg := Config{
		Version:  sgx.V2,
		EPCPages: sgx.DefaultEPCPages, // 2000 — OpenSGX stock
		// Defaults: 5000 heap pages + 1024 client pages.
	}
	if _, err := New(cfg); !errors.Is(err, sgx.ErrEPCFull) {
		t.Errorf("New with stock EPC = %v, want ErrEPCFull", err)
	}
	// With the paper's modification it fits.
	cfg.EPCPages = sgx.ModifiedEPCPages
	if _, err := New(cfg); err != nil {
		t.Errorf("New with modified EPC: %v", err)
	}
}

func TestHeapExhaustion(t *testing.T) {
	cfg := testConfig(nil)
	cfg.HeapPages = 8 // far too small for image + instruction buffer
	g, _ := newEnGarde(t, cfg)
	rep, err := g.Provision(buildClient(t, clientCfg()))
	if err != nil {
		t.Fatal(err)
	}
	if rep.Compliant {
		t.Error("tiny heap should cause rejection")
	}
}

func TestMeasurementDetectsBootstrapTampering(t *testing.T) {
	// Same device/config → same measurement across instances.
	cfg := testConfig(nil)
	g1, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	g2, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if g1.Measurement() != g2.Measurement() {
		t.Error("identical builds must have identical MRENCLAVE")
	}
}

func TestProvisionPrechecked(t *testing.T) {
	// First enclave: the cold path produces the prior report.
	pols := policy.NewSet(stackprot.New())
	cfg := clientCfg()
	cfg.StackProtector = true
	image := buildClient(t, cfg)
	g1, _ := newEnGarde(t, testConfig(pols))
	prior, err := g1.Provision(image)
	if err != nil {
		t.Fatal(err)
	}
	if !prior.Compliant || prior.CacheHit {
		t.Fatalf("cold path: compliant=%v cacheHit=%v", prior.Compliant, prior.CacheHit)
	}

	// Second enclave: the prechecked path must skip disassembly and policy
	// checking but still produce a fully loaded, enterable enclave.
	g2, _ := newEnGarde(t, testConfig(pols))
	rep, err := g2.ProvisionPrechecked(&StagedImage{Image: image}, prior)
	if err != nil {
		t.Fatalf("ProvisionPrechecked: %v", err)
	}
	if !rep.Compliant || !rep.CacheHit {
		t.Fatalf("prechecked: compliant=%v cacheHit=%v", rep.Compliant, rep.CacheHit)
	}
	if rep.NumInsts != prior.NumInsts {
		t.Errorf("NumInsts = %d, want %d (carried from prior report)", rep.NumInsts, prior.NumInsts)
	}
	if rep.Entry != prior.Entry {
		t.Errorf("Entry = %#x, want %#x (loading is deterministic)", rep.Entry, prior.Entry)
	}
	if got := g2.Counter().Cycles(cycles.PhaseDisasm); got != 0 {
		t.Errorf("prechecked path charged %d disassembly cycles, want 0", got)
	}
	if got := g2.Counter().Cycles(cycles.PhasePolicy); got != 0 {
		t.Errorf("prechecked path charged %d policy cycles, want 0", got)
	}
	if entry, err := g2.Enter(); err != nil || entry != rep.Entry {
		t.Errorf("Enter = %#x, %v", entry, err)
	}
	// Runtime execution still works on the fast path.
	if _, err := g2.Execute(10_000); err != nil {
		t.Errorf("Execute after prechecked provisioning: %v", err)
	}
}

func TestProvisionPrecheckedRequiresCompliantPrior(t *testing.T) {
	g, _ := newEnGarde(t, testConfig(policy.NewSet()))
	st := &StagedImage{Image: buildClient(t, clientCfg())}
	if _, err := g.ProvisionPrechecked(st, nil); err == nil {
		t.Error("nil prior must be refused")
	}
	if _, err := g.ProvisionPrechecked(st, &Report{Compliant: false}); err == nil {
		t.Error("non-compliant prior must be refused")
	}
}
