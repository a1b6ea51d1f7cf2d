package engarde

import (
	"net"
	"strings"
	"testing"

	"engarde/internal/toolchain"
	"engarde/internal/workload"
)

// smallEnclave keeps tests fast.
func smallEnclave() EnclaveConfig {
	return EnclaveConfig{HeapPages: 1500, ClientPages: 512}
}

func TestEndToEndOverTCP(t *testing.T) {
	// The complete paper protocol over a real socket: attest → key
	// exchange → encrypted transfer → policy check → verdict.
	provider, err := NewProvider(ProviderConfig{EPCPages: 4096})
	if err != nil {
		t.Fatal(err)
	}
	pols := NewPolicySet(StackProtectorPolicy())
	cfg := smallEnclave()
	cfg.Policies = pols
	encl, err := provider.CreateEnclave(cfg)
	if err != nil {
		t.Fatal(err)
	}

	expected, err := ExpectedMeasurement(SGXv2, smallEnclave())
	if err != nil {
		t.Fatal(err)
	}
	bin, err := toolchain.Build(toolchain.Config{
		Name: "e2e", Seed: 71, NumFuncs: 8, AvgFuncInsts: 60, StackProtector: true,
	})
	if err != nil {
		t.Fatal(err)
	}

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()

	serveErr := make(chan error, 1)
	repCh := make(chan *Report, 1)
	go func() {
		conn, err := ln.Accept()
		if err != nil {
			serveErr <- err
			return
		}
		defer conn.Close()
		rep, err := encl.ServeProvision(conn)
		repCh <- rep
		serveErr <- err
	}()

	conn, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()

	client := &Client{Expected: expected, PlatformKey: provider.AttestationPublicKey()}
	verdict, err := client.Provision(conn, bin.Image)
	if err != nil {
		t.Fatalf("client.Provision: %v", err)
	}
	if !verdict.Compliant {
		t.Fatalf("rejected: %s", verdict.Reason)
	}
	if err := <-serveErr; err != nil {
		t.Fatalf("ServeProvision: %v", err)
	}
	rep := <-repCh
	if rep == nil || !rep.Compliant {
		t.Fatal("provider-side report missing or non-compliant")
	}
	if _, err := encl.Enter(); err != nil {
		t.Errorf("Enter: %v", err)
	}
}

func TestEndToEndRejection(t *testing.T) {
	provider, err := NewProvider(ProviderConfig{EPCPages: 4096})
	if err != nil {
		t.Fatal(err)
	}
	cfg := smallEnclave()
	cfg.Policies = NewPolicySet(StackProtectorPolicy())
	encl, err := provider.CreateEnclave(cfg)
	if err != nil {
		t.Fatal(err)
	}
	expected, err := ExpectedMeasurement(SGXv2, smallEnclave())
	if err != nil {
		t.Fatal(err)
	}
	bin, err := toolchain.Build(toolchain.Config{
		Name: "bad", Seed: 72, NumFuncs: 6, AvgFuncInsts: 50, // no stack protector
	})
	if err != nil {
		t.Fatal(err)
	}

	cli, srv := net.Pipe()
	defer cli.Close()
	defer srv.Close()
	go func() {
		_, _ = encl.ServeProvision(srv)
	}()
	client := &Client{Expected: expected, PlatformKey: provider.AttestationPublicKey()}
	verdict, err := client.Provision(cli, bin.Image)
	if err != nil {
		t.Fatalf("client.Provision: %v", err)
	}
	if verdict.Compliant {
		t.Fatal("unprotected binary must be rejected")
	}
	if !strings.Contains(verdict.Reason, "stack-protector") {
		t.Errorf("verdict reason %q does not name the failing policy", verdict.Reason)
	}
}

func TestClientDetectsWrongMeasurement(t *testing.T) {
	// A provider substituting tampered bootstrap code is caught by the
	// client before any content is sent.
	provider, err := NewProvider(ProviderConfig{EPCPages: 4096})
	if err != nil {
		t.Fatal(err)
	}
	cfg := smallEnclave()
	cfg.HeapPages++ // a different (thus "tampered") EnGarde layout
	encl, err := provider.CreateEnclave(cfg)
	if err != nil {
		t.Fatal(err)
	}
	expected, err := ExpectedMeasurement(SGXv2, smallEnclave())
	if err != nil {
		t.Fatal(err)
	}

	cli, srv := net.Pipe()
	defer cli.Close()
	defer srv.Close()
	go func() { _, _ = encl.ServeProvision(srv) }()
	client := &Client{Expected: expected, PlatformKey: provider.AttestationPublicKey()}
	_, err = client.Provision(cli, []byte("never sent anyway"))
	if err == nil || !strings.Contains(err.Error(), "attestation failed") {
		t.Errorf("client.Provision = %v, want attestation failure", err)
	}
}

func TestAllPoliciesTogether(t *testing.T) {
	// A client instrumented with everything passes the full agreed set —
	// the paper's three modules plus the two extension modules.
	musl, err := MuslLinkingPolicy(MuslApprovedVersion, true)
	if err != nil {
		t.Fatal(err)
	}
	provider, err := NewProvider(ProviderConfig{EPCPages: 4096})
	if err != nil {
		t.Fatal(err)
	}
	cfg := smallEnclave()
	cfg.Policies = NewPolicySet(musl, StackProtectorPolicy(), IFCCPolicy(),
		NoForbiddenInstructionsPolicy(), ASanPolicy())
	encl, err := provider.CreateEnclave(cfg)
	if err != nil {
		t.Fatal(err)
	}
	bin, err := toolchain.Build(toolchain.Config{
		Name: "full", Seed: 73, NumFuncs: 8, AvgFuncInsts: 60,
		LibcCallRate: 0.05, StackProtector: true, IFCC: true, IndirectRate: 0.02,
		ASan: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	rep, err := encl.Provision(bin.Image)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Compliant {
		t.Fatalf("rejected: %s", rep.Reason)
	}
	// The quintuple-instrumented binary also runs.
	if _, err := encl.Core().Execute(50_000); err != nil {
		t.Errorf("Execute: %v", err)
	}
}

func TestWorkloadBenchmarksProvision(t *testing.T) {
	// Every paper benchmark provisions cleanly under its matching policy.
	if testing.Short() {
		t.Skip("builds all seven paper benchmarks")
	}
	spec, err := workload.ByName("429.mcf")
	if err != nil {
		t.Fatal(err)
	}
	bin, err := spec.Build(workload.StackProtected)
	if err != nil {
		t.Fatal(err)
	}
	provider, err := NewProvider(ProviderConfig{EPCPages: 8192})
	if err != nil {
		t.Fatal(err)
	}
	cfg := EnclaveConfig{HeapPages: 2500, ClientPages: 512,
		Policies: NewPolicySet(StackProtectorPolicy())}
	encl, err := provider.CreateEnclave(cfg)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := encl.Provision(bin.Image)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Compliant {
		t.Fatalf("429.mcf rejected: %s", rep.Reason)
	}
}

// TestOpenFnCacheInProcessOnly pins the function-result cache to one
// process: the path argument that once named a disk log is refused, and
// the in-memory cache opens and closes cleanly.
func TestOpenFnCacheInProcessOnly(t *testing.T) {
	if _, err := OpenFnCache(0, "fn.cache"); err == nil {
		t.Fatal("OpenFnCache accepted a disk path")
	}
	fc, err := OpenFnCache(0, "")
	if err != nil {
		t.Fatal(err)
	}
	if st := fc.Stats(); st.Entries != 0 || st.Hits != 0 {
		t.Fatalf("fresh cache stats %+v", st)
	}
	if err := fc.Close(); err != nil {
		t.Fatalf("Close = %v, want nil", err)
	}
}
