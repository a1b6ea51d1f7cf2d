package engarde

import (
	"context"
	"net"
	"os"
	"path/filepath"
	"testing"

	"engarde/internal/cycles"
	"engarde/internal/obs"
	"engarde/internal/toolchain"
)

// TestTraceCyclesMatchReportExactly is the observability acceptance check:
// a traced provisioning session's per-phase cycle attributions — summed
// over its trace spans, both in memory and after a round-trip through the
// Chrome trace_event file a -trace-dir sink writes — equal Report.Phases
// exactly. The counter is session-private and reset after provider boot
// (the quoting enclave charges before any session exists), so every cycle
// the report counts was charged inside some phase span.
func TestTraceCyclesMatchReportExactly(t *testing.T) {
	counter := cycles.NewCounter(cycles.DefaultModel())
	provider, err := NewProvider(ProviderConfig{EPCPages: 4096, Counter: counter})
	if err != nil {
		t.Fatal(err)
	}
	counter.Reset() // drop provider-boot charges; the trace starts here

	dir := t.TempDir()
	sink, err := obs.NewSink(0, dir)
	if err != nil {
		t.Fatal(err)
	}
	tr := obs.NewTrace("session", counter)

	cfg := smallEnclave()
	cfg.Policies = NewPolicySet(StackProtectorPolicy())
	cfg.Trace = tr
	encl, err := provider.CreateEnclave(cfg)
	if err != nil {
		t.Fatal(err)
	}

	bin, err := toolchain.Build(toolchain.Config{
		Name: "traced", Seed: 81, NumFuncs: 8, AvgFuncInsts: 60, StackProtector: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	expected, err := ExpectedMeasurement(SGXv2, smallEnclave())
	if err != nil {
		t.Fatal(err)
	}

	cli, srv := net.Pipe()
	serveErr := make(chan error, 1)
	repCh := make(chan *Report, 1)
	go func() {
		defer srv.Close()
		rep, err := encl.ServeProvisionFunc(
			obs.WithTrace(context.Background(), tr), srv, encl.ProvisionStaged)
		repCh <- rep
		serveErr <- err
	}()

	client := &Client{Expected: expected, PlatformKey: provider.AttestationPublicKey()}
	verdict, err := client.Provision(cli, bin.Image)
	cli.Close()
	if err != nil {
		t.Fatalf("client.Provision: %v", err)
	}
	if !verdict.Compliant {
		t.Fatalf("rejected: %s", verdict.Reason)
	}
	if err := <-serveErr; err != nil {
		t.Fatalf("ServeProvisionFunc: %v", err)
	}
	rep := <-repCh
	if rep == nil || !rep.Compliant {
		t.Fatal("provider-side report missing or non-compliant")
	}

	sink.Record(tr) // finishes the trace and writes traces.jsonl + the Chrome file

	// In-memory attribution: span phase deltas sum to Report.Phases exactly.
	totals := tr.PhaseTotals()
	if len(rep.Phases) == 0 {
		t.Fatal("report has no phase cycles")
	}
	for p, want := range rep.Phases {
		if got := totals[p]; got != want {
			t.Errorf("PhaseTotals[%s] = %d, report has %d", p, got, want)
		}
	}
	for p, got := range totals {
		if want := rep.Phases[p]; got != want {
			t.Errorf("PhaseTotals[%s] = %d not in report (report %d)", p, got, want)
		}
	}

	// Disk round-trip: the per-session Chrome trace_event file carries the
	// same attributions in args.cycles.
	path := filepath.Join(dir, "session-"+tr.ID()+".trace.json")
	f, err := os.Open(path)
	if err != nil {
		t.Fatalf("chrome trace file: %v", err)
	}
	defer f.Close()
	spans, err := obs.ReadChromeTrace(f)
	if err != nil {
		t.Fatalf("ReadChromeTrace: %v", err)
	}
	if len(spans) == 0 {
		t.Fatal("chrome trace has no spans")
	}
	fromFile := make(map[string]uint64)
	for _, sp := range spans {
		if sp.TraceID != tr.ID() {
			t.Errorf("span %q carries trace_id %q, want %q", sp.Name, sp.TraceID, tr.ID())
		}
		for phase, cyc := range sp.Cycles {
			fromFile[phase] += cyc
		}
	}
	for p, want := range rep.Phases {
		if got := fromFile[p.String()]; got != want {
			t.Errorf("chrome trace cycles[%s] = %d, report has %d", p, got, want)
		}
	}
	if len(fromFile) != len(rep.Phases) {
		t.Errorf("chrome trace has %d phases, report has %d: %v vs %v",
			len(fromFile), len(rep.Phases), fromFile, rep.Phases)
	}

	// The JSONL tier exists alongside the Chrome file.
	if _, err := os.Stat(filepath.Join(dir, "traces.jsonl")); err != nil {
		t.Errorf("traces.jsonl: %v", err)
	}
}
