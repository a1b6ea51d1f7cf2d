package gateway_test

// Streaming-path gateway tests: the receive overlaps transfer with the
// provisioning pipeline, so these assert (1) verdict and cache behaviour
// are indistinguishable from in-process provisioning of the same image, and
// (2) the overlap telemetry — recv-overlap and first-byte-to-verdict spans,
// the dedicated histograms — actually fires.

import (
	"strings"
	"testing"

	"engarde"
	"engarde/internal/gateway"
	"engarde/internal/obs"
	"engarde/internal/toolchain"
)

// buildLargeImage makes an image whose text segment spans many frames at
// small block sizes, so the streaming decoder demonstrably overlaps.
func buildLargeImage(t testing.TB, name string, seed int64) []byte {
	t.Helper()
	bin, err := toolchain.Build(toolchain.Config{
		Name: name, Seed: seed, NumFuncs: 48, AvgFuncInsts: 120,
		StackProtector: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	return bin.Image
}

// TestStreamingServesAndObserves drives sessions through the streaming
// gateway with small client frames and checks the full telemetry contract:
// the verdict is exact, the verdict cache keys off the incremental digest
// (a repeat is a hit with no second pipeline run), recv-overlap and
// first-byte-to-verdict spans appear in the trace, and the new histograms
// register and count on /metricsz without breaking exposition lint.
func TestStreamingServesAndObserves(t *testing.T) {
	sink, err := obs.NewSink(16, "")
	if err != nil {
		t.Fatal(err)
	}
	gw, ln, client := testGateway(t, gateway.Config{
		Policies:      engarde.NewPolicySet(engarde.StackProtectorPolicy()),
		DisasmWorkers: 4,
		TraceSink:     sink,
	})
	image := buildLargeImage(t, "stream-obs", 7001)
	cl := *client
	cl.BlockSize = 2 * 1024

	if v, err := provisionOnce(t, ln, &cl, image); err != nil || !v.Compliant {
		t.Fatalf("streamed provision: verdict %+v err %v", v, err)
	}
	if v, err := provisionOnce(t, ln, &cl, image); err != nil || !v.Compliant {
		t.Fatalf("digest-keyed cache hit: verdict %+v err %v", v, err)
	}
	waitFor(t, "2 served sessions", func() bool { return gw.Stats().Served == 2 })
	if hits := gw.Stats().CacheHits; hits != 1 {
		t.Fatalf("verdict cache hits = %d, want 1", hits)
	}

	var sawOverlap, sawFBTV bool
	for _, td := range sink.Recent() {
		for i := range td.Spans {
			switch td.Spans[i].Name {
			case "recv-overlap":
				sawOverlap = true
			case "first-byte-to-verdict":
				sawFBTV = true
			}
		}
	}
	if !sawOverlap {
		t.Error("no recv-overlap span: transfer and decode never ran concurrently")
	}
	if !sawFBTV {
		t.Error("no first-byte-to-verdict span recorded")
	}

	rec := scrape(t, gw.MetricsHandler(), "/metricsz")
	body := rec.Body.String()
	if errs := obs.Lint(strings.NewReader(body)); len(errs) > 0 {
		for _, e := range errs {
			t.Error(e)
		}
		t.Fatalf("exposition failed lint (%d problems)", len(errs))
	}
	// Served counts a session only after its trace is folded in, so the
	// histogram holds exactly the two sessions.
	if got := sampleValue(t, body, "engarde_gateway_first_byte_to_verdict_seconds_count"); got != 2 {
		t.Errorf("first-byte-to-verdict histogram count = %v, want 2", got)
	}
	if got := sampleValue(t, body, "engarde_gateway_frame_gap_seconds_count"); got < 1 {
		t.Errorf("frame gap histogram count = %v, want >= 1", got)
	}
}

// TestStreamingMatchesBufferedVerdicts: every verdict the gateway streams
// back equals VerdictForReport of an in-process Enclave.Provision of the
// same image — compliant, policy-violating and malformed alike.
func TestStreamingMatchesBufferedVerdicts(t *testing.T) {
	pols := engarde.NewPolicySet(engarde.StackProtectorPolicy())
	images := map[string][]byte{
		"good":      buildImage(t, "ab-good", 7002, true),
		"bad":       buildImage(t, "ab-bad", 7003, false),
		"malformed": []byte("\x7fELF not really an executable"),
	}
	_, ln, client := testGateway(t, gateway.Config{Policies: pols})
	provider, err := engarde.NewProvider(engarde.ProviderConfig{})
	if err != nil {
		t.Fatal(err)
	}
	for name, image := range images {
		encl, err := provider.CreateEnclave(engarde.EnclaveConfig{
			Policies: pols, HeapPages: testHeapPages, ClientPages: testClientPages,
		})
		if err != nil {
			t.Fatal(err)
		}
		rep, err := encl.Provision(image)
		encl.Destroy()
		if err != nil {
			t.Fatalf("%s: in-process Provision: %v", name, err)
		}
		want := engarde.VerdictForReport(rep)
		got, err := provisionOnce(t, ln, client, image)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if got != want {
			t.Fatalf("%s: gateway verdict %+v, in-process %+v", name, got, want)
		}
	}
}

// TestStreamingCachedRejection covers the one streaming cache branch with
// no enclave work at all: a cached non-compliant verdict answered at
// last-byte, where the gateway must discard the in-flight speculative
// decode (provision's Release) without leaking it.
func TestStreamingCachedRejection(t *testing.T) {
	gw, ln, client := testGateway(t, gateway.Config{
		Policies:      engarde.NewPolicySet(engarde.StackProtectorPolicy()),
		DisasmWorkers: 4,
	})
	bin, err := toolchain.Build(toolchain.Config{
		Name: "stream-rej", Seed: 7004, NumFuncs: 48, AvgFuncInsts: 120,
	})
	if err != nil {
		t.Fatal(err)
	}
	cl := *client
	cl.BlockSize = 2 * 1024

	if v, err := provisionOnce(t, ln, &cl, bin.Image); err != nil || v.Compliant {
		t.Fatalf("first rejection: verdict %+v err %v", v, err)
	}
	v, err := provisionOnce(t, ln, &cl, bin.Image)
	if err != nil || v.Compliant {
		t.Fatalf("cached rejection: verdict %+v err %v", v, err)
	}
	waitFor(t, "2 served sessions", func() bool { return gw.Stats().Served == 2 })
	if hits := gw.Stats().CacheHits; hits != 1 {
		t.Fatalf("verdict cache hits = %d, want 1", hits)
	}
}
