package core

import (
	"crypto/sha256"
	"fmt"
	"math/rand"
	"net"
	"reflect"
	"sync"
	"testing"

	"engarde/internal/faults"
	"engarde/internal/policy"
	"engarde/internal/policy/memo"
	"engarde/internal/policy/stackprot"
	"engarde/internal/secchan"
	"engarde/internal/toolchain"
)

// provisionOver runs one full receive-and-provision over an in-memory pipe:
// the client session streams image in blockSize frames while the enclave
// receives on either the streaming pipeline (RecvImageStreaming +
// ProvisionStaged) or, as the sequential oracle, a plain whole-image
// receive (the session's RecvStream) followed by Provision.
func provisionOver(t *testing.T, streaming bool, image []byte, pols *policy.Set, blockSize int, cache *memo.Cache) *Report {
	t.Helper()
	cfg := testConfig(pols)
	cfg.FnMemo = cache
	g, client := newEnGarde(t, cfg)

	cli, srv := net.Pipe()
	defer srv.Close()
	sendErr := make(chan error, 1)
	go func() {
		defer cli.Close()
		sendErr <- client.SendStream(cli, image, blockSize)
	}()

	var rep *Report
	var err error
	if streaming {
		var st *StagedImage
		st, err = g.RecvImageStreaming(srv)
		if err == nil {
			if st.Digest != sha256.Sum256(image) {
				t.Fatal("incremental digest disagrees with a full-buffer hash")
			}
			rep, err = g.ProvisionStaged(st)
		}
	} else {
		var image []byte
		image, err = g.sess.RecvStream(srv)
		if err == nil {
			rep, err = g.Provision(image)
		}
	}
	if err != nil {
		t.Fatalf("provision (streaming=%v, block=%d): %v", streaming, blockSize, err)
	}
	if err := <-sendErr; err != nil {
		t.Fatalf("SendStream: %v", err)
	}
	return rep
}

// TestStreamingMatchesSequential is the contract the whole streaming
// pipeline rests on: for any frame schedule, cold or through a warmed
// function-result cache, the streamed receive-and-provision produces
// exactly the sequential outcome — verdict, violation, instruction count,
// and every per-phase cycle total.
func TestStreamingMatchesSequential(t *testing.T) {
	rng := rand.New(rand.NewSource(20260807))
	for _, tc := range diffCases() {
		t.Run(tc.name, func(t *testing.T) {
			image := tc.image(t)
			same := func(label string, got, want *Report) {
				t.Helper()
				if got.Compliant != want.Compliant || got.Reason != want.Reason {
					t.Fatalf("%s: verdict (%v, %q), sequential (%v, %q)",
						label, got.Compliant, got.Reason, want.Compliant, want.Reason)
				}
				if !reflect.DeepEqual(got.Violation, want.Violation) {
					t.Fatalf("%s: violation %+v, sequential %+v", label, got.Violation, want.Violation)
				}
				if got.NumInsts != want.NumInsts || got.Entry != want.Entry || got.HeapBytes != want.HeapBytes {
					t.Fatalf("%s: (insts=%d entry=%#x heap=%d), sequential (%d, %#x, %d)",
						label, got.NumInsts, got.Entry, got.HeapBytes,
						want.NumInsts, want.Entry, want.HeapBytes)
				}
				if got.CachedFunctions != want.CachedFunctions {
					t.Fatalf("%s: %d cached functions, sequential %d", label, got.CachedFunctions, want.CachedFunctions)
				}
				if !reflect.DeepEqual(got.Phases, want.Phases) {
					t.Fatalf("%s: phase cycle totals diverge:\n  stream: %v\n  seq:    %v",
						label, got.Phases, want.Phases)
				}
			}

			want := provisionOver(t, false, image, tc.makePols(t), 64*1024, nil)
			for _, bs := range []int{517, 4 * 1024, 64 * 1024, 1 + rng.Intn(32*1024)} {
				got := provisionOver(t, true, image, tc.makePols(t), bs, nil)
				same(fmt.Sprintf("block %d", bs), got, want)
			}

			// A function-result cache warmed identically on both sides must
			// leave the streamed outcome and charges equal to the sequential
			// ones.
			warm := func() *memo.Cache {
				c, err := memo.Open(memo.Config{Entries: 1 << 12})
				if err != nil {
					t.Fatal(err)
				}
				provisionWarm(t, image, tc.makePols(t), c)
				return c
			}
			cacheA, cacheB := warm(), warm()
			defer cacheA.Close()
			defer cacheB.Close()
			want = provisionOver(t, false, image, tc.makePols(t), 64*1024, cacheA)
			bs := 1 + rng.Intn(16*1024)
			got := provisionOver(t, true, image, tc.makePols(t), bs, cacheB)
			same(fmt.Sprintf("warm, block %d", bs), got, want)
			if tc.name == "compliant-full-set" && got.CachedFunctions == 0 {
				t.Fatal("warm streamed run reused no function outcomes")
			}
		})
	}
}

// TestRecvImageStreamingRequiresSession: content before the key exchange
// is rejected.
func TestRecvImageStreamingRequiresSession(t *testing.T) {
	g, err := New(testConfig(policy.NewSet(stackprot.New())))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := g.RecvImageStreaming(nil); err != ErrNoSession {
		t.Fatalf("error = %v, want ErrNoSession", err)
	}
}

// TestProvisionStagedPrecheckedGuards: a staged image provisioned on the
// prechecked path demands a compliant prior, and a refused call leaves the
// enclave unprovisioned, so a full check still runs to its own verdict.
func TestProvisionStagedPrecheckedGuards(t *testing.T) {
	g, _ := newEnGarde(t, testConfig(policy.NewSet(stackprot.New())))
	st := &StagedImage{Image: buildClient(t, clientCfg())}
	if _, err := g.ProvisionPrechecked(st, nil); err == nil {
		t.Error("nil prior accepted")
	}
	if _, err := g.ProvisionPrechecked(st, &Report{Compliant: false}); err == nil {
		t.Error("non-compliant prior accepted")
	}
	rep, err := g.ProvisionStaged(st)
	if err != nil {
		t.Fatalf("full provisioning after refused prechecks: %v", err)
	}
	if rep.Compliant {
		t.Error("image without stack protector passed the full check")
	}
}

// FuzzStreamingFrameSchedule drives the streaming receive through
// adversarial frame schedules and connection faults: arbitrary block sizes
// and seeded chaos (partial reads, bit flips, injected errors, truncations)
// on the server side of the pipe. The property is the availability/
// integrity split: the session may fail, but if it produces a verdict, that
// verdict is byte-for-byte the sequential one.
func FuzzStreamingFrameSchedule(f *testing.F) {
	bin, err := toolchain.Build(toolchain.Config{
		Name: "fuzz-stream", Seed: 99,
		NumFuncs: 10, AvgFuncInsts: 80,
		StackProtector: true,
	})
	if err != nil {
		f.Fatal(err)
	}
	compliant := bin.Image
	bad, err := toolchain.Build(toolchain.Config{
		Name: "fuzz-stream-bad", Seed: 100,
		NumFuncs: 10, AvgFuncInsts: 80,
	})
	if err != nil {
		f.Fatal(err)
	}
	violating := bad.Image
	images := [2][]byte{compliant, violating}

	// The sequential baselines each fuzz execution is judged against.
	var baseline [2]*Report
	for i, image := range images {
		g, err := New(testConfig(policy.NewSet(stackprot.New())))
		if err != nil {
			f.Fatal(err)
		}
		pub, err := g.PublicKeyDER()
		if err != nil {
			f.Fatal(err)
		}
		_, wrapped, err := secchan.WrapSessionKey(pub, nil)
		if err != nil {
			f.Fatal(err)
		}
		if err := g.AcceptSessionKey(wrapped); err != nil {
			f.Fatal(err)
		}
		rep, err := g.Provision(image)
		if err != nil {
			f.Fatal(err)
		}
		baseline[i] = rep
	}

	f.Add(int64(1), uint16(512), false, uint8(0))
	f.Add(int64(2), uint16(17), true, uint8(40))
	f.Add(int64(3), uint16(8192), false, uint8(200))
	f.Fuzz(func(t *testing.T, seed int64, block uint16, useViolating bool, chaos uint8) {
		idx := 0
		if useViolating {
			idx = 1
		}
		image, want := images[idx], baseline[idx]

		g, client := newEnGarde(t, testConfig(policy.NewSet(stackprot.New())))

		cli, srvRaw := net.Pipe()
		// Fault probabilities scale with the chaos byte; bit flips and
		// truncations are availability faults here — GCM authentication
		// turns corruption into a clean receive error.
		p := float64(chaos) / 255 * 0.3
		srv := faults.WrapConn(srvRaw, faults.Schedule{
			Seed:        seed,
			PartialProb: p,
			BitFlipProb: p / 4,
			ErrorProb:   p / 8,
			LatencyProb: p,
		})
		defer srv.Close()

		var wg sync.WaitGroup
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer cli.Close()
			_ = client.SendStream(cli, image, int(block)+1)
		}()

		st, err := g.RecvImageStreaming(srv)
		if err == nil {
			var rep *Report
			rep, err = g.ProvisionStaged(st)
			if err == nil {
				if rep.Compliant != want.Compliant || rep.Reason != want.Reason ||
					!reflect.DeepEqual(rep.Violation, want.Violation) || rep.NumInsts != want.NumInsts {
					t.Fatalf("chaotic streamed verdict (%v, %q, %d insts) != sequential (%v, %q, %d insts)",
						rep.Compliant, rep.Reason, rep.NumInsts, want.Compliant, want.Reason, want.NumInsts)
				}
			}
		}
		// err != nil is acceptable: chaos may cost availability, never
		// verdict integrity.
		srv.Close()
		wg.Wait()
	})
}
