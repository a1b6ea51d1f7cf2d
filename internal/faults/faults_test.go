package faults

import (
	"bytes"
	"errors"
	"io"
	"net"
	"os"
	"path/filepath"
	"testing"
	"time"
)

// TestInjectorDeterminism: the same schedule replays the same fault
// sequence; a different seed produces a different one.
func TestInjectorDeterminism(t *testing.T) {
	sched := Schedule{Seed: 42, StallProb: 0.1, ErrorProb: 0.1, PartialProb: 0.2, BitFlipProb: 0.1}
	run := func(s Schedule) []Action {
		in := newInjector(s)
		out := make([]Action, 500)
		for i := range out {
			out[i] = in.decide(OpRead)
		}
		return out
	}
	a, b := run(sched), run(sched)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("decision %d differs under the same seed: %v vs %v", i, a[i], b[i])
		}
	}
	other := sched
	other.Seed = 43
	c := run(other)
	same := true
	for i := range a {
		if a[i] != c[i] {
			same = false
			break
		}
	}
	if same {
		t.Fatal("500 decisions identical under different seeds")
	}
}

// TestTriggersFireExactly: scripted triggers hit the exact operation index
// regardless of probabilities.
func TestTriggersFireExactly(t *testing.T) {
	in := newInjector(Schedule{
		Triggers: []Trigger{
			{Op: OpRead, N: 2, Do: ActTruncate},
			{Op: OpWrite, N: 0, Do: ActError},
		},
	})
	want := []Action{ActNone, ActNone, ActTruncate, ActNone}
	for i, w := range want {
		if got := in.decide(OpRead); got != w {
			t.Fatalf("read %d: %v, want %v", i, got, w)
		}
	}
	if got := in.decide(OpWrite); got != ActError {
		t.Fatalf("write 0: %v, want %v", got, ActError)
	}
	if got := in.decide(OpWrite); got != ActNone {
		t.Fatalf("write 1: %v, want %v", got, ActNone)
	}
}

// pipePair builds a chaos-wrapped client over net.Pipe with an echo-free
// raw server end.
func pipePair(s Schedule) (*ChaosConn, net.Conn) {
	cli, srv := net.Pipe()
	return WrapConn(cli, s), srv
}

func TestChaosConnBitFlipCorruptsExactlyOneBit(t *testing.T) {
	chaos, srv := pipePair(Schedule{Seed: 7, Triggers: []Trigger{{Op: OpWrite, N: 0, Do: ActBitFlip}}})
	defer chaos.Close()
	defer srv.Close()

	payload := bytes.Repeat([]byte{0xA5}, 64)
	sent := append([]byte(nil), payload...)
	go func() {
		if _, err := chaos.Write(payload); err != nil {
			t.Errorf("chaos write: %v", err)
		}
	}()
	got := make([]byte, 64)
	if _, err := io.ReadFull(srv, got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(payload, sent) {
		t.Error("bit-flip mutated the caller's buffer")
	}
	diff := 0
	for i := range got {
		for b := 0; b < 8; b++ {
			if (got[i]^payload[i])&(1<<b) != 0 {
				diff++
			}
		}
	}
	if diff != 1 {
		t.Fatalf("received data differs in %d bits, want exactly 1", diff)
	}
	if n := chaos.Injected()[ActBitFlip]; n != 1 {
		t.Fatalf("Injected[bit-flip] = %d, want 1", n)
	}
}

// TestChaosReaderFlipsEveryRead: with BitFlipProb 1 every read of the
// wrapped stream carries exactly one flipped bit, wherever it lands.
func TestChaosReaderFlipsEveryRead(t *testing.T) {
	payload := bytes.Repeat([]byte{0x5A}, 300)
	r := WrapReader(io.NopCloser(bytes.NewReader(payload)), Schedule{Seed: 11, BitFlipProb: 1})
	reads := 0
	for off := 0; off < len(payload); reads++ {
		buf := make([]byte, 64)
		n, err := r.Read(buf)
		if err != nil {
			t.Fatal(err)
		}
		diff := 0
		for i := 0; i < n; i++ {
			for b := 0; b < 8; b++ {
				if (buf[i]^payload[off+i])&(1<<b) != 0 {
					diff++
				}
			}
		}
		if diff != 1 {
			t.Fatalf("read %d differs in %d bits, want exactly 1", reads, diff)
		}
		off += n
	}
	if n := r.Injected()[ActBitFlip]; n != uint64(reads) {
		t.Fatalf("Injected[bit-flip] = %d, want %d", n, reads)
	}
}

func TestChaosConnTruncateClosesUnderlying(t *testing.T) {
	chaos, srv := pipePair(Schedule{Triggers: []Trigger{{Op: OpRead, N: 0, Do: ActTruncate}}})
	defer srv.Close()
	if _, err := chaos.Read(make([]byte, 8)); !errors.Is(err, io.ErrUnexpectedEOF) {
		t.Fatalf("truncated read error = %v, want ErrUnexpectedEOF", err)
	}
	// The wrapped conn is genuinely closed: the peer sees EOF.
	if _, err := srv.Read(make([]byte, 1)); err == nil {
		t.Fatal("peer read succeeded after truncation")
	}
}

func TestChaosConnPartialRead(t *testing.T) {
	chaos, srv := pipePair(Schedule{Triggers: []Trigger{{Op: OpRead, N: 0, Do: ActPartial}}})
	defer chaos.Close()
	defer srv.Close()
	go srv.Write([]byte("abcdef"))
	buf := make([]byte, 6)
	n, err := chaos.Read(buf)
	if err != nil || n != 1 || buf[0] != 'a' {
		t.Fatalf("partial read = %d, %v (%q), want 1 byte", n, err, buf[:n])
	}
}

func TestChaosConnInjectedError(t *testing.T) {
	chaos, srv := pipePair(Schedule{Triggers: []Trigger{{Op: OpWrite, N: 0, Do: ActError}}})
	defer chaos.Close()
	defer srv.Close()
	if _, err := chaos.Write([]byte("x")); !errors.Is(err, ErrInjected) {
		t.Fatalf("injected write error = %v, want ErrInjected", err)
	}
}

func TestChaosConnStallDelays(t *testing.T) {
	chaos, srv := pipePair(Schedule{
		Stall:    30 * time.Millisecond,
		Triggers: []Trigger{{Op: OpRead, N: 0, Do: ActStall}},
	})
	defer chaos.Close()
	defer srv.Close()
	go srv.Write([]byte("y"))
	start := time.Now()
	if _, err := chaos.Read(make([]byte, 1)); err != nil {
		t.Fatal(err)
	}
	if d := time.Since(start); d < 25*time.Millisecond {
		t.Fatalf("stalled read returned after %v, want >= ~30ms", d)
	}
}

func TestChaosFSScriptedFailures(t *testing.T) {
	fs := WrapFS(nil, Schedule{})
	path := filepath.Join(t.TempDir(), "f")

	fs.FailNextOpens(1)
	if _, err := fs.OpenFile(path, os.O_RDWR|os.O_CREATE, 0o644); !errors.Is(err, ErrInjected) {
		t.Fatalf("open error = %v, want ErrInjected", err)
	}
	f, err := fs.OpenFile(path, os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()

	fs.FailNextWrites(2)
	for i := 0; i < 2; i++ {
		if _, err := f.Write([]byte("x")); !errors.Is(err, ErrInjected) {
			t.Fatalf("write %d error = %v, want ErrInjected", i, err)
		}
	}
	if _, err := f.Write([]byte("x")); err != nil {
		t.Fatalf("write after faults drained: %v", err)
	}

	fs.FailNextRenames(1)
	if err := fs.Rename(path, path+"2"); !errors.Is(err, ErrInjected) {
		t.Fatalf("rename error = %v, want ErrInjected", err)
	}
	if err := fs.Rename(path, path+"2"); err != nil {
		t.Fatalf("rename after faults drained: %v", err)
	}
	if got := fs.Faults.Load(); got != 4 {
		t.Fatalf("Faults = %d, want 4", got)
	}
}
