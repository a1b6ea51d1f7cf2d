// Package faults is the deterministic fault-injection layer behind the
// gateway's resilience tests: seeded wrappers that make a connection or a
// process misbehave in all the ways production infrastructure does —
// latency spikes, partial reads and writes, truncated streams, bit-flips
// and stalls — at configurable probabilities or scripted trigger points.
//
// Everything is driven by a Schedule: the same seed replays the same fault
// sequence (given the same operation order), so a failure found by the
// chaos soak or the fuzzer is reproducible from its schedule alone.
//
// The wrappers never violate interface contracts — a partial read is a
// legal short read, a truncation is a real close — so anything they break
// in the system under test is a real bug, not an artifact.
package faults

import (
	"errors"
	"log/slog"
	"math/rand"
	"sync"
	"time"
)

// ErrInjected is the error returned by operations failed on purpose.
var ErrInjected = errors.New("faults: injected fault")

// Op identifies the operation class an event applies to.
type Op int

const (
	OpRead Op = iota
	OpWrite
)

// String names the operation class for logs and failure reports.
func (o Op) String() string {
	if o == OpRead {
		return "read"
	}
	return "write"
}

// Action is one kind of injected fault.
type Action int

const (
	// ActNone leaves the operation untouched.
	ActNone Action = iota
	// ActLatency sleeps Schedule.Latency before the operation.
	ActLatency
	// ActPartial serves at most one byte of the operation (a legal short
	// read/write that forces the peer to loop).
	ActPartial
	// ActBitFlip flips one bit of the transferred data.
	ActBitFlip
	// ActStall sleeps Schedule.Stall before the operation — long enough to
	// trip idle deadlines.
	ActStall
	// ActTruncate closes the underlying resource mid-stream.
	ActTruncate
	// ActError fails the operation with ErrInjected.
	ActError
)

// String names an action for logs and failure reports.
func (a Action) String() string {
	switch a {
	case ActNone:
		return "none"
	case ActLatency:
		return "latency"
	case ActPartial:
		return "partial"
	case ActBitFlip:
		return "bit-flip"
	case ActStall:
		return "stall"
	case ActTruncate:
		return "truncate"
	case ActError:
		return "error"
	}
	return "unknown"
}

// Trigger scripts one fault at an exact operation index, independent of
// the probabilistic rolls: "on the Nth read, truncate".
type Trigger struct {
	Op Op
	// N is the 0-based index among operations of that class.
	N int
	// Do is the fault to fire.
	Do Action
}

// Schedule configures a deterministic fault source. The zero value injects
// nothing. Probabilities are per-operation in [0,1] and are rolled in a
// fixed order (stall, error, truncate, partial, bit-flip, latency), so one
// operation suffers at most one fault; scripted Triggers take precedence
// over all rolls.
type Schedule struct {
	// Seed fixes the random stream. Schedules differing only in Seed
	// produce different but individually reproducible fault sequences.
	Seed int64

	LatencyProb float64
	// Latency is the ActLatency sleep; 0 means 1ms.
	Latency time.Duration

	PartialProb float64
	BitFlipProb float64

	StallProb float64
	// Stall is the ActStall sleep; 0 means 50ms.
	Stall time.Duration

	TruncateProb float64
	ErrorProb    float64

	Triggers []Trigger

	// Logger, when set, records every injected fault (action, operation
	// class, operation index) — the same structured handler the serving
	// layer logs through, so a chaos run's faults interleave with the
	// sessions they hit.
	Logger *slog.Logger
	// TraceID, when set, tags this schedule's fault records with the
	// session trace the faulted stream belongs to.
	TraceID string
}

// injector is the shared decision engine: a seeded stream of fault
// decisions over a counted operation sequence. Safe for concurrent use;
// decisions are serialized, the faults themselves are applied outside the
// lock.
type injector struct {
	mu     sync.Mutex
	rng    *rand.Rand
	sched  Schedule
	counts [2]int // per-Op operation index
}

func newInjector(s Schedule) *injector {
	if s.Latency == 0 {
		s.Latency = time.Millisecond
	}
	if s.Stall == 0 {
		s.Stall = 50 * time.Millisecond
	}
	return &injector{rng: rand.New(rand.NewSource(s.Seed)), sched: s}
}

// decide picks the fault for the next operation of class op, logging any
// non-trivial decision outside the lock.
func (in *injector) decide(op Op) Action {
	in.mu.Lock()
	n := in.counts[op]
	in.counts[op]++
	act := in.pickLocked(op, n)
	in.mu.Unlock()
	if act != ActNone && in.sched.Logger != nil {
		in.sched.Logger.Warn("faults: injecting",
			"action", act.String(), "op", op.String(), "n", n,
			"trace", in.sched.TraceID)
	}
	return act
}

func (in *injector) pickLocked(op Op, n int) Action {
	for _, t := range in.sched.Triggers {
		if t.Op == op && t.N == n {
			return t.Do
		}
	}
	s := &in.sched
	for _, roll := range []struct {
		p  float64
		do Action
	}{
		{s.StallProb, ActStall},
		{s.ErrorProb, ActError},
		{s.TruncateProb, ActTruncate},
		{s.PartialProb, ActPartial},
		{s.BitFlipProb, ActBitFlip},
		{s.LatencyProb, ActLatency},
	} {
		if roll.p > 0 && in.rng.Float64() < roll.p {
			return roll.do
		}
	}
	return ActNone
}

// flipBit returns the index of the bit to flip in a buffer of n bytes.
func (in *injector) flipBit(n int) (byteIdx int, bit uint) {
	in.mu.Lock()
	defer in.mu.Unlock()
	return in.rng.Intn(n), uint(in.rng.Intn(8))
}
