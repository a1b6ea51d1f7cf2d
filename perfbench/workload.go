package main

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math"
	"math/rand"
	"strings"
	"sync"

	"engarde"
	"engarde/internal/toolchain"
)

// Image kinds. Every non-compliant kind plants exactly one violation, so
// its expected verdict is known when the image is generated.
const (
	kindCompliant = "compliant"
	kindSyscall   = "syscall"    // toolchain.Config.EmitSyscall
	kindNoCanary  = "no-canary"  // StackProtector off
	kindMixed     = "mixed-data" // toolchain.Config.MixedCodeData
)

// violationKinds rotate through cold-mixed's non-compliant slots.
var violationKinds = []string{kindSyscall, kindNoCanary, kindMixed}

// oracle is an image's expected verdict, fixed at generation: the
// compliant bit, the wire reason code, and the policy module the reason
// must name (empty when the rejection is structural, not a module's).
type oracle struct {
	Compliant bool               `json:"compliant"`
	Code      engarde.ReasonCode `json:"code,omitempty"`
	Module    string             `json:"module,omitempty"`
}

// oracles maps each kind to its expected verdict under cold-mixed's
// policy set, which reports the first failing module in set order
// (musl-sp, stack-protector, ifcc, no-forbidden). No canaries breaks the
// stack-protected musl build, so library linking reports it; the planted
// SYSCALL sits in a raw_syscall helper the toolchain emits without a
// canary, so stack-protector reports it before no-forbidden runs; data
// bytes inside .text fail disassembly before any module runs.
var oracles = map[string]oracle{
	kindCompliant: {Compliant: true},
	kindSyscall:   {Code: engarde.CodePolicy, Module: "stack-protector"},
	kindNoCanary:  {Code: engarde.CodePolicy, Module: "liblink("},
	kindMixed:     {Code: engarde.CodeRejected, Module: ""},
}

// matches reports whether a received verdict is the one the oracle fixed.
func (o oracle) matches(v engarde.Verdict) bool {
	if v.Compliant != o.Compliant || v.Code != o.Code {
		return false
	}
	return o.Module == "" || strings.Contains(v.Reason, o.Module)
}

// input is one generated session: the image the daemons receive plus what
// the benchmark knows about it.
type input struct {
	Index  int
	Seed   int64 // toolchain seed; reprints the exact image
	Kind   string
	Image  []byte
	Digest string
	Insts  int
	Oracle oracle
}

// workload is one traffic mix against one serving topology. Every
// workload is a closed loop: each client starts its next session when
// its verdict arrives.
type workload struct {
	Name string
	// Backends is the number of gatewayds; with Router they sit behind
	// one engarde-router and sessions announce their digest.
	Backends int
	Router   bool
	// Policies is the policy list the gatewayds run; a list other than
	// gatewayd's default is passed as -policies, the only non-deployment
	// flag any workload sets.
	Policies string
	// Clients is the number of connections in flight (at most nproc).
	Clients int
	// Warmup sessions run before the window on their own images.
	Warmup int
	// SetupRuns is how many times a run boots the topology; setup_s is
	// the median.
	SetupRuns int
	// Replay is how many of the workload's sessions the traced run
	// replays in-process, layer by layer.
	Replay int
	// MaxRate is the session rate, per second, the inputs built before
	// the window cover: about three times the rate measured when the
	// benchmark was written. A faster program ends the window early,
	// when they run out, instead of building images inside it.
	MaxRate float64

	// images builds inputs [lo, hi) of the seed's sequence.
	images func(seed int64, lo, hi int) ([]*input, error)
}

// defaultPolicies is gatewayd's -policies default.
const defaultPolicies = "stack-protector"

var workloads = map[string]*workload{
	// Every session misses the verdict cache: enclave build with keygen,
	// disassembly and four policy modules run each time, the fn-memo reads
	// the shared musl and writes app functions, and one image in five is
	// rejected on an early-exit path.
	"cold-mixed": {
		Name: "cold-mixed", Backends: 1,
		Policies: "musl-sp,stack-protector,ifcc,no-forbidden",
		Clients:  2, Warmup: 2, SetupRuns: 14, Replay: 5, MaxRate: 9,
		images: coldMixedImages,
	},
	// Digest-affine repeats behind the router: the ring owner answers
	// from its verdict cache, so router peek, dial and splice, enclave
	// build, attestation and transfer carry the session, not decode or
	// policy. The gatewayds run no enclave pool: on two CPUs a warm
	// session races its own background refill, and the medians jumped
	// between the two outcomes from run to run (see README.md).
	"fleet-repeat": {
		Name: "fleet-repeat", Backends: 2, Router: true,
		Policies: defaultPolicies,
		Clients:  2, Warmup: 1, SetupRuns: 14, Replay: 3, MaxRate: 12,
		images: fleetImages,
	},
}

// fleetDistinct is the size of fleet-repeat's image population.
const fleetDistinct = 10

// subSeed derives the toolchain seed of one image from the workload seed.
func subSeed(seed int64, tag, i int) int64 {
	return seed*1_000_003 + int64(tag)*10_007 + int64(i)
}

func build(cfg toolchain.Config, in *input) error {
	bin, err := toolchain.Build(cfg)
	if err != nil {
		return fmt.Errorf("building %s image %d: %w", in.Kind, in.Index, err)
	}
	in.Image = bin.Image
	in.Insts = bin.NumInsts
	sum := sha256.Sum256(bin.Image)
	in.Digest = hex.EncodeToString(sum[:])
	in.Oracle = oracles[in.Kind]
	return nil
}

// buildAll builds inputs on two goroutines.
func buildAll(ins []*input, cfg func(in *input) toolchain.Config) error {
	var wg sync.WaitGroup
	errs := make([]error, 2)
	for w := range errs {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := w; i < len(ins); i += len(errs) {
				if err := build(cfg(ins[i]), ins[i]); err != nil {
					errs[w] = err
					return
				}
			}
		}(w)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// coldMixedImages: BENCH_6-shape images (~94k instructions: 300 app
// functions of ~250 instructions over the stack-protected approved musl,
// IFCC-instrumented), all byte-distinct. Within every block of five, one
// seeded slot is non-compliant, its kind rotating through violationKinds,
// so exactly one image in five is rejected whatever the seed.
func coldMixedImages(seed int64, lo, hi int) ([]*input, error) {
	ins := make([]*input, 0, hi-lo)
	for i := lo; i < hi; i++ {
		block := i / 5
		slot := 5*block + rand.New(rand.NewSource(subSeed(seed, 4, block))).Intn(5)
		in := &input{Index: i, Seed: subSeed(seed, 1, i), Kind: kindCompliant}
		if i == slot {
			in.Kind = violationKinds[block%len(violationKinds)]
		}
		ins = append(ins, in)
	}
	err := buildAll(ins, func(in *input) toolchain.Config {
		return toolchain.Config{
			Name: fmt.Sprintf("cm%d", in.Index), Seed: in.Seed,
			NumFuncs: 300, AvgFuncInsts: 250,
			LibcCallRate: 0.05, IFCC: true, IndirectRate: 0.02,
			StackProtector: in.Kind != kindNoCanary,
			EmitSyscall:    in.Kind == kindSyscall,
			MixedCodeData:  in.Kind == kindMixed,
		}
	})
	return ins, err
}

// fleetImages: sessions drawn from a seeded population of fleetDistinct
// ~12k-instruction stack-protected images. Session i picks an image
// Zipf-like (weight 1/(r+1)^1.1 for the r-th image) from a generator
// seeded by i, so most sessions repeat a digest and any range of the
// sequence is the same whatever else was built.
func fleetImages(seed int64, lo, hi int) ([]*input, error) {
	pop := make([]*input, fleetDistinct)
	for r := range pop {
		pop[r] = &input{Index: r, Seed: subSeed(seed, 2, r), Kind: kindCompliant}
	}
	err := buildAll(pop, func(in *input) toolchain.Config {
		return toolchain.Config{
			Name: fmt.Sprintf("fr%d", in.Index), Seed: in.Seed,
			NumFuncs: 32, AvgFuncInsts: 160, StackProtector: true,
		}
	})
	if err != nil {
		return nil, err
	}
	weights := make([]float64, len(pop))
	total := 0.0
	for r := range weights {
		weights[r] = 1 / math.Pow(float64(r+1), 1.1)
		total += weights[r]
	}
	ins := make([]*input, 0, hi-lo)
	for i := lo; i < hi; i++ {
		x := rand.New(rand.NewSource(subSeed(seed, 5, i))).Float64() * total
		r := 0
		for r < len(pop)-1 && x >= weights[r] {
			x -= weights[r]
			r++
		}
		in := *pop[r]
		in.Index = i
		ins = append(ins, &in)
	}
	return ins, nil
}

// inputProps are a workload's measured input properties.
type inputProps struct {
	Sessions       int            `json:"sessions"`
	InstsPerImage  float64        `json:"insts_per_image"`
	BytesPerImage  float64        `json:"bytes_per_session"`
	NonCompliant   map[string]int `json:"non_compliant_by_kind"`
	NonCompliantSh float64        `json:"non_compliant_share"`
	DistinctImages int            `json:"distinct_digests"`
	RepeatShare    float64        `json:"digest_repeat_share"`
}

// measureInputs summarizes the inputs actually sent.
func measureInputs(ins []*input) inputProps {
	p := inputProps{Sessions: len(ins), NonCompliant: map[string]int{}}
	if len(ins) == 0 {
		return p
	}
	seen := map[string]bool{}
	bad := 0
	for _, in := range ins {
		p.InstsPerImage += float64(in.Insts)
		p.BytesPerImage += float64(len(in.Image))
		if in.Kind != kindCompliant {
			p.NonCompliant[in.Kind]++
			bad++
		}
		seen[in.Digest] = true
	}
	n := float64(len(ins))
	p.InstsPerImage /= n
	p.BytesPerImage /= n
	p.NonCompliantSh = float64(bad) / n
	p.DistinctImages = len(seen)
	p.RepeatShare = 1 - float64(len(seen))/n
	return p
}
