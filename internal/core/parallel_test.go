package core

import (
	"reflect"
	"sync"
	"testing"

	"engarde/internal/policy"
	"engarde/internal/policy/ifcc"
	"engarde/internal/policy/liblink"
	"engarde/internal/policy/noforbidden"
	"engarde/internal/policy/stackprot"
	"engarde/internal/toolchain"
)

// diffCase pairs a client binary with a policy set; makePols builds a fresh
// Set, so tests that share one Set across sessions do so on purpose.
type diffCase struct {
	name     string
	image    func(t *testing.T) []byte
	makePols func(t *testing.T) *policy.Set
}

func diffCases() []diffCase {
	protected := func(t *testing.T) []byte {
		cfg := toolchain.Config{
			Name: "par-prot", Seed: 71,
			NumFuncs: 14, AvgFuncInsts: 90,
			LibcCallRate: 0.05, NumDataRelocs: 6,
			StackProtector: true, IFCC: true, IndirectRate: 0.02,
		}
		return buildClient(t, cfg)
	}
	plain := func(t *testing.T) []byte {
		cfg := toolchain.Config{
			Name: "par-plain", Seed: 72,
			NumFuncs: 14, AvgFuncInsts: 90,
			LibcCallRate: 0.05, NumDataRelocs: 6,
		}
		return buildClient(t, cfg)
	}
	syscalls := func(t *testing.T) []byte {
		cfg := toolchain.Config{
			Name: "par-sys", Seed: 73,
			NumFuncs: 14, AvgFuncInsts: 90,
			LibcCallRate: 0.05, EmitSyscall: true,
		}
		return buildClient(t, cfg)
	}
	// fullSet checks the approved musl build with or without canaries,
	// matching how the client was compiled.
	fullSet := func(t *testing.T, stackProtector bool) *policy.Set {
		t.Helper()
		db, err := toolchain.MuslHashDB(toolchain.MuslV105, stackProtector)
		if err != nil {
			t.Fatal(err)
		}
		return policy.NewSet(noforbidden.New(), liblink.New("musl-1.0.5", db),
			stackprot.New(), ifcc.New())
	}
	return []diffCase{
		{ // every module passes: the full compliant pipeline
			name:  "compliant-full-set",
			image: protected,
			makePols: func(t *testing.T) *policy.Set {
				return fullSet(t, true)
			},
		},
		{ // unprotected client under stackprot: a function-granular violation
			name:  "stackprot-violation",
			image: plain,
			makePols: func(t *testing.T) *policy.Set {
				return policy.NewSet(stackprot.New())
			},
		},
		{ // forbidden instruction: a per-instruction violation mid-scan
			name:  "noforbidden-violation",
			image: syscalls,
			makePols: func(t *testing.T) *policy.Set {
				return policy.NewSet(noforbidden.New())
			},
		},
		{ // violation before later modules of the set run
			name:  "violation-in-full-set",
			image: syscalls,
			makePols: func(t *testing.T) *policy.Set {
				return fullSet(t, false)
			},
		},
	}
}

// provisionWith provisions image on a fresh enclave and returns the report.
func provisionWith(t *testing.T, image []byte, pols *policy.Set) *Report {
	t.Helper()
	g, _ := newEnGarde(t, testConfig(pols))
	rep, err := g.Provision(image)
	if err != nil {
		t.Fatalf("Provision: %v", err)
	}
	return rep
}

// TestParallelProvisionMatchesSequential pins where a server's parallelism
// comes from: sessions side by side, each running one sequential pipeline.
// Several enclaves provision the same image at once, sharing one policy set
// as a gateway's sessions do, and every outcome — verdict, violation
// (module, address, reason), instruction count, and every per-phase cycle
// total — must equal a lone run's.
func TestParallelProvisionMatchesSequential(t *testing.T) {
	const sessions = 4
	for _, tc := range diffCases() {
		t.Run(tc.name, func(t *testing.T) {
			image := tc.image(t)
			want := provisionWith(t, image, tc.makePols(t))

			pols := tc.makePols(t)
			encls := make([]*EnGarde, sessions)
			for i := range encls {
				encls[i], _ = newEnGarde(t, testConfig(pols))
			}
			reps := make([]*Report, sessions)
			errs := make([]error, sessions)
			var wg sync.WaitGroup
			for i := range encls {
				wg.Add(1)
				go func(i int) {
					defer wg.Done()
					reps[i], errs[i] = encls[i].Provision(image)
				}(i)
			}
			wg.Wait()

			for i, got := range reps {
				if errs[i] != nil {
					t.Fatalf("session %d: Provision: %v", i, errs[i])
				}
				if got.Compliant != want.Compliant || got.Reason != want.Reason {
					t.Fatalf("session %d: verdict (%v, %q), alone (%v, %q)",
						i, got.Compliant, got.Reason, want.Compliant, want.Reason)
				}
				if !reflect.DeepEqual(got.Violation, want.Violation) {
					t.Fatalf("session %d: violation %+v, alone %+v", i, got.Violation, want.Violation)
				}
				if got.NumInsts != want.NumInsts {
					t.Fatalf("session %d: %d instructions, alone %d", i, got.NumInsts, want.NumInsts)
				}
				if !reflect.DeepEqual(got.Phases, want.Phases) {
					t.Fatalf("session %d: phase cycle totals diverge:\n  side by side: %v\n  alone:        %v",
						i, got.Phases, want.Phases)
				}
			}
		})
	}
}
