package core

import (
	"encoding/hex"
	"testing"

	"engarde/internal/cycles"
	"engarde/internal/sgx"
)

// Pinned outputs of the measured build. MRENCLAVE is what every client
// demands in the quote, so a build optimisation that moves a single byte
// of it breaks attestation against every deployed client; the SGX
// instruction count is what core.create_cycles prices. Neither may move
// unless the bootstrap itself changes.
var measurementPins = []struct {
	name        string
	cfg         Config
	mrenclave   string
	sgxInstrs   uint64
	createTotal uint64 // all cycles NewOnDevice charges, X25519 keygen included
}{
	{
		name:        "gatewayd-default-v2",
		cfg:         Config{Version: sgx.V2, HeapPages: 5000, ClientPages: 1024},
		mrenclave:   "c5df09dafb19693b3566e0f7b3f1bbec298c9ed9011f6d0f44499d22c6670997",
		sgxInstrs:   102683,
		createTotal: 1027030000,
	},
	{
		name:        "gatewayd-default-v1",
		cfg:         Config{Version: sgx.V1, HeapPages: 5000, ClientPages: 1024},
		mrenclave:   "c5df09dafb19693b3566e0f7b3f1bbec298c9ed9011f6d0f44499d22c6670997",
		sgxInstrs:   102683,
		createTotal: 1027030000,
	},
	{
		name:        "small-v2",
		cfg:         Config{Version: sgx.V2, HeapPages: 1500, ClientPages: 512},
		mrenclave:   "38ebd2d1aed65f31c0fb79114599a3a4c4d058b9ddb7ba942138c903be349779",
		sgxInstrs:   34479,
		createTotal: 344990000,
	},
}

func TestPinnedMeasurement(t *testing.T) {
	for _, pin := range measurementPins {
		t.Run(pin.name, func(t *testing.T) {
			cfg := pin.cfg
			// MRENCLAVE and the instruction count do not depend on the EPC
			// size, so the device holds just the enclave.
			cfg.EPCPages = bootPages + cfg.HeapPages + cfg.ClientPages
			exp, err := ExpectedMeasurement(cfg)
			if err != nil {
				t.Fatal(err)
			}
			if hex.EncodeToString(exp[:]) != pin.mrenclave {
				t.Errorf("ExpectedMeasurement = %x, want %s", exp, pin.mrenclave)
			}

			cfg.Counter = cycles.NewCounter(cycles.DefaultModel())
			g, err := New(cfg)
			if err != nil {
				t.Fatal(err)
			}
			if m := g.Measurement(); hex.EncodeToString(m[:]) != pin.mrenclave {
				t.Errorf("built enclave MRENCLAVE = %x, want %s", m, pin.mrenclave)
			}
			if got := cfg.Counter.Units(cycles.PhaseProvision, cycles.UnitSGXInstr); got != pin.sgxInstrs {
				t.Errorf("NewOnDevice charged %d SGX instructions, want %d", got, pin.sgxInstrs)
			}
			if got := cfg.Counter.Total(); got != pin.createTotal {
				t.Errorf("NewOnDevice charged %d cycles, want %d", got, pin.createTotal)
			}
		})
	}
}

// TestCloneChargeMatchesModel pins the clone path's cycle model at the
// same configurations: the template costs the measured build plus one
// SGX instruction per captured page, and each clone charges exactly
// CloneCycleCost — one SGX instruction per page plus the SECS, EENTER and
// one key agreement — however lazily the device restores zero pages.
func TestCloneChargeMatchesModel(t *testing.T) {
	for _, pin := range measurementPins {
		t.Run(pin.name, func(t *testing.T) {
			cfg := pin.cfg
			pages := bootPages + cfg.HeapPages + cfg.ClientPages
			cfg.Counter = cycles.NewCounter(cycles.DefaultModel())
			dev, err := sgx.NewDevice(sgx.Config{EPCPages: pages, Version: cfg.Version, Counter: cfg.Counter})
			if err != nil {
				t.Fatal(err)
			}
			s, err := NewSnapshotter(cfg, dev)
			if err != nil {
				t.Fatal(err)
			}
			sgxCycles := cfg.Counter.Model()[cycles.UnitSGXInstr]
			if got, want := s.BuildCycles(), pin.createTotal+uint64(pages)*sgxCycles; got != want {
				t.Errorf("template charged %d cycles, want %d", got, want)
			}
			instrs := cfg.Counter.Units(cycles.PhaseProvision, cycles.UnitSGXInstr)
			total := cfg.Counter.Total()
			g, err := s.Clone(nil)
			if err != nil {
				t.Fatal(err)
			}
			defer g.Destroy()
			if got := cfg.Counter.Units(cycles.PhaseProvision, cycles.UnitSGXInstr) - instrs; got != uint64(pages+2) {
				t.Errorf("clone charged %d SGX instructions, want %d", got, pages+2)
			}
			if got := cfg.Counter.Total() - total; got != s.CloneCycleCost() {
				t.Errorf("clone charged %d cycles, CloneCycleCost prices %d", got, s.CloneCycleCost())
			}
			if m := g.Measurement(); hex.EncodeToString(m[:]) != pin.mrenclave {
				t.Errorf("clone MRENCLAVE = %x, want %s", m, pin.mrenclave)
			}
		})
	}
}
