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
	createTotal uint64 // all cycles NewOnDevice charges, RSA keygen included
}{
	{
		name:        "gatewayd-default-v2",
		cfg:         Config{Version: sgx.V2, HeapPages: 5000, ClientPages: 1024},
		mrenclave:   "c5df09dafb19693b3566e0f7b3f1bbec298c9ed9011f6d0f44499d22c6670997",
		sgxInstrs:   102683,
		createTotal: 1028830000,
	},
	{
		name:        "gatewayd-default-v1",
		cfg:         Config{Version: sgx.V1, HeapPages: 5000, ClientPages: 1024},
		mrenclave:   "c5df09dafb19693b3566e0f7b3f1bbec298c9ed9011f6d0f44499d22c6670997",
		sgxInstrs:   102683,
		createTotal: 1028830000,
	},
	{
		name:        "small-v2",
		cfg:         Config{Version: sgx.V2, HeapPages: 1500, ClientPages: 512},
		mrenclave:   "38ebd2d1aed65f31c0fb79114599a3a4c4d058b9ddb7ba942138c903be349779",
		sgxInstrs:   34479,
		createTotal: 346790000,
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
