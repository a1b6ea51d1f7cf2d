package core

import (
	"fmt"

	"engarde/internal/cycles"
	"engarde/internal/hostos"
	"engarde/internal/obs"
	"engarde/internal/secchan"
	"engarde/internal/sgx"
)

// Snapshotter amortizes enclave creation. It builds one template EnGarde
// enclave the measured way (ECREATE + EADD/EEXTEND + EINIT), captures a
// post-EINIT device snapshot, and then mints provisioning-ready instances
// by cloning the snapshot — page restore at memcpy speed instead of
// replaying the measured build. Every clone carries the template's
// MRENCLAVE (so client attestation is unchanged) but a fresh enclave
// identity and a fresh ephemeral X25519 key (so sessions stay per-instance).
//
// Used enclaves can be recycled: the device scrubs every page back to the
// snapshot image — provably erasing any client residue — and the enclave
// re-enters service with new host-OS state and a new key.
type Snapshotter struct {
	cfg    Config // defaults applied; Trace stripped (per-clone traces attach at Clone)
	dev    *sgx.Device
	snap   *sgx.Snapshot
	layout Layout
	meas   sgx.Measurement

	buildCycles uint64
}

// NewSnapshotter builds the template enclave on dev, snapshots it, and
// destroys the template. The one-time build cost (the full measured build
// plus the template's keygen) is charged to cfg.Counter's provisioning
// phase and reported via BuildCycles; it is the amortized capital cost of
// every clone, deliberately outside any session's trace.
func NewSnapshotter(cfg Config, dev *sgx.Device) (*Snapshotter, error) {
	cfg.applyDefaults()
	base := cfg
	base.Trace = nil
	pre := base.Counter.Total()
	tmpl, err := NewOnDevice(base, dev)
	if err != nil {
		return nil, fmt.Errorf("core: snapshot template build: %w", err)
	}
	snap, err := dev.SnapshotEnclave(tmpl.encl)
	if err != nil {
		tmpl.Destroy()
		return nil, fmt.Errorf("core: snapshotting template: %w", err)
	}
	s := &Snapshotter{
		cfg:    base,
		dev:    dev,
		snap:   snap,
		layout: tmpl.layout,
		meas:   tmpl.encl.Measurement(),
	}
	tmpl.Destroy()
	s.buildCycles = base.Counter.Total() - pre
	return s, nil
}

// Measurement returns the MRENCLAVE every clone carries — identical to
// what ExpectedMeasurement computes for the same configuration.
func (s *Snapshotter) Measurement() sgx.Measurement { return s.meas }

// BuildCycles returns the one-time cycle cost of building and capturing
// the template (amortized across all clones).
func (s *Snapshotter) BuildCycles() uint64 { return s.buildCycles }

// SnapshotPages returns the number of pages restored per clone.
func (s *Snapshotter) SnapshotPages() int { return s.snap.Pages() }

// CloneCycleCost returns the deterministic cycle-model cost of minting one
// clone: the per-page restore plus SECS setup plus the fresh X25519 keygen.
// Scrub-based recycling costs the same (page restore + keygen) minus the
// SECS instruction.
func (s *Snapshotter) CloneCycleCost() uint64 {
	model := s.cfg.Counter.Model()
	return uint64(s.snap.Pages()+2)*model[cycles.UnitSGXInstr] + model[cycles.UnitKeyAgreement]
}

// wrap builds a fresh EnGarde instance around an already-restored enclave:
// new host process and page tables, EENTER, fresh ephemeral X25519 key. The
// enclave is destroyed on any error so callers never leak EPC slots.
func (s *Snapshotter) wrap(encl *sgx.Enclave, tr *obs.Trace) (*EnGarde, error) {
	cfg := s.cfg
	cfg.Trace = tr
	g := &EnGarde{cfg: cfg, dev: s.dev, encl: encl, layout: s.layout}
	g.drv = hostos.NewDriver(s.dev)
	g.proc = hostos.NewProcess()
	g.kern = hostos.NewKernelComponent(g.drv, cfg.Counter)
	fail := func(err error) (*EnGarde, error) {
		s.dev.DestroyEnclave(encl)
		return nil, err
	}
	// Rebuild the page tables the template had at EINIT: bootstrap r-x,
	// heap/client rw-. The EPCM side is already restored by the device.
	for _, va := range s.snap.PageVaddrs() {
		perm := hostos.PermR | hostos.PermW
		if va < s.layout.HeapBase {
			perm = hostos.PermR | hostos.PermX
		}
		slot, ok := encl.PageSlot(va)
		if !ok {
			return fail(fmt.Errorf("core: clone page table: page %#x not mapped", va))
		}
		if err := g.proc.AS.Map(va, slot, perm); err != nil {
			return fail(fmt.Errorf("core: clone page table: %w", err))
		}
	}
	s.dev.SetPhase(cycles.PhaseProvision)
	ctx, err := s.dev.EEnter(encl)
	if err != nil {
		return fail(fmt.Errorf("core: clone EENTER: %w", err))
	}
	g.ctx = ctx
	key, err := secchan.GenerateEnclaveKey(cfg.Counter)
	if err != nil {
		return fail(fmt.Errorf("core: clone keygen: %w", err))
	}
	g.key = key
	return g, nil
}

// Clone mints a fresh provisioning-ready EnGarde instance from the
// snapshot. The returned instance is attestation-ready (quote binds the
// snapshot MRENCLAVE and a fresh per-clone X25519 key) and behaves exactly
// like one built by NewOnDevice, minus the measured-build cost. tr may be
// nil; an instance cloned untraced can attach a trace later via SetTrace.
func (s *Snapshotter) Clone(tr *obs.Trace) (*EnGarde, error) {
	sp := tr.StartPhase("clone-enclave")
	defer sp.End()
	s.dev.SetPhase(cycles.PhaseProvision)
	encl, err := s.dev.CloneEnclave(s.snap)
	if err != nil {
		return nil, fmt.Errorf("core: cloning snapshot: %w", err)
	}
	return s.wrap(encl, tr)
}

// Recycle scrubs a used clone back to the snapshot image and returns a
// fresh EnGarde instance around the same EPC pages: contents, EPCM
// permissions and the growth lock are reset, host-OS state and the X25519
// key are rebuilt from scratch. The old instance must not be used again.
// On any error the enclave is destroyed (never returned half-scrubbed).
func (s *Snapshotter) Recycle(g *EnGarde) (*EnGarde, error) {
	if g.dev != s.dev {
		g.Destroy()
		return nil, fmt.Errorf("core: recycle: enclave from a different device")
	}
	s.dev.SetPhase(cycles.PhaseProvision)
	if err := s.dev.ScrubEnclave(g.encl, s.snap); err != nil {
		g.Destroy()
		return nil, fmt.Errorf("core: scrubbing enclave: %w", err)
	}
	return s.wrap(g.encl, nil)
}

// SetTrace attaches a trace to an existing instance, so an enclave cloned
// untraced reports its provisioning spans against the session that uses
// it.
func (g *EnGarde) SetTrace(tr *obs.Trace) { g.cfg.Trace = tr }
