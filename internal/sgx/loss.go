package sgx

import "sort"

// Enclave loss models the one failure mode SGX hardware imposes on a
// well-behaved host: the OS may reclaim EPC pages at any time (EREMOVE is
// a ring-0 instruction), and an enclave whose pages were torn out from
// under it can never run again — its working set is gone and the EPCM
// entries that made its identity meaningful are invalidated. Real-world
// triggers are EPC pressure, S3 sleep, and TCB recovery; all of them look
// the same from inside: every subsequent access faults.
//
// EnGarde's fleet invariant is that such a loss may cost availability but
// never verdict integrity, so the model here is deliberately total: a
// reclaimed enclave keeps its handle (the gateway still holds it) but
// every memory access and growth instruction fails with ErrEnclaveLost,
// which callers detect with errors.Is and recover from by discarding the
// enclave and re-running the session on a fresh clone.

// ReclaimEnclave performs an EREMOVE sweep over every page of the enclave,
// returning the slots to the free pool and marking the enclave lost. It
// models the host OS invalidating the enclave under EPC pressure: the
// handle survives, but all further accesses fail with ErrEnclaveLost.
// Each page costs one EREMOVE instruction charge. Returns the number of
// pages reclaimed. Reclaiming an already-lost enclave is a no-op.
func (d *Device) ReclaimEnclave(e *Enclave) int {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.reclaimLocked(e)
}

func (d *Device) reclaimLocked(e *Enclave) int {
	if e.lost {
		return 0
	}
	n := len(e.pages)
	d.chargeLocked(uint64(n))
	for _, slot := range e.pages {
		d.freeSlotLocked(slot)
	}
	e.pages = make(map[uint64]int)
	e.lost = true
	return n
}

// SimulateEPCPressure reclaims initialized enclaves — newest first, i.e.
// in descending creation order, so long-lived infrastructure enclaves
// such as the quoting enclave are victimized last — until at least `need`
// EPC pages are free. The victim order is a deterministic function of
// device state, which lets chaos tests assert exactly which enclaves were
// lost. Returns the enclaves reclaimed (possibly none if the free pool
// already covers the demand, or all candidates are exhausted).
func (d *Device) SimulateEPCPressure(need int) []*Enclave {
	d.mu.Lock()
	defer d.mu.Unlock()
	var victims []*Enclave
	if len(d.free) >= need {
		return victims
	}
	candidates := make([]*Enclave, 0, len(d.enclaves))
	for _, e := range d.enclaves {
		if e.initialized && !e.lost && len(e.pages) > 0 {
			candidates = append(candidates, e)
		}
	}
	sort.Slice(candidates, func(i, j int) bool { return candidates[i].id > candidates[j].id })
	for _, e := range candidates {
		if len(d.free) >= need {
			break
		}
		d.reclaimLocked(e)
		victims = append(victims, e)
	}
	return victims
}

// Lost reports whether the enclave's EPC pages were reclaimed out from
// under it. A lost enclave cannot be entered, read, written, or grown;
// the only useful operation left is DestroyEnclave.
func (e *Enclave) Lost() bool {
	e.dev.mu.Lock()
	defer e.dev.mu.Unlock()
	return e.lost
}
