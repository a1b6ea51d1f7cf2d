package gateway

// The enclave warm pool. Without it every session clones the gateway's
// snapshot template on its own timeline (the clone-enclave span); the pool
// keeps N clones of that same template attestation-ready and checked in.
// A session checks one out in microseconds (the pool-checkout span
// replaces clone-enclave on warm sessions), refill workers clone
// replacements in the background, and returned enclaves are scrubbed back
// to the snapshot image — erasing all client residue — before re-entering
// the pool. A drained pool degrades to a synchronous clone; it never
// blocks admission control.

import (
	"log/slog"
	"math/rand"
	"sync"
	"sync/atomic"
	"time"

	"engarde"
	"engarde/internal/obs"
)

// Pool defaults.
const (
	DefaultPoolRefillWorkers = 2
	DefaultPoolCheckoutWait  = 100 * time.Millisecond
)

// PoolHooks are fault-injection points for the chaos tests. Each hook may
// be nil. A non-nil error from BeforeClone or AfterClone makes that refill
// attempt fail (AfterClone's enclave is destroyed first — "enclave died
// mid-refill"); an error from BeforeScrub discards the returned enclave
// instead of recycling it.
type PoolHooks struct {
	BeforeClone func() error
	AfterClone  func(e *engarde.Enclave) error
	BeforeScrub func() error
}

// enclavePool keeps Config.EnclavePool cloned enclaves ready.
type enclavePool struct {
	snap   *engarde.EnclaveSnapshot
	hooks  *PoolHooks
	log    *slog.Logger
	target int
	wait   time.Duration

	slots    chan *engarde.Enclave // checked-in, ready enclaves
	kick     chan struct{}         // refill nudge (buffered 1, never closed)
	stop     chan struct{}
	stopOnce sync.Once
	wg       sync.WaitGroup

	waitHist *obs.Histogram // checkout wait, µs; set by newMetrics

	// rng drives the full-jitter refill backoff. Guarded by rngMu: refill
	// workers and delayed re-kicks draw concurrently.
	rngMu sync.Mutex
	rng   *rand.Rand

	// outstanding counts enclaves checked out and not yet returned. Refill
	// tops up to target counting these, so a checked-out enclave's slot is
	// held for its scrubbed return — clones only replace true losses
	// (discards, failures), not enclaves that are coming back.
	outstanding atomic.Int64

	warm      atomic.Uint64 // checkouts served from the pool
	cold      atomic.Uint64 // checkouts that timed out (cold fallback)
	clones    atomic.Uint64 // successful background clones
	cloneErrs atomic.Uint64 // failed clone attempts
	scrubs    atomic.Uint64 // enclaves recycled back into the pool
	discards  atomic.Uint64 // returned enclaves destroyed instead of recycled
	lost      atomic.Uint64 // enclaves found lost (EPC reclaimed) at checkout/return
}

// newEnclavePool builds the pool over the gateway's snapshot template but
// does not start the refill workers — the gateway starts them after the
// metrics registry exists, so the wait histogram is never nil mid-flight.
func newEnclavePool(g *Gateway, snap *engarde.EnclaveSnapshot) *enclavePool {
	cfg := &g.cfg
	wait := cfg.PoolCheckoutWait
	if wait == 0 {
		wait = DefaultPoolCheckoutWait
	}
	if wait < 0 {
		wait = 0
	}
	return &enclavePool{
		snap:   snap,
		hooks:  cfg.PoolHooks,
		log:    g.log,
		target: cfg.EnclavePool,
		wait:   wait,
		slots:  make(chan *engarde.Enclave, cfg.EnclavePool),
		kick:   make(chan struct{}, 1),
		stop:   make(chan struct{}),
		rng:    rand.New(rand.NewSource(time.Now().UnixNano())),
	}
}

// start launches the refill workers and requests the initial fill.
func (p *enclavePool) start(workers int) {
	if workers <= 0 {
		workers = DefaultPoolRefillWorkers
	}
	p.wg.Add(workers)
	for i := 0; i < workers; i++ {
		go p.refillLoop()
	}
	p.kickRefill()
}

// kickRefill nudges the refill workers without blocking; a full kick
// channel means a nudge is already pending, which is all that's needed.
func (p *enclavePool) kickRefill() {
	select {
	case p.kick <- struct{}{}:
	default:
	}
}

func (p *enclavePool) refillLoop() {
	defer p.wg.Done()
	for {
		select {
		case <-p.stop:
			return
		case <-p.kick:
			p.topUp()
		}
	}
}

// population is the pool's enclave count: checked in plus checked out
// (the latter return after scrubbing, so their slots are spoken for).
func (p *enclavePool) population() int {
	return len(p.slots) + int(p.outstanding.Load())
}

// Refill backoff bounds: the jitter ceiling starts at refillBackoffBase
// and doubles per consecutive failure up to refillBackoffMax.
const (
	refillBackoffBase = 2 * time.Millisecond
	refillBackoffMax  = 200 * time.Millisecond
)

// refillBackoff returns a fully-jittered delay for the n-th consecutive
// clone failure: uniform in [0, min(max, base·2^(n-1))]. Clone failures
// usually mean EPC pressure from in-flight sessions; with multiple refill
// workers (and, fleet-wide, multiple gateways on one host) a fixed delay
// re-synchronizes every retrier onto the same contended moment — jitter
// spreads them out.
func (p *enclavePool) refillBackoff(consecutive int) time.Duration {
	if consecutive < 1 {
		consecutive = 1
	}
	ceiling := refillBackoffBase << (consecutive - 1)
	if ceiling > refillBackoffMax || ceiling <= 0 {
		ceiling = refillBackoffMax
	}
	p.rngMu.Lock()
	defer p.rngMu.Unlock()
	return time.Duration(p.rng.Int63n(int64(ceiling) + 1))
}

// topUp clones until the pool's population reaches target or cloning
// keeps failing. Failures back off and eventually yield, but always
// schedule a delayed re-kick so the pool self-heals to target depth even
// with no traffic to nudge it.
func (p *enclavePool) topUp() {
	consecutive := 0
	for p.population() < p.target {
		select {
		case <-p.stop:
			return
		default:
		}
		e, err := p.cloneOne()
		if err != nil {
			p.cloneErrs.Add(1)
			consecutive++
			p.log.Warn("gateway: pool clone failed", "err", err, "consecutive", consecutive)
			if consecutive >= 5 {
				// Yield; try again shortly rather than spinning on a
				// persistent failure (e.g. EPC exhausted by in-flight
				// sessions — their teardown frees pages).
				time.AfterFunc(p.refillBackoff(consecutive), p.kickRefill)
				return
			}
			select {
			case <-p.stop:
				return
			case <-time.After(p.refillBackoff(consecutive)):
			}
			continue
		}
		consecutive = 0
		select {
		case p.slots <- e:
		default:
			// Raced past target (another worker filled the pool).
			e.Destroy()
			return
		}
	}
}

// cloneOne mints one enclave, applying the chaos hooks.
func (p *enclavePool) cloneOne() (*engarde.Enclave, error) {
	if p.hooks != nil && p.hooks.BeforeClone != nil {
		if err := p.hooks.BeforeClone(); err != nil {
			return nil, err
		}
	}
	e, err := p.snap.Clone()
	if err != nil {
		return nil, err
	}
	if p.hooks != nil && p.hooks.AfterClone != nil {
		if err := p.hooks.AfterClone(e); err != nil {
			e.Destroy()
			return nil, err
		}
	}
	p.clones.Add(1)
	return e, nil
}

// discard destroys a checked-out enclave instead of returning it, keeping
// the outstanding/discard accounting exact and nudging refill to clone a
// replacement for the real loss.
func (p *enclavePool) discard(e *engarde.Enclave) {
	e.Destroy()
	p.discards.Add(1)
	p.outstanding.Add(-1)
	p.kickRefill()
}

// tryTake is checkout's non-blocking fast path: pop slots until one yields
// a healthy enclave. A pooled enclave can be *lost* while idle — the host
// reclaimed its EPC pages out from under it — and handing a corpse to a
// session would waste the whole transfer before the first write fails, so
// lost enclaves are detected here, discarded, and the next slot is tried.
func (p *enclavePool) tryTake() (*engarde.Enclave, bool) {
	for {
		select {
		case e := <-p.slots:
			p.outstanding.Add(1)
			if e.Lost() {
				p.lost.Add(1)
				p.discard(e)
				continue
			}
			return e, true
		default:
			return nil, false
		}
	}
}

// checkout returns a warm enclave, or (nil, false) after the bounded wait
// so the caller can fall back to the cold path. The wait is bounded (and
// short) because admission control — not the pool — is where backpressure
// belongs: a drained pool must degrade to cold provisioning, not stall the
// worker.
func (p *enclavePool) checkout() (*engarde.Enclave, bool) {
	start := time.Now()
	observe := func() {
		if p.waitHist != nil {
			p.waitHist.Observe(uint64(time.Since(start) / time.Microsecond))
		}
	}
	if e, ok := p.tryTake(); ok {
		observe()
		p.warm.Add(1)
		return e, true
	}
	p.kickRefill()
	if p.wait > 0 {
		timer := time.NewTimer(p.wait)
		defer timer.Stop()
		for {
			select {
			case e := <-p.slots:
				p.outstanding.Add(1)
				if e.Lost() {
					p.lost.Add(1)
					p.discard(e)
					continue // a replacement may already be in flight
				}
				observe()
				p.warm.Add(1)
				return e, true
			case <-timer.C:
			case <-p.stop:
			}
			break
		}
	}
	observe()
	p.cold.Add(1)
	return nil, false
}

// release returns a used enclave. The scrub restores every page and
// re-keys the instance, so it runs on its own goroutine rather
// than the session worker's; the goroutine is tracked so close() waits
// for it and slot accounting stays exact.
func (p *enclavePool) release(e *engarde.Enclave) {
	p.wg.Add(1)
	go func() {
		defer p.wg.Done()
		// The enclave stops being "coming back" only once it's either in a
		// slot or destroyed. Decrementing outstanding after the outcome —
		// and, on discard paths, before the refill kick — keeps refill from
		// cloning a replacement for an enclave whose scrubbed return is
		// moments away, while guaranteeing the kick that replaces a real
		// loss sees the loss.
		select {
		case <-p.stop:
			e.Destroy()
			p.discards.Add(1)
			p.outstanding.Add(-1)
			return
		default:
		}
		if e.Lost() {
			// The session's enclave was reclaimed under it; there is
			// nothing left to scrub. Destroy frees the (empty) handle and
			// refill clones a replacement.
			p.lost.Add(1)
			p.discard(e)
			return
		}
		if p.hooks != nil && p.hooks.BeforeScrub != nil {
			if err := p.hooks.BeforeScrub(); err != nil {
				e.Destroy()
				p.discards.Add(1)
				p.outstanding.Add(-1)
				p.kickRefill()
				return
			}
		}
		fresh, err := p.snap.Recycle(e)
		if err != nil {
			// Recycle destroyed the enclave on failure.
			p.discards.Add(1)
			p.outstanding.Add(-1)
			p.log.Warn("gateway: pool scrub failed", "err", err)
			p.kickRefill()
			return
		}
		select {
		case p.slots <- fresh:
			p.scrubs.Add(1)
			p.outstanding.Add(-1)
		default:
			fresh.Destroy()
			p.discards.Add(1)
			p.outstanding.Add(-1)
		}
	}()
}

// close stops refilling, waits for in-flight clone/scrub goroutines, and
// destroys every pooled enclave so the EPC slot balance returns to what it
// was before the pool existed.
func (p *enclavePool) close() {
	p.stopOnce.Do(func() { close(p.stop) })
	p.wg.Wait()
	for {
		select {
		case e := <-p.slots:
			e.Destroy()
		default:
			return
		}
	}
}
