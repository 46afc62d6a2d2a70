package netstore

import (
	"errors"
	"fmt"
	"hash/fnv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"perfq/internal/fold"
	"perfq/internal/kvstore"
	"perfq/internal/obs"
	"perfq/internal/packet"
)

// Pool is a resilient client over N netstore backends — the elastic
// backing tier of §3.2's split key-value store. Keys partition across
// backends by rendezvous (highest-random-weight) hashing on
// packet.Key128: every (key, backend) pair gets a deterministic score
// and the key lives on the highest-scoring healthy backend. Rendezvous
// hashing has the Maglev property the ROADMAP asks for with none of the
// table upkeep: removing a backend moves only that backend's own
// keyspace slice (every other key's argmax is unchanged), and a backend
// that rejoins takes back exactly its old slice.
//
// Evictions never touch the network on the caller's thread: each
// backend has a bounded drop-oldest queue of chunks drained by a shipper
// goroutine (shipper.go), so a slow or dead backend costs the datapath
// an encode into that backend's open chunk, never a blocked write. What
// cannot be delivered is counted — DroppedEvictions is the pool's
// headline degradation stat and flows into accuracy accounting: a
// dropped eviction is a missing epoch, exactly the failure mode the
// paper's validity semantics already tolerate and report.
//
// HandleEviction and Sync are safe for concurrent use (the fabric runs
// one datapath goroutine per switch); producers meet only at the owning
// backend's queue lock.
type Pool struct {
	m   int
	cfg PoolConfig

	backends []*poolBackend

	mu       sync.Mutex // guards Get's result scratch
	getState []float64

	noBackend atomic.Uint64 // evictions dropped because no backend was healthy

	closeOnce sync.Once
}

// poolBackend is one backend: its routing salt, health bit, shipper
// (data plane), control client (get/stats/reset plane, kept separate so
// control ops never race the shipper goroutine) and prober. Both
// clients share the health bit.
type poolBackend struct {
	addr   string
	salt   uint64
	health *backendHealth
	ship   *Shipper
	probe  *prober

	ctlMu sync.Mutex
	ctl   *Client
}

// PoolConfig configures the pool; the zero value selects all defaults.
type PoolConfig struct {
	// Client configures every connection of every backend (shipper,
	// control plane and prober alike).
	Client Options
	// QueueDepth bounds each backend's async eviction queue (drop-oldest
	// on overflow). 0 selects DefaultQueueDepth.
	QueueDepth int
	// SyncBatch is the shipper's frames per chunk, and so per sync
	// marker. 0 selects DefaultSyncBatch.
	SyncBatch int
	// ProbeInterval is the health-check period: a down backend is
	// dialed by its prober once per interval and by nothing else, and
	// rejoins within one interval of coming back. 0 selects
	// DefaultProbeInterval.
	ProbeInterval time.Duration
	// DrainTimeout bounds Sync's wait for every backend's barrier.
	// 0 selects 5s.
	DrainTimeout time.Duration
	// SkipInitialProbe skips the synchronous startup probe (tests that
	// want to observe the first probe flip health).
	SkipInitialProbe bool
	// Journal, when non-nil, receives the pool's control-plane events:
	// health up/down, markdowns and queue overflows (msg = backend
	// address).
	Journal *obs.Journal
}

func (c PoolConfig) withDefaults() PoolConfig {
	if c.QueueDepth == 0 {
		c.QueueDepth = DefaultQueueDepth
	}
	if c.SyncBatch == 0 {
		c.SyncBatch = DefaultSyncBatch
	}
	if c.ProbeInterval == 0 {
		c.ProbeInterval = DefaultProbeInterval
	}
	if c.DrainTimeout == 0 {
		c.DrainTimeout = 5 * time.Second
	}
	c.Client = c.Client.withDefaults()
	return c
}

// DialPool builds a pool over the given backend addresses for one
// fold. Backends that are down at start are simply marked unhealthy
// (the pool keeps probing); an empty address list or an address named
// twice errors.
func DialPool(addrs []string, f *fold.Func, cfg PoolConfig) (*Pool, error) {
	if len(addrs) == 0 {
		return nil, errors.New("netstore: pool needs at least one backend address")
	}
	seen := make(map[string]bool, len(addrs))
	for _, addr := range addrs {
		if seen[addr] {
			return nil, fmt.Errorf("netstore: backend %s named twice", addr)
		}
		seen[addr] = true
	}
	cfg = cfg.withDefaults()
	opts := cfg.Client
	p := &Pool{m: f.StateLen(), cfg: cfg}
	for _, addr := range addrs {
		h := &backendHealth{addr: addr, journal: cfg.Journal}
		h.healthy.Store(true) // optimistic until the first probe
		p.backends = append(p.backends, &poolBackend{
			addr:   addr,
			salt:   backendSalt(addr),
			health: h,
			ship:   newShipper(newClient(h, f, opts), cfg.QueueDepth, cfg.SyncBatch),
			ctl:    newClient(h, f, opts),
			probe: &prober{
				h: h, m: p.m, opts: opts,
				interval: cfg.ProbeInterval,
				stop:     make(chan struct{}),
			},
		})
	}
	// Synchronous first probe so initial routing reflects reality, then
	// periodic probing.
	for _, b := range p.backends {
		if !cfg.SkipInitialProbe {
			b.probe.probeOnce()
		}
		b.probe.start()
	}
	return p, nil
}

// backendSalt derives a stable per-backend routing salt from its
// address.
func backendSalt(addr string) uint64 {
	h := fnv.New64a()
	h.Write([]byte(addr))
	return h.Sum64()
}

// mix64 is a splitmix64-style finalizer combining a key hash with a
// backend salt into a rendezvous score.
func mix64(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

func score(keyHash, salt uint64) uint64 { return mix64(keyHash ^ salt) }

// Owner returns the index of the healthy backend that owns key, or -1
// when no backend is healthy.
func (p *Pool) Owner(key packet.Key128) int {
	h := key.Hash()
	best, bestScore := -1, uint64(0)
	for i, b := range p.backends {
		if !b.health.healthy.Load() {
			continue
		}
		if s := score(h, b.salt); best < 0 || s > bestScore {
			best, bestScore = i, s
		}
	}
	return best
}

// HandleEviction routes one eviction to its owning backend and encodes
// it into that backend's open chunk. It never blocks and never dials: a
// full queue drops the oldest queued chunk, no healthy backend drops
// this eviction — both counted in DroppedEvictions. Matches the kvstore
// OnEvict callback shape.
func (p *Pool) HandleEviction(ev *kvstore.Eviction) error {
	owner := p.Owner(ev.Key)
	if owner < 0 {
		p.noBackend.Add(1)
		ev.Span.Hop(obs.HopShip, obs.OutcomeNoBackend, 0)
		return nil
	}
	// Sampled evicted keys get their ship hop here (a zero Span is a
	// no-op): queued to the owner's shipper, or dropped on a closed one.
	out := obs.OutcomeQueued
	if !p.backends[owner].ship.Offer(ev) {
		out = obs.OutcomeDropped
	}
	ev.Span.Hop(obs.HopShip, out, uint64(owner))
	return nil
}

// Sync is a barrier: it returns once every eviction offered before the
// call is either acked by its backend or counted dropped. It posts one
// token per backend and waits for all of them together, bounded by
// DrainTimeout; each shipper answers its token when everything queued
// ahead of it has been shipped and every reply it was owed has been
// read. A dead backend does not error (its queue drains by dropping);
// only a backend that cannot settle within the timeout does.
func (p *Pool) Sync() error {
	done := make(chan int, len(p.backends)) // one send per backend, never blocks
	for i, b := range p.backends {
		b.ship.q.postBarrier(done, i)
	}
	timeout := time.NewTimer(p.cfg.DrainTimeout)
	defer timeout.Stop()
	settled := make([]bool, len(p.backends))
	for range p.backends {
		select {
		case i := <-done:
			settled[i] = true
		case <-timeout.C:
			var errs []error
			for i, b := range p.backends {
				if !settled[i] {
					st := b.ship.Stats()
					errs = append(errs, &DrainTimeoutError{Addr: b.addr, Accounted: st.Acked + st.Dropped, Target: st.Offered})
				}
			}
			return errors.Join(errs...)
		}
	}
	return nil
}

// Get fetches a key's merged value from the tier. Because failover can
// split a key's epochs across backends (some applied before a failure,
// later ones rerouted), Get fans out to every healthy backend: found on
// exactly one → that value; found on several → invalid (the split-epoch
// analogue of the store's own multi-epoch invalidation); invalid
// anywhere → invalid. The returned slice is valid until the next call.
func (p *Pool) Get(key packet.Key128) (state []float64, found, invalid bool, err error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if cap(p.getState) < p.m {
		p.getState = make([]float64, p.m)
	}
	hits := 0
	var firstErr error
	for _, b := range p.backends {
		if !b.health.healthy.Load() {
			continue
		}
		st, f, inv, gerr := p.ctlGet(b, key)
		if gerr != nil {
			if firstErr == nil {
				firstErr = gerr
			}
			continue
		}
		if inv {
			return nil, false, true, nil
		}
		if f {
			hits++
			if hits > 1 {
				return nil, false, true, nil
			}
			copy(p.getState[:p.m], st)
		}
	}
	if hits == 1 {
		return p.getState[:p.m], true, false, nil
	}
	if hits == 0 && firstErr != nil {
		return nil, false, false, firstErr
	}
	return nil, false, false, nil
}

func (p *Pool) ctlGet(b *poolBackend, key packet.Key128) ([]float64, bool, bool, error) {
	b.ctlMu.Lock()
	defer b.ctlMu.Unlock()
	return b.ctl.Get(key)
}

// BackendStats is one backend's full accounting: client-side shipping
// plus (when reachable) the server-side store counters.
type BackendStats struct {
	ShipperStats
	Health HealthState
	// Server is the backend store's own counters; Reachable is false
	// (and Server zero) when the stats round trip failed.
	Server    Stats
	Reachable bool
}

// Stats snapshots every backend. Server-side counters are fetched over
// the control plane with the configured deadline; a down backend
// reports Reachable=false without being dialed.
func (p *Pool) Stats() []BackendStats {
	out := make([]BackendStats, len(p.backends))
	for i, b := range p.backends {
		out[i] = BackendStats{
			ShipperStats: b.ship.Stats(),
			Health:       b.health.state(),
		}
		b.ctlMu.Lock()
		if st, err := b.ctl.Stats(); err == nil {
			out[i].Server = st
			out[i].Reachable = true
		}
		b.ctlMu.Unlock()
	}
	return out
}

// DroppedEvictions is the pool's headline degradation stat: every
// eviction offered to HandleEviction that will never be applied by any
// backend — queue overflow, chunks refused by a down backend, frames
// lost on a dead connection, and evictions with no healthy backend to
// route to.
func (p *Pool) DroppedEvictions() uint64 {
	total := p.noBackend.Load()
	for _, b := range p.backends {
		st := b.ship.Stats()
		total += st.Dropped
	}
	return total
}

// Offered is how many evictions were handed to the pool.
func (p *Pool) Offered() uint64 {
	total := p.noBackend.Load()
	for _, b := range p.backends {
		offered, _, _ := b.ship.q.counts()
		total += offered
	}
	return total
}

// Acked is how many evictions backends have confirmed applied.
func (p *Pool) Acked() uint64 {
	var total uint64
	for _, b := range p.backends {
		total += b.ship.cl.Acked()
	}
	return total
}

// Healthy reports each backend's current health, in address order.
func (p *Pool) Healthy() []bool {
	out := make([]bool, len(p.backends))
	for i, b := range p.backends {
		out[i] = b.health.healthy.Load()
	}
	return out
}

// AllHealthy reports whether every backend is currently healthy.
func (p *Pool) AllHealthy() bool {
	for _, b := range p.backends {
		if !b.health.healthy.Load() {
			return false
		}
	}
	return true
}

// Addrs returns the backend addresses in routing order.
func (p *Pool) Addrs() []string {
	out := make([]string, len(p.backends))
	for i, b := range p.backends {
		out[i] = b.addr
	}
	return out
}

// Reset drops all keys on every reachable backend (best effort; a down
// backend is named in the error without being dialed).
func (p *Pool) Reset() error {
	var errs []error
	for _, b := range p.backends {
		b.ctlMu.Lock()
		if err := b.ctl.Reset(); err != nil {
			errs = append(errs, fmt.Errorf("%s: %w", b.addr, err))
		}
		b.ctlMu.Unlock()
	}
	return errors.Join(errs...)
}

// Close stops probing, ships and settles what every shipper has queued,
// stops them, and closes all connections. A second Close returns nil.
func (p *Pool) Close() error {
	var errs []error
	p.closeOnce.Do(func() {
		for _, b := range p.backends {
			b.probe.close()
		}
		for _, b := range p.backends {
			if err := b.ship.Close(); err != nil {
				errs = append(errs, err)
			}
			b.ctlMu.Lock()
			b.ctl.Close()
			b.ctlMu.Unlock()
		}
	})
	return errors.Join(errs...)
}

// StatsLine renders a one-line health/drop summary for logs: the
// pool-wide conservation counters followed by one segment per backend.
func (p *Pool) StatsLine() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "offered=%d acked=%d dropped=%d", p.Offered(), p.Acked(), p.DroppedEvictions())
	for _, b := range p.backends {
		st := b.ship.Stats()
		h := "up"
		if !b.health.healthy.Load() {
			h = "DOWN"
		}
		fmt.Fprintf(&sb, " | %s %s shipped=%d acked=%d dropped=%d(q%d/r%d/l%d) queued=%d",
			b.addr, h, st.Shipped, st.Acked, st.Dropped, st.Overflow, st.Refused, st.Lost, st.Queued)
	}
	return sb.String()
}
