package netstore

import (
	"io"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"perfq/internal/obs"
)

// Health probing for the backing pool: every backend gets a prober
// goroutine that periodically dials, handshakes, and closes. Probe
// failures mark the backend down (its keyspace slice reroutes to the
// surviving backends within one probe interval); probe successes mark
// it back up, at which point its slice routes home again. The shipper
// additionally marks a backend down the moment its circuit breaker
// opens, so the datapath usually fails over faster than the prober.
const (
	DefaultProbeInterval = 500 * time.Millisecond
	// DefaultDownAfter / DefaultUpAfter are the consecutive
	// probe-failure / -success counts that flip the health state. 1 and
	// 1 favor fast failover and fast rejoin over flap damping; raise
	// UpAfter on lossy networks.
	DefaultDownAfter = 1
	DefaultUpAfter   = 1
)

// HealthState is one backend's view from the prober.
type HealthState struct {
	Addr      string
	Healthy   bool
	Probes    uint64
	Failures  uint64
	LastError string
}

// backendHealth tracks one backend's probe-driven health. healthy is
// read on every eviction route, so it is a bare atomic.
type backendHealth struct {
	addr    string
	healthy atomic.Bool

	probes   atomic.Uint64
	failures atomic.Uint64
	ups      atomic.Uint64 // down→up transitions
	downs    atomic.Uint64 // up→down transitions

	mu        sync.Mutex
	lastErr   error
	consecBad int
	consecOK  int

	// onUp fires on every down→up transition (the pool uses it to clear
	// the shipper client's breaker so the rejoining backend takes
	// traffic immediately instead of after a cooldown).
	onUp func()

	// journal, when non-nil, receives health transition events (up/down/
	// markdown, msg = backend address). Nil-safe to append to.
	journal *obs.Journal
}

func (h *backendHealth) state() HealthState {
	h.mu.Lock()
	errStr := ""
	if h.lastErr != nil {
		errStr = h.lastErr.Error()
	}
	h.mu.Unlock()
	return HealthState{
		Addr:      h.addr,
		Healthy:   h.healthy.Load(),
		Probes:    h.probes.Load(),
		Failures:  h.failures.Load(),
		LastError: errStr,
	}
}

// markDown forces the backend unhealthy immediately (shipper fault
// path); the prober brings it back.
func (h *backendHealth) markDown() {
	if h.healthy.Swap(false) {
		h.downs.Add(1)
		h.journal.Append(obs.EvMarkdown, int64(h.downs.Load()), 0, h.addr)
	}
}

// observe folds one probe result into the up/down state machine.
func (h *backendHealth) observe(err error, downAfter, upAfter int) {
	h.probes.Add(1)
	h.mu.Lock()
	defer h.mu.Unlock()
	h.lastErr = err
	if err != nil {
		h.failures.Add(1)
		h.consecOK = 0
		h.consecBad++
		if h.consecBad >= downAfter {
			if h.healthy.Swap(false) {
				h.downs.Add(1)
				h.journal.Append(obs.EvHealthDown, int64(h.consecBad), 0, h.addr)
			}
		}
		return
	}
	h.consecBad = 0
	h.consecOK++
	if h.consecOK >= upAfter {
		if !h.healthy.Swap(true) {
			h.ups.Add(1)
			h.journal.Append(obs.EvHealthUp, int64(h.consecOK), 0, h.addr)
			if h.onUp != nil {
				h.onUp()
			}
		}
	}
}

// probeBackend dials, performs the HELLO handshake, and closes — the
// cheapest request that proves the peer is a live netstore for this
// program's state width. The whole exchange is bounded by timeout.
func probeBackend(dialer func(string, time.Duration) (net.Conn, error), addr string, m, prog int, timeout time.Duration) error {
	conn, err := dialer(addr, timeout)
	if err != nil {
		return err
	}
	defer conn.Close()
	conn.SetDeadline(time.Now().Add(timeout))

	if _, err := conn.Write(appendFrame(nil, opHello, helloPayload(m, prog))); err != nil {
		return err
	}
	var resp [5]byte
	if _, err := io.ReadFull(conn, resp[:]); err != nil {
		return err
	}
	if resp[4] != StatusOK {
		return ErrBadVersion
	}
	return nil
}

// prober drives one backend's health checks until stop is closed.
type prober struct {
	h         *backendHealth
	m         int
	prog      int
	interval  time.Duration
	timeout   time.Duration
	downAfter int
	upAfter   int
	dialer    func(string, time.Duration) (net.Conn, error)

	stop chan struct{}
	wg   sync.WaitGroup
}

func (p *prober) start() {
	p.wg.Add(1)
	go func() {
		defer p.wg.Done()
		t := time.NewTicker(p.interval)
		defer t.Stop()
		for {
			select {
			case <-p.stop:
				return
			case <-t.C:
				p.h.observe(probeBackend(p.dialer, p.h.addr, p.m, p.prog, p.timeout), p.downAfter, p.upAfter)
			}
		}
	}()
}

// probeOnce runs one synchronous probe (pool startup, so initial health
// reflects reality before the first eviction routes).
func (p *prober) probeOnce() {
	p.h.observe(probeBackend(p.dialer, p.h.addr, p.m, p.prog, p.timeout), p.downAfter, p.upAfter)
}

func (p *prober) close() {
	close(p.stop)
	p.wg.Wait()
}
