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
// goroutine that periodically dials, handshakes, and closes. The
// backend's health bit is the one answer to "may this backend be
// dialed?": routing skips a down backend (its keyspace slice reroutes
// to the survivors), and its clients refuse every operation without
// I/O. A failed probe or a failed client dial marks it down; only a
// successful probe marks it up, at which point its slice routes home and
// the next chunk redials.
const DefaultProbeInterval = 500 * time.Millisecond

// HealthState is one backend's view from the prober.
type HealthState struct {
	Addr      string
	Healthy   bool
	Probes    uint64
	Failures  uint64
	LastError string
}

// backendHealth is one backend's health bit and its history. healthy is
// read on every eviction route and every client operation, so it is a
// bare atomic; the prober writes it, and the backend's clients mark it
// down.
type backendHealth struct {
	addr    string
	healthy atomic.Bool

	probes   atomic.Uint64
	failures atomic.Uint64
	ups      atomic.Uint64 // down→up transitions
	downs    atomic.Uint64 // up→down transitions

	mu      sync.Mutex
	lastErr error

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

// markDown marks the backend down after a client's failed dial or
// handshake; the prober brings it back.
func (h *backendHealth) markDown() {
	if h.healthy.Swap(false) {
		h.journal.Append(obs.EvMarkdown, int64(h.downs.Add(1)), 0, h.addr)
	}
}

// observe applies one probe result: a failure marks the backend down, a
// success marks it up.
func (h *backendHealth) observe(err error) {
	h.probes.Add(1)
	h.mu.Lock()
	h.lastErr = err
	h.mu.Unlock()
	if err != nil {
		h.failures.Add(1)
		if h.healthy.Swap(false) {
			h.journal.Append(obs.EvHealthDown, int64(h.downs.Add(1)), 0, h.addr)
		}
	} else if !h.healthy.Swap(true) {
		h.journal.Append(obs.EvHealthUp, int64(h.ups.Add(1)), 0, h.addr)
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
	h        *backendHealth
	m        int
	opts     Options // Timeout, Dialer and Program, defaults applied
	interval time.Duration

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
				p.probeOnce()
			}
		}
	}()
}

// probeOnce runs one synchronous probe (pool startup, so initial health
// reflects reality before the first eviction routes).
func (p *prober) probeOnce() {
	p.h.observe(probeBackend(p.opts.Dialer, p.h.addr, p.m, p.opts.Program, p.opts.Timeout))
}

func (p *prober) close() {
	close(p.stop)
	p.wg.Wait()
}
