package netstore

import (
	"errors"
	"fmt"
	"math/rand"
	"net"
	"sync"
	"time"
)

// FaultConn wraps a net.Conn with deterministic, seeded fault
// injection: latency spikes, mid-stream resets, stalls, and partial
// writes — the failure modes a switch-to-collector channel actually
// exhibits. Faults fire on op counters (the Nth write/read) and a
// seeded RNG, so a chaos test replays the exact same fault schedule
// every run; nothing here reads wall-clock entropy.
//
// A stall blocks until the connection's deadline (set by the hardened
// client) or Close, then returns a timeout error — which is precisely
// how a hung peer looks through the kernel, and what the deadline
// plumbing exists to bound.
type FaultSpec struct {
	// Seed drives the jitter RNG (0 = fixed default).
	Seed int64

	// WriteDelay/ReadDelay inject fixed latency before each op;
	// DelayJitter adds a uniform random extra in [0, DelayJitter).
	WriteDelay  time.Duration
	ReadDelay   time.Duration
	DelayJitter time.Duration

	// ResetOnWrite / ResetOnRead kill the connection on the Nth write /
	// read (1-based; 0 = never): the op fails, the underlying conn is
	// closed, and every later op fails with the same reset error.
	ResetOnWrite int
	ResetOnRead  int

	// PartialWrite makes the Nth write deliver only half its bytes
	// before the reset fires (a frame truncated mid-stream; the peer
	// must detect and drop it). Implies a reset on that write.
	PartialWrite int

	// StallOnWrite / StallOnRead make the Nth op hang until the
	// deadline or Close instead of completing.
	StallOnWrite int
	StallOnRead  int
}

// ErrInjectedReset is the error surfaced by injected resets.
var ErrInjectedReset = errors.New("faultconn: injected connection reset")

// timeoutError satisfies net.Error with Timeout() == true, matching
// what a deadline miss on a real conn returns.
type timeoutError struct{ op string }

func (e *timeoutError) Error() string {
	return fmt.Sprintf("faultconn: injected %s stall timed out", e.op)
}
func (e *timeoutError) Timeout() bool   { return true }
func (e *timeoutError) Temporary() bool { return true }

// FaultConn is the fault-injecting net.Conn. Safe for one reader and
// one writer goroutine, like net.TCPConn.
type FaultConn struct {
	inner net.Conn

	mu      sync.Mutex
	rng     *rand.Rand
	spec    FaultSpec
	writes  int
	reads   int
	dead    bool
	closed  chan struct{}
	rdWrite time.Time // write deadline mirror (for stalls)
	rdRead  time.Time
}

// NewFaultConn wraps conn with the given fault schedule.
func NewFaultConn(conn net.Conn, spec FaultSpec) *FaultConn {
	seed := spec.Seed
	if seed == 0 {
		seed = 1
	}
	return &FaultConn{
		inner:  conn,
		rng:    rand.New(rand.NewSource(seed)),
		spec:   spec,
		closed: make(chan struct{}),
	}
}

// NewFaultDialer returns a dialer (Options.Dialer shape) that wraps
// every dialed connection in a FaultConn. Connection i gets Seed+i so
// reconnects see a deterministic but distinct jitter stream.
func NewFaultDialer(spec FaultSpec) func(addr string, timeout time.Duration) (net.Conn, error) {
	var mu sync.Mutex
	conns := int64(0)
	return func(addr string, timeout time.Duration) (net.Conn, error) {
		conn, err := net.DialTimeout("tcp", addr, timeout)
		if err != nil {
			return nil, err
		}
		mu.Lock()
		s := spec
		if s.Seed == 0 {
			s.Seed = 1
		}
		s.Seed += conns
		conns++
		mu.Unlock()
		return NewFaultConn(conn, s), nil
	}
}

// delay sleeps the configured fixed + jittered latency.
func (c *FaultConn) delay(base time.Duration) {
	extra := time.Duration(0)
	if c.spec.DelayJitter > 0 {
		c.mu.Lock()
		extra = time.Duration(c.rng.Int63n(int64(c.spec.DelayJitter)))
		c.mu.Unlock()
	}
	if d := base + extra; d > 0 {
		time.Sleep(d)
	}
}

// stall blocks until the given deadline or Close, then returns a
// timeout error (or the reset error if the conn was closed).
func (c *FaultConn) stall(op string, deadline time.Time) error {
	var timer *time.Timer
	var fire <-chan time.Time
	if !deadline.IsZero() {
		timer = time.NewTimer(time.Until(deadline))
		fire = timer.C
		defer timer.Stop()
	}
	select {
	case <-fire:
		return &timeoutError{op: op}
	case <-c.closed:
		return ErrInjectedReset
	}
}

// kill marks the conn dead and closes the underlying transport, so the
// peer observes a mid-stream termination.
func (c *FaultConn) kill() {
	if !c.dead {
		c.dead = true
		c.inner.Close()
		select {
		case <-c.closed:
		default:
			close(c.closed)
		}
	}
}

func (c *FaultConn) Write(b []byte) (int, error) {
	c.mu.Lock()
	if c.dead {
		c.mu.Unlock()
		return 0, ErrInjectedReset
	}
	c.writes++
	n := c.writes
	stall := c.spec.StallOnWrite > 0 && n == c.spec.StallOnWrite
	partial := c.spec.PartialWrite > 0 && n == c.spec.PartialWrite
	reset := partial || (c.spec.ResetOnWrite > 0 && n == c.spec.ResetOnWrite)
	wd := c.rdWrite
	c.mu.Unlock()

	if stall {
		return 0, c.stall("write", wd)
	}
	c.delay(c.spec.WriteDelay)

	if reset {
		wrote := 0
		if partial && len(b) > 1 {
			wrote, _ = c.inner.Write(b[:len(b)/2])
		}
		c.mu.Lock()
		c.kill()
		c.mu.Unlock()
		return wrote, ErrInjectedReset
	}
	return c.inner.Write(b)
}

func (c *FaultConn) Read(b []byte) (int, error) {
	c.mu.Lock()
	if c.dead {
		c.mu.Unlock()
		return 0, ErrInjectedReset
	}
	c.reads++
	n := c.reads
	stall := c.spec.StallOnRead > 0 && n == c.spec.StallOnRead
	reset := c.spec.ResetOnRead > 0 && n == c.spec.ResetOnRead
	rd := c.rdRead
	c.mu.Unlock()

	if stall {
		return 0, c.stall("read", rd)
	}
	c.delay(c.spec.ReadDelay)

	if reset {
		c.mu.Lock()
		c.kill()
		c.mu.Unlock()
		return 0, ErrInjectedReset
	}
	return c.inner.Read(b)
}

func (c *FaultConn) Close() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if !c.dead {
		c.dead = true
		select {
		case <-c.closed:
		default:
			close(c.closed)
		}
		return c.inner.Close()
	}
	return nil
}

func (c *FaultConn) LocalAddr() net.Addr  { return c.inner.LocalAddr() }
func (c *FaultConn) RemoteAddr() net.Addr { return c.inner.RemoteAddr() }

func (c *FaultConn) SetDeadline(t time.Time) error {
	c.mu.Lock()
	c.rdWrite, c.rdRead = t, t
	c.mu.Unlock()
	return c.inner.SetDeadline(t)
}

func (c *FaultConn) SetReadDeadline(t time.Time) error {
	c.mu.Lock()
	c.rdRead = t
	c.mu.Unlock()
	return c.inner.SetReadDeadline(t)
}

func (c *FaultConn) SetWriteDeadline(t time.Time) error {
	c.mu.Lock()
	c.rdWrite = t
	c.mu.Unlock()
	return c.inner.SetWriteDeadline(t)
}
