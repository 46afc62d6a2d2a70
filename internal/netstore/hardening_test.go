package netstore

import (
	"errors"
	"math"
	"net"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"perfq/internal/fold"
	"perfq/internal/kvstore"
	"perfq/internal/obs"
)

// blackhole listens and accepts but never reads or writes — the peer
// that would hang an unbounded handshake forever.
func blackhole(t *testing.T) net.Listener {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	var conns []net.Conn
	done := make(chan struct{})
	go func() {
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			conns = append(conns, conn) // hold, never touch
		}
	}()
	t.Cleanup(func() {
		close(done)
		ln.Close()
		for _, c := range conns {
			c.Close()
		}
	})
	return ln
}

// TestDialHandshakeBounded: a peer that accepts but never answers the
// HELLO must fail the shipper's dial within Timeout, not hang, and the
// failed handshake marks the backend down.
func TestDialHandshakeBounded(t *testing.T) {
	ln := blackhole(t)
	start := time.Now()
	p := onePool(t, ln.Addr().String(), fold.Count(), PoolConfig{
		Client:           Options{Timeout: 150 * time.Millisecond},
		SkipInitialProbe: true,
		ProbeInterval:    time.Hour,
	})
	ship(t, p, keyN(1), 1)
	if err := p.Sync(); err != nil {
		t.Fatal(err)
	}
	elapsed := time.Since(start)
	if p.Healthy()[0] {
		t.Fatal("dial to a black-hole peer succeeded")
	}
	if st := p.Stats()[0]; st.Refused != 1 || st.Dropped != 1 {
		t.Fatalf("refused %d dropped %d, want the one eviction refused", st.Refused, st.Dropped)
	}
	if elapsed > 2*time.Second {
		t.Fatalf("dial took %v, want bounded by ~150ms Timeout", elapsed)
	}
}

// TestPoolDownBackendCostsNoDials pins the one liveness gate: the first
// failed redial marks a killed backend down; while it is down nothing
// but its prober dials it, once per ProbeInterval; and the probe that
// finds it back is all it takes to rejoin — the next chunk reconnects
// with no cooldown.
func TestPoolDownBackendCostsNoDials(t *testing.T) {
	f := fold.Count()
	srv, err := NewServer("127.0.0.1:0", f)
	if err != nil {
		t.Fatal(err)
	}
	addr := srv.Addr()
	var dials, failed atomic.Int64
	const every = 100 * time.Millisecond
	j := obs.NewJournal(1 << 10)
	p := onePool(t, addr, f, PoolConfig{
		Client: Options{
			Timeout: 300 * time.Millisecond,
			Dialer: func(addr string, timeout time.Duration) (net.Conn, error) {
				dials.Add(1)
				conn, err := net.DialTimeout("tcp", addr, timeout)
				if err != nil {
					failed.Add(1)
				}
				return conn, err
			},
		},
		ProbeInterval: every,
		Journal:       j,
	})
	h := p.backends[0].health
	events := func(kind obs.EventKind) int {
		n := 0
		for _, ev := range j.Tail(0) {
			if ev.Kind == kind {
				n++
			}
		}
		return n
	}
	sync := func() {
		t.Helper()
		if err := p.Sync(); err != nil {
			t.Fatal(err)
		}
	}

	// Up: one chunk acked, so the shipper holds a live connection.
	ship(t, p, keyN(0), 1)
	sync()
	if p.Acked() != 1 {
		t.Fatalf("acked %d, want 1", p.Acked())
	}

	// Kill the backend just after a probe finished, so the next probe is
	// an interval away and the shipper's redial is what finds it dead:
	// the first chunk dies with the old connection, the next one redials.
	for probes := h.probes.Load(); h.probes.Load() == probes; {
		time.Sleep(time.Millisecond)
	}
	srv.Close()
	for i := 1; p.Healthy()[0]; i++ {
		if i > 10 {
			t.Fatal("backend still up after 10 chunks to a dead address")
		}
		ship(t, p, keyN(i), 1)
		sync()
	}
	if n := failed.Load(); n != 1 {
		t.Fatalf("marked down after %d failed dials, want the first", n)
	}
	if n := events(obs.EvMarkdown); n != 1 {
		t.Fatalf("%d markdown events, want 1", n)
	}
	if n := events(obs.EvHealthDown); n != 0 {
		t.Fatalf("the prober marked the backend down before the failed redial did (%d events)", n)
	}

	// Down: 200 evictions through the pool (routed nowhere), 200 offered
	// straight to the backend's shipper (refused), Stats, Reset and Get —
	// none of it dials; only the prober does, once per interval.
	before, start := dials.Load(), time.Now()
	refused := p.Stats()[0].Refused
	for i := 0; i < 200; i++ {
		ship(t, p, keyN(1000+i), 1)
		if !p.backends[0].ship.Offer(&kvstore.Eviction{Key: keyN(2000 + i), State: []float64{1}}) {
			t.Fatal("shipper closed while the pool is open")
		}
	}
	sync()
	st := p.Stats()[0]
	if st.Reachable {
		t.Fatal("Stats reached a backend marked down")
	}
	if got := st.Refused - refused; got != 200 {
		t.Fatalf("shipper refused %d queued evictions, want 200", got)
	}
	if err := p.Reset(); !errors.Is(err, ErrBackendDown) || !strings.Contains(err.Error(), addr) {
		t.Fatalf("Reset with the backend down: %v, want an error naming %s", err, addr)
	}
	if _, found, invalid, err := p.Get(keyN(0)); found || invalid || err != nil {
		t.Fatalf("Get with the backend down: found=%v invalid=%v err=%v", found, invalid, err)
	}
	time.Sleep(3 * every)
	down := time.Since(start)
	bound := int64(math.Ceil(float64(down)/float64(every))) + 1
	n := dials.Load() - before
	if n < 1 || n > bound {
		t.Fatalf("%d dials while down, want 1..%d (the prober's alone)", n, bound)
	}
	t.Logf("down %v: %d dials (bound %d), %d evictions refused", down.Round(time.Millisecond), n, bound, st.Refused-refused)
	if got := p.Acked() + p.DroppedEvictions(); got != p.Offered() {
		t.Fatalf("books: acked %d + dropped %d != offered %d", p.Acked(), p.DroppedEvictions(), p.Offered())
	}

	// Back: the next probe marks it up, and the next chunk reconnects.
	srv2, err := NewServer(addr, f)
	if err != nil {
		t.Skipf("could not rebind %s: %v", addr, err)
	}
	t.Cleanup(func() { srv2.Close() })
	for upAt := time.Now(); !p.Healthy()[0]; time.Sleep(time.Millisecond) {
		if time.Since(upAt) > 2*time.Second {
			t.Fatal("backend not marked up within 2s of its restart")
		}
	}
	if n := events(obs.EvHealthUp); n != 1 {
		t.Fatalf("%d health-up events, want 1", n)
	}
	reconnects, dropped := p.Stats()[0].Reconnects, p.DroppedEvictions()
	for i := 3000; i < 3100; i++ {
		ship(t, p, keyN(i), float64(i))
	}
	sync()
	if d := p.DroppedEvictions() - dropped; d != 0 {
		t.Fatalf("rejoined backend dropped %d evictions", d)
	}
	if p.Stats()[0].Reconnects <= reconnects {
		t.Fatal("the chunk after the up-probe did not reconnect")
	}
	for i := 3000; i < 3100; i++ {
		state, found, invalid, err := p.Get(keyN(i))
		if err != nil || !found || invalid || state[0] != float64(i) {
			t.Fatalf("key %d after rejoin: %v found=%v invalid=%v err=%v", i, state, found, invalid, err)
		}
	}
}

// TestGetSteadyStateAllocs (satellite): readResponse/Get reuse their
// buffers — repeated Gets on the pool's control client allocate
// nothing.
func TestGetSteadyStateAllocs(t *testing.T) {
	f := fold.Count()
	_, p := startServer(t, f)
	key := keyN(1)
	ship(t, p, key, 7)
	if err := p.Sync(); err != nil {
		t.Fatal(err)
	}
	cl := p.backends[0].ctl
	// Warm the reusable buffers.
	if _, found, _, err := cl.Get(key); err != nil || !found {
		t.Fatalf("warmup get: found=%v err=%v", found, err)
	}
	allocs := testing.AllocsPerRun(200, func() {
		if _, found, _, err := cl.Get(key); err != nil || !found {
			t.Fatalf("get: found=%v err=%v", found, err)
		}
	})
	if allocs > 0 {
		t.Fatalf("Get allocates %.1f objects/op, want 0", allocs)
	}
}

// TestServerRestartMidStream (satellite): kill and restart the server
// between eviction batches. The shipper must reconnect on its own, every
// written frame must be accounted as acked or lost, and a final Sync
// must converge.
func TestServerRestartMidStream(t *testing.T) {
	f := fold.Count()
	srv1, err := NewServer("127.0.0.1:0", f)
	if err != nil {
		t.Fatal(err)
	}
	addr := srv1.Addr()
	// No periodic probe: every dial below is the shipper's own, so the
	// restart gap cannot mark the backend down.
	p := onePool(t, addr, f, PoolConfig{
		Client:        Options{Timeout: 500 * time.Millisecond},
		ProbeInterval: time.Hour,
	})
	cl := p.backends[0].ship.cl

	// Batch 1, settled by a sync so the kill happens at a clean boundary.
	for i := 0; i < 100; i++ {
		ship(t, p, keyN(i), 1)
	}
	if err := p.Sync(); err != nil {
		t.Fatal(err)
	}
	applied1 := srv1.Store().Stats().Appends
	if applied1 != 100 || cl.Acked() != 100 {
		t.Fatalf("batch 1: applied=%d acked=%d, want 100/100", applied1, cl.Acked())
	}

	// Kill mid-stream (Close aborts the client's live connection too)
	// and restart on the same address with a fresh store.
	if err := srv1.Close(); err != nil {
		t.Fatal(err)
	}
	srv2, err := NewServer(addr, f)
	if err != nil {
		t.Skipf("could not rebind %s: %v", addr, err)
	}
	t.Cleanup(func() { srv2.Close() })

	// Batch 2, one sync per ten evictions: the first chunk lands in the
	// dead socket (counted lost) or fails its write; every later one
	// leaves on a fresh connection, without outside help.
	for i := 100; i < 200; i += 10 {
		for k := i; k < i+10; k++ {
			ship(t, p, keyN(k), 1)
		}
		if err := p.Sync(); err != nil {
			t.Fatalf("sync did not converge: %v", err)
		}
	}
	if !p.Healthy()[0] {
		t.Fatal("a restart between two dials marked the backend down")
	}

	// Lost-epoch accounting: every frame the client ever wrote is acked
	// or lost, and the two servers' applied counts equal the acked side
	// exactly (the kill landed on a sync boundary, so nothing was
	// applied-but-unacked).
	if cl.Evictions() != cl.Acked()+cl.Lost() {
		t.Fatalf("written=%d != acked=%d + lost=%d", cl.Evictions(), cl.Acked(), cl.Lost())
	}
	if st := p.Stats()[0]; st.Offered != st.Acked+st.Dropped {
		t.Fatalf("offered=%d != acked=%d + dropped=%d", st.Offered, st.Acked, st.Dropped)
	}
	applied2 := srv2.Store().Stats().Appends
	if applied1+applied2 != cl.Acked() {
		t.Fatalf("applied %d+%d != acked %d", applied1, applied2, cl.Acked())
	}
	if applied2 == 0 {
		t.Fatal("nothing reached the restarted server")
	}
	if cl.Reconnects() < 2 {
		t.Fatalf("reconnects = %d, want ≥ 2 (initial + restart)", cl.Reconnects())
	}
	// The surviving keys are exactly batch 2 minus the lost window.
	if got := uint64(srv2.Store().Len()); got != applied2 {
		t.Fatalf("restarted store holds %d keys, want %d", got, applied2)
	}
	t.Logf("restart: reconnects %d; applied %d+%d = acked; lost %d", cl.Reconnects(), applied1, applied2, cl.Lost())
}
