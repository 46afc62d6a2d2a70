package netstore

import (
	"testing"
	"time"

	"perfq/internal/fold"
	"perfq/internal/kvstore"
)

// chaosConfig is tuned for fast, deterministic failover on a loopback
// network: short deadlines and a tight probe loop.
func chaosConfig() PoolConfig {
	return PoolConfig{
		Client: Options{Timeout: 300 * time.Millisecond},
		// Deep enough that a test-speed producer burst never overflows on
		// its own — every drop in these tests is then attributable to the
		// injected fault, which is what the accounting assertions need.
		QueueDepth: 4096, SyncBatch: 32,
		ProbeInterval: 100 * time.Millisecond,
		DrainTimeout:  10 * time.Second,
	}
}

// TestPoolChaosFailover is the acceptance test: with one of two
// backends killed mid-run, the feed path never blocks beyond the
// configured deadline, DroppedEvictions exactly accounts the accuracy
// delta versus the fault-free applied count, and after the backend
// returns the pool reports all backends healthy with new results
// converged.
func TestPoolChaosFailover(t *testing.T) {
	f := fold.Count()
	srvA, err := NewServer("127.0.0.1:0", f)
	if err != nil {
		t.Fatal(err)
	}
	srvB, err := NewServer("127.0.0.1:0", f)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srvB.Close() })
	addrA := srvA.Addr()

	p, err := DialPool([]string{addrA, srvB.Addr()}, f, chaosConfig())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { p.Close() })

	ship := func(lo, hi int) time.Duration {
		var worst time.Duration
		for i := lo; i < hi; i++ {
			start := time.Now()
			if err := p.HandleEviction(&kvstore.Eviction{Key: keyN(i), State: []float64{float64(i)}}); err != nil {
				t.Fatalf("eviction %d: %v", i, err)
			}
			if d := time.Since(start); d > worst {
				worst = d
			}
		}
		return worst
	}

	// Phase 1: fault-free baseline. Everything delivered, nothing
	// dropped — and the Sync puts the kill on a clean ack boundary.
	ship(0, 2000)
	if err := p.Sync(); err != nil {
		t.Fatal(err)
	}
	if d := p.DroppedEvictions(); d != 0 {
		t.Fatalf("phase 1 dropped %d on a healthy pool", d)
	}
	if p.Acked() != 2000 {
		t.Fatalf("phase 1 acked %d, want 2000", p.Acked())
	}
	appliedA := srvA.Store().Stats().Appends
	if appliedA == 0 {
		t.Fatal("backend A took no keys in phase 1 — rendezvous split broken")
	}

	// Kill backend A. Its store stays readable (frozen) for the final
	// accounting; the pool only sees the dead socket.
	if err := srvA.Close(); err != nil {
		t.Fatal(err)
	}
	killAt := time.Now()

	// Phase 2: keep feeding immediately. The datapath must never feel
	// the dead backend — HandleEviction is an encode + queue push, so
	// even the configured IO deadline is a generous bound.
	worst := ship(2000, 4000)
	if worst > 300*time.Millisecond {
		t.Fatalf("feed path blocked %v with a dead backend, want < Timeout (300ms)", worst)
	}

	// Failover: backend A must be marked down within a few probe
	// intervals (the shipper's first failed redial usually beats the
	// prober).
	for p.Healthy()[0] {
		if time.Since(killAt) > time.Second {
			t.Fatal("backend A not marked down within 1s of the kill")
		}
		time.Sleep(5 * time.Millisecond)
	}
	markedAt := time.Since(killAt)
	if markedAt > 5*100*time.Millisecond {
		t.Fatalf("failover took %v, want within a few 100ms probe intervals", markedAt)
	}

	// Settle phase 2 and check the accounting law. Every one of the
	// 4000 offered evictions is either applied by a store or counted in
	// DroppedEvictions — the accuracy delta and the drop stat are the
	// same number, exactly.
	if err := p.Sync(); err != nil {
		t.Fatalf("sync with one dead backend: %v", err)
	}
	frozenA := srvA.Store().Stats().Appends
	if frozenA != appliedA {
		t.Fatalf("dead backend A applied %d more evictions after the kill", frozenA-appliedA)
	}
	appliedB := srvB.Store().Stats().Appends
	dropped := p.DroppedEvictions()
	if dropped == 0 {
		t.Fatal("no drops recorded despite a dead backend mid-run")
	}
	if got := frozenA + appliedB + dropped; got != 4000 {
		t.Fatalf("conservation violated: appliedA %d + appliedB %d + dropped %d = %d, want 4000",
			frozenA, appliedB, dropped, got)
	}
	if p.Acked() != frozenA+appliedB {
		t.Fatalf("acked %d != applied %d — ack accounting drifted", p.Acked(), frozenA+appliedB)
	}
	t.Logf("kill: marked down in %v; applied A=%d B=%d dropped=%d of 4000; worst feed latency %v",
		markedAt, frozenA, appliedB, dropped, worst)

	// Phase 3: bring A back on the same address. The prober must mark
	// it healthy, and new keys routed to A must land on the next chunk
	// and read back — convergence after recovery.
	srvA2, err := NewServer(addrA, f)
	if err != nil {
		t.Skipf("could not rebind %s: %v", addrA, err)
	}
	t.Cleanup(func() { srvA2.Close() })
	recoverAt := time.Now()
	for !p.AllHealthy() {
		if time.Since(recoverAt) > 3*time.Second {
			t.Fatal("pool did not report all backends healthy within 3s of recovery")
		}
		time.Sleep(5 * time.Millisecond)
	}

	droppedBefore := p.DroppedEvictions()
	ship(4000, 5000)
	if err := p.Sync(); err != nil {
		t.Fatalf("post-recovery sync: %v", err)
	}
	if d := p.DroppedEvictions(); d != droppedBefore {
		t.Fatalf("recovered pool dropped %d new evictions", d-droppedBefore)
	}
	if srvA2.Store().Stats().Appends == 0 {
		t.Fatal("rejoined backend A took no traffic — its keyspace did not route home")
	}
	for i := 4000; i < 5000; i++ {
		state, found, invalid, err := p.Get(keyN(i))
		if err != nil {
			t.Fatalf("post-recovery get %d: %v", i, err)
		}
		if !found || invalid {
			t.Fatalf("post-recovery key %d: found=%v invalid=%v", i, found, invalid)
		}
		if state[0] != float64(i) {
			t.Fatalf("post-recovery key %d: state %v", i, state[0])
		}
	}
}

// TestChaosStallInjection: a backend whose connections stall mid-stream
// (accepts writes, then hangs) is the nastiest failure mode — without
// deadlines it wedges the shipper forever. The IO deadline must convert
// every stall into a bounded loss, Sync must stay bounded, and the
// conservation law must hold.
func TestChaosStallInjection(t *testing.T) {
	if testing.Short() {
		t.Skip("stall cases wait out IO deadlines; skipped under -short")
	}
	f := fold.Count()
	srv, err := NewServer("127.0.0.1:0", f)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })

	cfg := chaosConfig()
	cfg.Client.Timeout = 200 * time.Millisecond
	// Every connection stalls on its 3rd conn-level write (HELLO is
	// write 1), then is dead; the client must time out, reconnect, and
	// carry on — every stall costs one deadline, and none is a markdown,
	// since every redial reaches a live peer.
	cfg.Client.Dialer = NewFaultDialer(FaultSpec{Seed: 1, StallOnWrite: 3})

	p, err := DialPool([]string{srv.Addr()}, f, cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { p.Close() })

	const n = 400
	for i := 0; i < n; i++ {
		if err := p.HandleEviction(&kvstore.Eviction{Key: keyN(i), State: []float64{1}}); err != nil {
			t.Fatal(err)
		}
	}
	start := time.Now()
	if err := p.Sync(); err != nil {
		t.Fatalf("sync under stall injection: %v", err)
	}
	if elapsed := time.Since(start); elapsed > cfg.DrainTimeout {
		t.Fatalf("sync took %v, want bounded by drain timeout", elapsed)
	}

	st := p.Stats()[0]
	if st.Offered != n {
		t.Fatalf("offered %d, want %d", st.Offered, n)
	}
	if st.Acked+st.Dropped != n {
		t.Fatalf("conservation violated: acked %d + dropped %d != %d", st.Acked, st.Dropped, n)
	}
	if st.Lost == 0 {
		t.Fatal("no losses recorded despite every connection stalling")
	}
	// A stall can cut a connection after the server applied frames the
	// sync never confirmed, so applied is bracketed, not exact.
	applied := srv.Store().Stats().Appends
	if applied < st.Acked || applied > st.Acked+st.Lost {
		t.Fatalf("applied %d outside [acked %d, acked+lost %d]", applied, st.Acked, st.Acked+st.Lost)
	}
	if downs := p.backends[0].health.downs.Load(); downs != 0 || !st.Health.Healthy {
		t.Fatalf("a stalling but live backend was marked down %d times", downs)
	}
	t.Logf("stalls: reconnects %d; acked %d lost %d of %d; applied %d; sync %v",
		st.Reconnects, st.Acked, st.Lost, n, applied, time.Since(start))
}

// TestChaosMidStreamResets drives a one-backend pool through
// connections that reset on every 4th write: the shipper must reconnect
// each time and keep exact books — every frame it ever wrote is acked
// or lost, nothing double-counted.
func TestChaosMidStreamResets(t *testing.T) {
	f := fold.Count()
	srv, err := NewServer("127.0.0.1:0", f)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })

	cfg := chaosConfig()
	cfg.Client.Dialer = NewFaultDialer(FaultSpec{Seed: 3, ResetOnWrite: 4})
	p := onePool(t, srv.Addr(), f, cfg)

	// Small batches with a sync each: every sync ships one chunk in one
	// conn-level write and reads its reply, so the 4-write fuse (HELLO is
	// write 1) fires every third batch. The reset shows up in Lost and
	// Reconnects, which is the point; the next chunk redials on its own.
	for batch := 0; batch < 30; batch++ {
		for i := 0; i < 5; i++ {
			ship(t, p, keyN(batch*5+i), 1)
		}
		if err := p.Sync(); err != nil {
			t.Fatal(err)
		}
	}

	// 30 batches at one conn write per sync and a 4-write fuse means
	// roughly every third batch killed its connection.
	st := p.Stats()[0]
	if st.Reconnects < 5 {
		t.Fatalf("reconnects %d, want several under reset injection — injector never fired?", st.Reconnects)
	}
	if st.Lost == 0 {
		t.Fatal("no frames counted lost despite mid-stream resets")
	}
	if st.Shipped != st.Acked+st.Lost {
		t.Fatalf("books don't balance: written %d != acked %d + lost %d", st.Shipped, st.Acked, st.Lost)
	}
	if st.Offered != 150 || st.Acked+st.Dropped != st.Offered {
		t.Fatalf("offered %d, acked %d + dropped %d, want 150 = acked + dropped", st.Offered, st.Acked, st.Dropped)
	}
	if !st.Health.Healthy {
		t.Fatal("resets against a live peer marked the backend down")
	}
	applied := srv.Store().Stats().Appends
	if applied < st.Acked || applied > st.Acked+st.Lost {
		t.Fatalf("applied %d outside [acked %d, acked+lost %d]", applied, st.Acked, st.Acked+st.Lost)
	}
	t.Logf("resets: reconnects %d; acked %d lost %d of 150; applied %d", st.Reconnects, st.Acked, st.Lost, applied)
}

// TestChaosLatencySpikes: slow-but-alive connections (every write
// delayed) must not mark the backend down or drop anything — delay
// under the deadline is degradation, not failure.
func TestChaosLatencySpikes(t *testing.T) {
	f := fold.Count()
	srv, err := NewServer("127.0.0.1:0", f)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })

	cfg := chaosConfig()
	cfg.SyncBatch = 8
	cfg.Client.Dialer = NewFaultDialer(FaultSpec{Seed: 9, WriteDelay: 2 * time.Millisecond, DelayJitter: time.Millisecond})

	p, err := DialPool([]string{srv.Addr()}, f, cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { p.Close() })

	const n = 200
	for i := 0; i < n; i++ {
		if err := p.HandleEviction(&kvstore.Eviction{Key: keyN(i), State: []float64{1}}); err != nil {
			t.Fatal(err)
		}
	}
	if err := p.Sync(); err != nil {
		t.Fatal(err)
	}
	if d := p.DroppedEvictions(); d != 0 {
		t.Fatalf("dropped %d under pure latency injection, want 0", d)
	}
	if applied := srv.Store().Stats().Appends; applied != n {
		t.Fatalf("applied %d, want %d", applied, n)
	}
	if !p.AllHealthy() {
		t.Fatal("slow-but-alive backend marked unhealthy")
	}
}
