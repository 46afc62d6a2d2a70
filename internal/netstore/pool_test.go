package netstore

import (
	"fmt"
	"strings"
	"testing"
	"time"

	"perfq/internal/fold"
	"perfq/internal/kvstore"
)

// offlinePool builds a pool over fake addresses with probing disabled,
// for pure routing tests (no network I/O happens).
func offlinePool(t *testing.T, n int) *Pool {
	t.Helper()
	addrs := make([]string, n)
	for i := range addrs {
		addrs[i] = fmt.Sprintf("10.0.0.%d:9999", i+1)
	}
	p, err := DialPool(addrs, fold.Count(), PoolConfig{
		SkipInitialProbe: true,
		ProbeInterval:    time.Hour, // effectively never
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { p.Close() })
	return p
}

// TestPoolRendezvousStability is the minimal-disruption property the
// tier is built on: removing one backend moves ONLY that backend's keys
// (everything owned by a survivor stays put), and a rejoining backend
// takes back exactly its old slice.
func TestPoolRendezvousStability(t *testing.T) {
	p := offlinePool(t, 3)
	const nkeys = 3000
	before := make([]int, nkeys)
	counts := make([]int, 3)
	for i := 0; i < nkeys; i++ {
		before[i] = p.Owner(keyN(i))
		if before[i] < 0 {
			t.Fatalf("key %d unowned with all backends healthy", i)
		}
		counts[before[i]]++
	}
	// Rendezvous should spread the keyspace roughly evenly.
	for i, c := range counts {
		if c < nkeys/6 || c > nkeys/2 {
			t.Fatalf("backend %d owns %d/%d keys — badly unbalanced (%v)", i, c, nkeys, counts)
		}
	}

	// Take backend 1 down: its keys redistribute; keys owned by 0 and 2
	// must not move.
	p.backends[1].health.markDown()
	moved := 0
	for i := 0; i < nkeys; i++ {
		now := p.Owner(keyN(i))
		switch before[i] {
		case 1:
			if now == 1 || now < 0 {
				t.Fatalf("key %d still routed to dead backend (owner %d)", i, now)
			}
			moved++
		default:
			if now != before[i] {
				t.Fatalf("key %d owned by healthy backend %d moved to %d on unrelated failure", i, before[i], now)
			}
		}
	}
	if moved != counts[1] {
		t.Fatalf("moved %d keys, want exactly backend 1's %d", moved, counts[1])
	}

	// Bring it back: every key returns to its original owner.
	p.backends[1].health.healthy.Store(true)
	for i := 0; i < nkeys; i++ {
		if now := p.Owner(keyN(i)); now != before[i] {
			t.Fatalf("key %d did not return home after rejoin: %d != %d", i, now, before[i])
		}
	}
}

// TestPoolOwnerNoBackends: with everything down there is no owner, and
// evictions are counted against noBackend rather than blocking.
func TestPoolOwnerNoBackends(t *testing.T) {
	p := offlinePool(t, 2)
	p.backends[0].health.markDown()
	p.backends[1].health.markDown()
	if got := p.Owner(keyN(1)); got != -1 {
		t.Fatalf("owner with all backends down = %d, want -1", got)
	}
	if err := p.HandleEviction(&kvstore.Eviction{Key: keyN(1), State: []float64{1}}); err != nil {
		t.Fatal(err)
	}
	if p.DroppedEvictions() != 1 || p.Offered() != 1 {
		t.Fatalf("dropped=%d offered=%d, want 1/1", p.DroppedEvictions(), p.Offered())
	}
}

// livePool spins up n real servers plus a pool over them.
func livePool(t *testing.T, n int, cfg PoolConfig) ([]*Server, *Pool) {
	t.Helper()
	f := fold.Count()
	srvs := make([]*Server, n)
	addrs := make([]string, n)
	for i := range srvs {
		srv, err := NewServer("127.0.0.1:0", f)
		if err != nil {
			t.Fatal(err)
		}
		srvs[i] = srv
		addrs[i] = srv.Addr()
		t.Cleanup(func() { srv.Close() })
	}
	p, err := DialPool(addrs, f, cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { p.Close() })
	return srvs, p
}

// TestPoolShipGetBasic: the happy path end to end — evictions fan out
// across both backends by key, Sync settles everything, every key is
// readable through the pool, and the conservation law holds with zero
// drops.
func TestPoolShipGetBasic(t *testing.T) {
	srvs, p := livePool(t, 2, PoolConfig{})
	const nkeys = 300
	for i := 0; i < nkeys; i++ {
		if err := p.HandleEviction(&kvstore.Eviction{Key: keyN(i), State: []float64{float64(i)}}); err != nil {
			t.Fatal(err)
		}
	}
	if err := p.Sync(); err != nil {
		t.Fatal(err)
	}
	if d := p.DroppedEvictions(); d != 0 {
		t.Fatalf("dropped %d evictions on a healthy pool", d)
	}
	if p.Offered() != nkeys || p.Acked() != nkeys {
		t.Fatalf("offered=%d acked=%d, want %d/%d", p.Offered(), p.Acked(), nkeys, nkeys)
	}
	applied := srvs[0].Store().Stats().Appends + srvs[1].Store().Stats().Appends
	if applied != nkeys {
		t.Fatalf("backends applied %d, want %d", applied, nkeys)
	}
	// Both backends should hold a share (rendezvous split the keyspace).
	for i, srv := range srvs {
		if srv.Store().Len() == 0 {
			t.Fatalf("backend %d holds no keys", i)
		}
	}
	for i := 0; i < nkeys; i++ {
		state, found, invalid, err := p.Get(keyN(i))
		if err != nil {
			t.Fatalf("get key %d: %v", i, err)
		}
		if !found || invalid {
			t.Fatalf("key %d: found=%v invalid=%v", i, found, invalid)
		}
		if state[0] != float64(i) {
			t.Fatalf("key %d: state %v", i, state[0])
		}
	}
}

// TestPoolSplitEpochInvalid: a key with epochs on two backends (what a
// failover window produces) must read as invalid, not as either half.
func TestPoolSplitEpochInvalid(t *testing.T) {
	srvs, p := livePool(t, 2, PoolConfig{})
	f := fold.Count()
	key := keyN(42)
	for _, srv := range srvs {
		one, err := DialPool([]string{srv.Addr()}, f, PoolConfig{})
		if err != nil {
			t.Fatal(err)
		}
		ship(t, one, key, 1)
		if err := one.Sync(); err != nil {
			t.Fatal(err)
		}
		if one.Acked() != 1 {
			t.Fatalf("%s acked %d, want 1", srv.Addr(), one.Acked())
		}
		one.Close()
	}
	_, found, invalid, err := p.Get(key)
	if err != nil {
		t.Fatal(err)
	}
	if found || !invalid {
		t.Fatalf("split-epoch key: found=%v invalid=%v, want invalid", found, invalid)
	}
}

// TestPoolStatsLine sanity-checks the log summary contains the
// conservation counters and every backend address.
func TestPoolStatsLine(t *testing.T) {
	_, p := livePool(t, 2, PoolConfig{})
	if err := p.HandleEviction(&kvstore.Eviction{Key: keyN(1), State: []float64{1}}); err != nil {
		t.Fatal(err)
	}
	if err := p.Sync(); err != nil {
		t.Fatal(err)
	}
	line := p.StatsLine()
	for _, want := range append(p.Addrs(), "offered=1", "acked=1", "dropped=0") {
		if !strings.Contains(line, want) {
			t.Fatalf("stats line missing %q: %s", want, line)
		}
	}
	st := p.Stats()
	if len(st) != 2 {
		t.Fatalf("stats for %d backends, want 2", len(st))
	}
	for _, bs := range st {
		if !bs.Reachable || !bs.Health.Healthy {
			t.Fatalf("backend %s: reachable=%v healthy=%v", bs.Addr, bs.Reachable, bs.Health.Healthy)
		}
	}
}

// TestPoolRejectsDuplicateAddr: a backend named twice would be two
// routing entries for one store — Get would fan out to both and read
// every key back invalid — so DialPool refuses it, naming the address.
func TestPoolRejectsDuplicateAddr(t *testing.T) {
	srvs, _ := livePool(t, 1, PoolConfig{})
	a := srvs[0].Addr()
	if p, err := DialPool([]string{a, a}, fold.Count(), PoolConfig{}); err == nil {
		p.Close()
		t.Fatalf("DialPool accepted %s twice", a)
	} else if !strings.Contains(err.Error(), a) {
		t.Fatalf("error %q does not name %s", err, a)
	}
}

// TestPoolCloseTwice: Close is idempotent — the second call returns
// nil instead of closing the probers' stop channels again.
func TestPoolCloseTwice(t *testing.T) {
	_, p := livePool(t, 2, PoolConfig{})
	if err := p.Close(); err != nil {
		t.Fatal(err)
	}
	if err := p.Close(); err != nil {
		t.Fatalf("second Close: %v", err)
	}
}
