package perfq

import (
	"strings"
	"testing"
	"time"
)

// TestBackingPoolEndToEnd runs a query with its evictions mirrored into
// a two-backend pool and checks the books: every datapath eviction is
// offered, acked, applied by exactly one backend, and nothing dropped.
func TestBackingPoolEndToEnd(t *testing.T) {
	q := MustCompile("SELECT COUNT GROUPBY 5tuple")
	cluster, err := q.ServeBackingStores(2)
	if err != nil {
		t.Fatal(err)
	}
	defer cluster.Close()
	pool, err := q.DialBackingPool(cluster.Addrs(), BackingPoolConfig{QueueDepth: 1 << 16})
	if err != nil {
		t.Fatal(err)
	}
	defer pool.Close()

	res, err := q.Run(DCTrace(4, 2*time.Second), WithCache(128, 8), WithBackingPool(pool))
	if err != nil {
		t.Fatal(err)
	}
	if res.Evictions == 0 {
		t.Fatal("tiny cache produced no evictions; nothing exercised the pool")
	}
	if err := pool.Sync(); err != nil {
		t.Fatal(err)
	}
	if d := pool.DroppedEvictions(); d != 0 {
		t.Fatalf("healthy pool dropped %d evictions", d)
	}
	for i, h := range pool.Healthy() {
		if !h {
			t.Fatalf("backend %d unhealthy after a clean run", i)
		}
	}
	var applied, stored uint64
	for _, bs := range pool.Stats() {
		if !bs.Reachable {
			t.Fatalf("backend %s unreachable for stats", bs.Addr)
		}
		applied += bs.Server.Applied()
		stored += bs.Server.Keys
	}
	if want := res.Evictions + res.Flushed; applied != want {
		t.Fatalf("backends applied %d evictions, datapath emitted %d", applied, want)
	}
	if stored == 0 {
		t.Fatal("no keys landed in the backing tier")
	}
}

// TestBackingPoolWithShards: the eviction callbacks fire from
// concurrent shard workers; the pool must keep exact books anyway.
func TestBackingPoolWithShards(t *testing.T) {
	q := MustCompile("SELECT COUNT GROUPBY 5tuple")
	cluster, err := q.ServeBackingStores(2)
	if err != nil {
		t.Fatal(err)
	}
	defer cluster.Close()
	pool, err := q.DialBackingPool(cluster.Addrs(), BackingPoolConfig{QueueDepth: 1 << 16})
	if err != nil {
		t.Fatal(err)
	}
	defer pool.Close()

	res, err := q.Run(DCTrace(4, 2*time.Second),
		WithCache(128, 8), WithShards(2), WithBackingPool(pool))
	if err != nil {
		t.Fatal(err)
	}
	if err := pool.Sync(); err != nil {
		t.Fatal(err)
	}
	if d := pool.DroppedEvictions(); d != 0 {
		t.Fatalf("healthy pool dropped %d evictions", d)
	}
	var applied uint64
	for _, bs := range pool.Stats() {
		applied += bs.Server.Applied()
	}
	if want := res.Evictions + res.Flushed; applied != want {
		t.Fatalf("backends applied %d evictions, datapath emitted %d", applied, want)
	}
}

// TestBackingPoolDuplicateAddr: an address listed twice is refused at
// dial time, naming it, instead of reading every key back invalid.
func TestBackingPoolDuplicateAddr(t *testing.T) {
	q := MustCompile("SELECT COUNT GROUPBY 5tuple")
	cluster, err := q.ServeBackingStores(1)
	if err != nil {
		t.Fatal(err)
	}
	defer cluster.Close()
	a := cluster.Addrs()[0]
	pool, err := q.DialBackingPool([]string{a, a}, BackingPoolConfig{})
	if err == nil {
		pool.Close()
		t.Fatalf("DialBackingPool accepted %s twice", a)
	}
	if !strings.Contains(err.Error(), a) {
		t.Fatalf("error %q does not name %s", err, a)
	}
}

// TestBackingPoolCloseTwice: a second Close returns nil.
func TestBackingPoolCloseTwice(t *testing.T) {
	q := MustCompile("SELECT COUNT GROUPBY 5tuple")
	cluster, err := q.ServeBackingStores(2)
	if err != nil {
		t.Fatal(err)
	}
	defer cluster.Close()
	pool, err := q.DialBackingPool(cluster.Addrs(), BackingPoolConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if err := pool.Close(); err != nil {
		t.Fatal(err)
	}
	if err := pool.Close(); err != nil {
		t.Fatalf("second Close: %v", err)
	}
}
