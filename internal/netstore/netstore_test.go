package netstore

import (
	"math"
	"math/rand"
	"net"
	"testing"
	"time"

	"perfq/internal/fold"
	"perfq/internal/kvstore"
	"perfq/internal/packet"
	"perfq/internal/trace"
)

func lat() fold.Expr {
	return fold.Bin{Op: fold.OpSub, L: fold.FieldRef(trace.FieldTout), R: fold.FieldRef(trace.FieldTin)}
}

func keyN(n int) packet.Key128 {
	return packet.FiveTuple{
		Src: packet.Addr4FromUint32(uint32(n)), Dst: packet.Addr4{1, 1, 1, 1},
		SrcPort: uint16(n), DstPort: 80, Proto: packet.ProtoTCP,
	}.Pack()
}

// startServer starts a server for f and a one-backend pool over it —
// the client production uses — with a queue deep enough that no test
// stream overflows it.
func startServer(t *testing.T, f *fold.Func) (*Server, *Pool) {
	t.Helper()
	srv, err := NewServer("127.0.0.1:0", f)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })
	return srv, onePool(t, srv.Addr(), f, PoolConfig{QueueDepth: 1 << 16})
}

// onePool dials a pool over the one backend addr, closed at cleanup.
func onePool(t *testing.T, addr string, f *fold.Func, cfg PoolConfig) *Pool {
	t.Helper()
	p, err := DialPool([]string{addr}, f, cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { p.Close() })
	return p
}

// ship offers one eviction to the pool; the pool's only error is an
// encoding bug.
func ship(t *testing.T, p *Pool, key packet.Key128, state ...float64) {
	t.Helper()
	if err := p.HandleEviction(&kvstore.Eviction{Key: key, State: state}); err != nil {
		t.Fatal(err)
	}
}

// serverStats reads the one backend's store counters through the pool.
func serverStats(t *testing.T, p *Pool) Stats {
	t.Helper()
	st := p.Stats()[0]
	if !st.Reachable {
		t.Fatalf("backend %s unreachable for stats", st.Addr)
	}
	return st.Server
}

// TestRemoteMergeMatchesLocal drives the same eviction stream into a local
// backing store and a remote one; results must agree exactly.
func TestRemoteMergeMatchesLocal(t *testing.T) {
	f := fold.Ewma(lat(), 0.25)
	srv, p := startServer(t, f)

	// Build evictions through a real cache so P and first-record payloads
	// are genuine.
	rng := rand.New(rand.NewSource(41))
	local := make(map[packet.Key128]float64)
	cache, err := kvstore.New(kvstore.Config{
		Geometry:   kvstore.HashTable(16),
		Fold:       f,
		ExactMerge: true,
		OnEvict: func(ev *kvstore.Eviction) {
			if err := p.HandleEviction(ev); err != nil {
				t.Fatalf("remote eviction: %v", err)
			}
		},
	})
	if err != nil {
		t.Fatal(err)
	}

	truth := map[packet.Key128][]float64{}
	for i := 0; i < 5000; i++ {
		k := keyN(rng.Intn(200))
		tin := rng.Int63n(1 << 30)
		rec := &trace.Record{Tin: tin, Tout: tin + rng.Int63n(1000) + 1}
		st := truth[k]
		if st == nil {
			st = f.Prog.InitState()
			truth[k] = st
		}
		f.Update(st, &fold.Input{Rec: rec})
		cache.Process(k, &fold.Input{Rec: rec})
	}
	cache.Flush()
	if err := p.Sync(); err != nil {
		t.Fatal(err)
	}
	if d := p.DroppedEvictions(); d != 0 {
		t.Fatalf("dropped %d evictions on a healthy backend", d)
	}

	for k, want := range truth {
		state, found, invalid, err := p.Get(k)
		if err != nil {
			t.Fatal(err)
		}
		if !found || invalid {
			t.Fatalf("key %v: found=%v invalid=%v", k, found, invalid)
		}
		if math.Abs(state[0]-want[0]) > 1e-9*math.Max(1, math.Abs(want[0])) {
			t.Fatalf("key %v: remote %v, truth %v", k, state[0], want[0])
		}
	}
	_ = local

	st := serverStats(t, p)
	if st.Keys != uint64(len(truth)) {
		t.Errorf("server keys = %d, want %d", st.Keys, len(truth))
	}
	if st.Merges == 0 {
		t.Error("no merges recorded")
	}
	if got := srv.Store().Len(); got != len(truth) {
		t.Errorf("in-process view: %d keys", got)
	}
}

func TestGetAbsentAndInvalid(t *testing.T) {
	// A fold with no merge class: epoch semantics.
	f := &fold.Func{Prog: &fold.Program{
		Name: "last", NumState: 1,
		Body: []fold.Stmt{fold.Assign{Dst: 0, RHS: fold.FieldRef(trace.FieldPktLen)}},
	}}
	_, p := startServer(t, f)

	if _, found, invalid, err := p.Get(keyN(1)); err != nil || found || invalid {
		t.Fatalf("absent key: %v %v %v", found, invalid, err)
	}
	ship(t, p, keyN(1), 42)
	if err := p.Sync(); err != nil {
		t.Fatal(err)
	}
	if state, found, _, _ := p.Get(keyN(1)); !found || state[0] != 42 {
		t.Fatalf("single epoch: %v %v", state, found)
	}
	// Second epoch invalidates.
	ship(t, p, keyN(1), 43)
	if err := p.Sync(); err != nil {
		t.Fatal(err)
	}
	if _, found, invalid, _ := p.Get(keyN(1)); found || !invalid {
		t.Fatalf("multi-epoch key: found=%v invalid=%v", found, invalid)
	}
	st := serverStats(t, p)
	if st.Valid != 0 || st.Total != 1 {
		t.Errorf("accuracy stats: %d/%d", st.Valid, st.Total)
	}
}

func TestReset(t *testing.T) {
	f := fold.Count()
	_, p := startServer(t, f)
	ship(t, p, keyN(1), 1)
	if err := p.Sync(); err != nil {
		t.Fatal(err)
	}
	if err := p.Reset(); err != nil {
		t.Fatal(err)
	}
	st := serverStats(t, p)
	if st.Keys != 0 {
		t.Errorf("keys after reset = %d", st.Keys)
	}
}

func TestHandshakeRejectsWrongStateLen(t *testing.T) {
	srv, err := NewServer("127.0.0.1:0", fold.Count()) // m = 1
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	p := onePool(t, srv.Addr(), fold.Avg(lat()), PoolConfig{}) // m = 2
	if p.Healthy()[0] {
		t.Fatal("mismatched state length accepted")
	}
}

func TestMalformedFramesClose(t *testing.T) {
	srv, err := NewServer("127.0.0.1:0", fold.Count())
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	cases := [][]byte{
		{0xff, 0xff, 0xff, 0xff, 0x01},       // absurd length
		{0x01, 0x00, 0x00, 0x00, 0x63},       // unknown op before hello
		{0x05, 0x00, 0x00, 0x00, 0x01, 1, 2}, // truncated hello body
	}
	for i, frame := range cases {
		conn, err := net.Dial("tcp", srv.Addr())
		if err != nil {
			t.Fatal(err)
		}
		conn.Write(frame)
		buf := make([]byte, 16)
		conn.SetReadDeadline(time.Now().Add(2 * time.Second))
		// The server must close the connection (read returns error/EOF)
		// rather than hang or crash.
		if _, err := conn.Read(buf); err == nil {
			// A response is acceptable only if it is an error status.
			if len(buf) >= 5 && buf[4] == StatusOK {
				t.Errorf("case %d: malformed frame acknowledged OK", i)
			}
		}
		conn.Close()
	}
}

// TestClientReconnect: a connection killed under the shipper costs
// what was in flight on it, and the next chunk redials on its own — an
// I/O error against a live peer is not a markdown.
func TestClientReconnect(t *testing.T) {
	f := fold.Count()
	srv, err := NewServer("127.0.0.1:0", f)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })
	// No periodic probe: a probe cut by the kill below would mark the
	// backend down.
	p := onePool(t, srv.Addr(), f, PoolConfig{ProbeInterval: time.Hour})
	ship(t, p, keyN(1), 1)
	if err := p.Sync(); err != nil {
		t.Fatal(err)
	}
	// Kill the connection under the client, from the server's side.
	srv.connMu.Lock()
	for conn := range srv.conns {
		conn.Close()
	}
	srv.connMu.Unlock()
	// The next chunk lands on the dead connection (lost) or fails its
	// write; the one after it reconnects.
	ship(t, p, keyN(2), 1)
	if err := p.Sync(); err != nil {
		t.Fatal(err)
	}
	ship(t, p, keyN(3), 1)
	if err := p.Sync(); err != nil {
		t.Fatal(err)
	}
	if !p.Healthy()[0] {
		t.Fatal("a connection reset against a live peer marked the backend down")
	}
	st := p.Stats()[0]
	if st.Reconnects < 2 {
		t.Fatalf("reconnects = %d, want ≥ 2", st.Reconnects)
	}
	if st.Acked+st.Dropped != 3 {
		t.Fatalf("books: acked %d + dropped %d != 3", st.Acked, st.Dropped)
	}
	if state, found, _, err := p.Get(keyN(3)); err != nil || !found || state[0] != 1 {
		t.Fatalf("key after reconnect: %v found=%v err=%v", state, found, err)
	}
	if st.Server.Keys < 2 {
		t.Errorf("server lost all state: %+v", st.Server)
	}
}
