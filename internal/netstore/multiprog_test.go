package netstore

import (
	"testing"

	"perfq/internal/fold"
)

// TestObsServerMultiProgram pins the program-aware HELLO: one server
// hosting two folds of different state widths, a legacy client bound to
// program 0 and an extended-handshake client bound to program 1, each
// eviction landing in its own store.
func TestObsServerMultiProgram(t *testing.T) {
	f0 := fold.Count()           // m = 1
	f1 := fold.Ewma(lat(), 0.25) // m = 1, linear with P
	srv, err := NewServer("127.0.0.1:0", f0, f1)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	if srv.Programs() != 2 {
		t.Fatalf("Programs() = %d, want 2", srv.Programs())
	}

	// Legacy handshake binds program 0.
	p0 := onePool(t, srv.Addr(), f0, PoolConfig{})
	// Extended handshake binds program 1.
	p1 := onePool(t, srv.Addr(), f1, PoolConfig{Client: Options{Program: 1}})

	ship(t, p0, keyN(1), 3)
	ship(t, p1, keyN(2), 7)
	if err := p0.Sync(); err != nil {
		t.Fatal(err)
	}
	if err := p1.Sync(); err != nil {
		t.Fatal(err)
	}
	if p0.Acked() != 1 || p1.Acked() != 1 {
		t.Fatalf("acked %d and %d, want 1 and 1", p0.Acked(), p1.Acked())
	}

	if n := srv.StoreFor(0).Len(); n != 1 {
		t.Errorf("program 0 store has %d keys, want 1", n)
	}
	if n := srv.StoreFor(1).Len(); n != 1 {
		t.Errorf("program 1 store has %d keys, want 1", n)
	}
	if _, ok := srv.StoreFor(0).Get(keyN(2)); ok {
		t.Error("program 1's key leaked into program 0's store")
	}
	if _, ok := srv.StoreFor(1).Get(keyN(1)); ok {
		t.Error("program 0's key leaked into program 1's store")
	}
	if srv.StoreFor(2) != nil {
		t.Error("StoreFor(2) should be nil on a two-program server")
	}
}

// TestObsServerRejectsUnknownProgram: a handshake naming a program the
// server does not host must be refused, not silently bound elsewhere.
func TestObsServerRejectsUnknownProgram(t *testing.T) {
	f := fold.Count()
	srv, err := NewServer("127.0.0.1:0", f)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	p := onePool(t, srv.Addr(), f, PoolConfig{Client: Options{Program: 3}})
	if p.Healthy()[0] {
		t.Fatal("handshake with program 3 against a one-program server succeeded")
	}
}

// TestObsServerNeedsFold: a server without folds is a configuration
// error, caught at construction.
func TestObsServerNeedsFold(t *testing.T) {
	if _, err := NewServer("127.0.0.1:0"); err == nil {
		t.Fatal("NewServer with no folds succeeded")
	}
}

// TestObsProbeProgramAware: the health probe handshakes against the
// probed program's state width, so a prober for program 1 succeeds on a
// server whose program 0 has a different width.
func TestObsProbeProgramAware(t *testing.T) {
	f0 := fold.Count()    // m = 1
	f1 := fold.Avg(lat()) // m = 2
	srv, err := NewServer("127.0.0.1:0", f0, f1)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	dialer := Options{}.withDefaults().Dialer
	if err := probeBackend(dialer, srv.Addr(), f1.StateLen(), 1, DefaultTimeout); err != nil {
		t.Fatalf("program-1 probe failed: %v", err)
	}
	// The same width against program 0 must be refused (width mismatch).
	if err := probeBackend(dialer, srv.Addr(), f1.StateLen(), 0, DefaultTimeout); err == nil {
		t.Fatal("width-2 probe against the width-1 program succeeded")
	}
}
