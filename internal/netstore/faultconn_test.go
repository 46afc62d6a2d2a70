package netstore

import (
	"errors"
	"io"
	"net"
	"testing"
	"time"
)

// pipeConns returns a connected in-memory pair (deadline-capable).
func pipeConns() (net.Conn, net.Conn) { return net.Pipe() }

// TestFaultConnResetDeterministic proves the schedule is a function of
// the spec alone: the reset fires on exactly the configured write, on
// every run.
func TestFaultConnResetDeterministic(t *testing.T) {
	for run := 0; run < 3; run++ {
		a, b := pipeConns()
		go io.Copy(io.Discard, b)
		fc := NewFaultConn(a, FaultSpec{Seed: 7, ResetOnWrite: 3})
		buf := []byte("hello")
		for i := 1; i <= 2; i++ {
			if _, err := fc.Write(buf); err != nil {
				t.Fatalf("run %d write %d: unexpected error %v", run, i, err)
			}
		}
		if _, err := fc.Write(buf); !errors.Is(err, ErrInjectedReset) {
			t.Fatalf("run %d write 3: got %v, want injected reset", run, err)
		}
		// The conn is dead for good afterwards.
		if _, err := fc.Write(buf); !errors.Is(err, ErrInjectedReset) {
			t.Fatalf("run %d write 4 after reset: got %v", run, err)
		}
		fc.Close()
		b.Close()
	}
}

// TestFaultConnPartialWrite delivers half the bytes then resets: the
// peer must observe a truncated stream, not a clean close after a full
// frame.
func TestFaultConnPartialWrite(t *testing.T) {
	a, b := pipeConns()
	got := make(chan int, 1)
	go func() {
		n, _ := io.Copy(io.Discard, b)
		got <- int(n)
	}()
	fc := NewFaultConn(a, FaultSpec{PartialWrite: 1})
	payload := make([]byte, 64)
	n, err := fc.Write(payload)
	if !errors.Is(err, ErrInjectedReset) {
		t.Fatalf("write: got %v, want injected reset", err)
	}
	if n != 32 {
		t.Fatalf("partial write wrote %d bytes, want 32", n)
	}
	if seen := <-got; seen != 32 {
		t.Fatalf("peer saw %d bytes, want 32", seen)
	}
	b.Close()
}

// TestFaultConnStallHonorsDeadline is the wedge the deadline plumbing
// exists for: a stalled write returns a timeout at the deadline instead
// of hanging forever.
func TestFaultConnStallHonorsDeadline(t *testing.T) {
	a, b := pipeConns()
	defer b.Close()
	fc := NewFaultConn(a, FaultSpec{StallOnWrite: 1})
	fc.SetWriteDeadline(time.Now().Add(100 * time.Millisecond))
	start := time.Now()
	_, err := fc.Write([]byte("stalled"))
	elapsed := time.Since(start)
	var nerr net.Error
	if !errors.As(err, &nerr) || !nerr.Timeout() {
		t.Fatalf("stalled write: got %v, want a net.Error timeout", err)
	}
	if elapsed < 80*time.Millisecond || elapsed > 2*time.Second {
		t.Fatalf("stalled write returned after %v, want ~100ms", elapsed)
	}
	fc.Close()
}

// TestFaultConnStallUnblocksOnClose: without a deadline a stall parks
// until Close — the shape of a peer that never answers — and Close
// releases it.
func TestFaultConnStallUnblocksOnClose(t *testing.T) {
	a, b := pipeConns()
	defer b.Close()
	fc := NewFaultConn(a, FaultSpec{StallOnRead: 1})
	done := make(chan error, 1)
	go func() {
		_, err := fc.Read(make([]byte, 8))
		done <- err
	}()
	time.Sleep(20 * time.Millisecond)
	fc.Close()
	select {
	case err := <-done:
		if !errors.Is(err, ErrInjectedReset) {
			t.Fatalf("stalled read after close: got %v", err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("stalled read not released by Close")
	}
}
