package perfq

// Source shapes. Every driver (Datapath.Run, Fabric.Run, window.Stream)
// pulls its source through one loop of record runs; the whole-system
// differential (system_test.go) feeds it every shape and run length. A
// source that fails must leave exactly the records it yielded applied and
// no goroutine behind.

import (
	"bytes"
	"errors"
	"fmt"
	"runtime"
	"testing"
	"time"

	"perfq/internal/fabric"
	"perfq/internal/kvstore"
	"perfq/internal/netsim"
	"perfq/internal/switchsim"
	"perfq/internal/topo"
	"perfq/internal/trace"
	"perfq/internal/window"
)

// pqtFile encodes recs as an in-memory pqt file.
func pqtFile(t testing.TB, recs []Record) []byte {
	t.Helper()
	var buf bytes.Buffer
	w, err := trace.NewWriter(&buf)
	if err != nil {
		t.Fatal(err)
	}
	for i := range recs {
		if err := w.Write(&recs[i]); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// pqtReader opens an in-memory pqt file.
func pqtReader(t testing.TB, file []byte) Source {
	t.Helper()
	r, err := trace.NewReader(bytes.NewReader(file))
	if err != nil {
		t.Fatal(err)
	}
	return r
}

// pqtSource presents recs as a pqt file behind trace.Reader.
func pqtSource(t testing.TB, recs []Record) Source {
	t.Helper()
	return pqtReader(t, pqtFile(t, recs))
}

// nextOnly hides every method of a source but Next, so the drivers must
// go through the batching adaptor. After the inner source ends, end
// (when set) replaces its io.EOF — a live source failing mid-stream.
type nextOnly struct {
	src Source
	end error
}

func (s nextOnly) Next(rec *Record) error {
	err := s.src.Next(rec)
	if err != nil && s.end != nil {
		return s.end
	}
	return err
}

// requireGoroutines waits for the goroutine count to come back down to
// want: a closed pool's workers have signalled their exit when Close
// returns, but may not have finished it.
func requireGoroutines(t *testing.T, label string, want int) {
	t.Helper()
	deadline := time.Now().Add(2 * time.Second)
	for runtime.NumGoroutine() > want {
		if time.Now().After(deadline) {
			t.Fatalf("%s: %d goroutines, %d before the run", label, runtime.NumGoroutine(), want)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestSourceErrorPath: a live source that fails mid-stream, and a pqt
// file cut inside a record, must feed every record read before the
// error, stop whatever workers the run started, and surface the
// source's error verbatim — from Datapath.Run, window.Stream and
// Fabric.Run, at one shard and at two.
func TestSourceErrorPath(t *testing.T) {
	forceProcs(t)
	q := MustCompile("SELECT COUNT GROUPBY 5tuple")
	tp := topo.LeafSpine(2, 2, 4, topo.Options{})
	recs, err := netsim.GenWorkload(tp, netsim.Workload{Seed: 7, Flows: 60})
	if err != nil {
		t.Fatal(err)
	}
	const n = 3000 // not a multiple of the batch length: the error follows a short run
	recs = recs[:n+1]
	boom := errors.New("capture interface went away")
	file := pqtFile(t, recs)
	sources := []struct {
		name  string
		open  func() Source
		wants func(error) bool
	}{
		{"failing-source", func() Source { return nextOnly{src: Records(recs[:n]), end: boom} },
			func(err error) bool { return err == boom }},
		{"truncated-pqt", func() Source { return pqtReader(t, file[:len(file)-10]) },
			func(err error) bool { return errors.Is(err, trace.ErrTruncated) }},
	}
	for _, src := range sources {
		for _, shards := range []int{1, 2} {
			cfg := switchsim.Config{Geometry: kvstore.SetAssociative(256, 8), Shards: shards}
			drivers := []struct {
				name string
				run  func() (packets uint64, err error)
			}{
				{"Datapath.Run", func() (uint64, error) {
					dp, err := switchsim.New(q.plan, cfg)
					if err != nil {
						t.Fatal(err)
					}
					err = dp.Run(src.open())
					return dp.Packets(), err
				}},
				{"window.Stream", func() (uint64, error) {
					dp, err := switchsim.New(q.plan, cfg)
					if err != nil {
						t.Fatal(err)
					}
					_, err = window.Stream(src.open(), window.Spec{Count: 700}, dp, nil)
					return dp.Packets(), err
				}},
				{"Fabric.Run", func() (uint64, error) {
					f, err := fabric.New(q.plan, tp, fabric.Config{Switch: cfg})
					if err != nil {
						t.Fatal(err)
					}
					err = f.Run(src.open())
					return f.Packets(), err
				}},
			}
			for _, d := range drivers {
				label := fmt.Sprintf("%s/%s/shards%d", d.name, src.name, shards)
				before := runtime.NumGoroutine()
				packets, err := d.run()
				if !src.wants(err) {
					t.Errorf("%s: error %v is not the source's own", label, err)
				}
				if packets != n {
					t.Errorf("%s: %d records applied, the source yielded %d before failing", label, packets, n)
				}
				requireGoroutines(t, label, before)
			}
		}
	}
}
