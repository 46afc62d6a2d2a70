package perfq

// Batched-ingest suite. Every driver (Datapath.Run, Fabric.Run,
// window.Stream) pulls its source through one loop of record runs, so
// the shape a stream arrives in — a slice, a pqt file, a live generator,
// anything with only Next — and the length of the runs it is cut into
// must be unobservable in the results, and a source that fails must
// leave exactly the records it yielded applied and no goroutine behind.

import (
	"bytes"
	"errors"
	"fmt"
	"runtime"
	"slices"
	"testing"
	"time"

	"perfq/internal/fabric"
	"perfq/internal/kvstore"
	"perfq/internal/netsim"
	"perfq/internal/switchsim"
	"perfq/internal/topo"
	"perfq/internal/trace"
	"perfq/internal/tracegen"
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

// rebatch re-cuts a source's own runs into runs of at most n records:
// the suite's handle on batch length, which is deliberately not a knob
// of the library. Drivers must never fall back to pulling it one record
// at a time.
type rebatch struct {
	bs   trace.BatchSource
	n    int
	pend []Record
}

func (r *rebatch) Next(*Record) error { panic("driver pulled a batch source record by record") }

func (r *rebatch) NextBatch() ([]Record, error) {
	if len(r.pend) == 0 {
		recs, err := r.bs.NextBatch()
		if err != nil {
			return nil, err
		}
		r.pend = recs
	}
	k := min(r.n, len(r.pend))
	run := r.pend[:k]
	r.pend = r.pend[k:]
	return run, nil
}

// shapeRun is what one run leaves behind that a caller can observe.
type shapeRun struct {
	tables             map[string]*Table
	evictions, flushed uint64
	valid, total       int
	accs               [][2]int
	windows            []*WindowResult
}

func runShape(t *testing.T, q *Query, src Source, windowed bool, opts []RunOption) shapeRun {
	t.Helper()
	var (
		out shapeRun
		res *Results
		err error
	)
	if windowed {
		res, err = q.Stream(src, func(w *WindowResult) error {
			out.windows = append(out.windows, w)
			return nil
		}, opts...)
	} else {
		res, err = q.Run(src, opts...)
	}
	if err != nil {
		t.Fatal(err)
	}
	out.tables = allTables(res)
	out.evictions, out.flushed = res.Evictions, res.Flushed
	out.valid, out.total = res.ValidKeys, res.TotalKeys
	for i := 0; i < res.Programs(); i++ {
		v, tot := res.Accuracy(i)
		out.accs = append(out.accs, [2]int{v, tot})
	}
	return out
}

func requireSameRun(t *testing.T, label string, got, want shapeRun) {
	t.Helper()
	if got.evictions != want.evictions || got.flushed != want.flushed {
		t.Fatalf("%s: evictions/flushed %d/%d, want %d/%d", label, got.evictions, got.flushed, want.evictions, want.flushed)
	}
	if got.valid != want.valid || got.total != want.total || !slices.Equal(got.accs, want.accs) {
		t.Fatalf("%s: accuracy %d/%d %v, want %d/%d %v", label, got.valid, got.total, got.accs, want.valid, want.total, want.accs)
	}
	for name, wt := range want.tables {
		requireTablesIdentical(t, label+"/"+name, got.tables[name], wt)
	}
	if len(got.windows) != len(want.windows) {
		t.Fatalf("%s: %d windows, want %d", label, len(got.windows), len(want.windows))
	}
	for k, ww := range want.windows {
		gw := got.windows[k]
		wl := fmt.Sprintf("%s/w%d", label, k)
		if gw.Index != ww.Index || gw.Records != ww.Records || gw.Start != ww.Start || gw.End != ww.End || gw.Evictions != ww.Evictions {
			t.Fatalf("%s: index/records/span/evictions %d/%d/%v-%v/%d, want %d/%d/%v-%v/%d", wl,
				gw.Index, gw.Records, gw.Start, gw.End, gw.Evictions, ww.Index, ww.Records, ww.Start, ww.End, ww.Evictions)
		}
		if gw.ValidKeys != ww.ValidKeys || gw.TotalKeys != ww.TotalKeys ||
			gw.WindowValidKeys != ww.WindowValidKeys || gw.WindowTotalKeys != ww.WindowTotalKeys {
			t.Fatalf("%s: accuracy %d/%d (window %d/%d), want %d/%d (window %d/%d)", wl,
				gw.ValidKeys, gw.TotalKeys, gw.WindowValidKeys, gw.WindowTotalKeys,
				ww.ValidKeys, ww.TotalKeys, ww.WindowValidKeys, ww.WindowTotalKeys)
		}
		for name, wt := range ww.tables {
			requireTablesIdentical(t, wl+"/"+name, gw.Table(name), &Table{Schema: wt.Schema, Rows: wt.Rows})
		}
	}
}

// TestSourceShapeEquivalence: the same records, presented in every shape
// a source can take and cut into runs of 1, 63, 64, 65 and 512 records
// (one short of, exactly, and one past the columnar block; and the
// adaptor's own length), must give bit-identical tables, eviction and
// flush counts, accuracy and per-window records under every driver —
// single and sharded datapath, count and interval windows whose
// boundaries fall inside runs, and the fabric.
func TestSourceShapeEquivalence(t *testing.T) {
	forceProcs(t) // the worker pool, not its inline bypass
	q := MustCompile(`const alpha = 0.125
def ewma(lat_est, (tin, tout)):
    lat_est = (1 - alpha) * lat_est + alpha * (tout - tin)
def nonmt((maxseq, nm_count), tcpseq):
    if maxseq > tcpseq:
        nm_count = nm_count + 1
    maxseq = max(maxseq, tcpseq)
R1 = SELECT 5tuple, ewma GROUPBY 5tuple
R2 = SELECT 5tuple, nonmt GROUPBY 5tuple WHERE proto == 6
R3 = SELECT qid, tin, pkt_len WHERE pkt_len > 1400
R4 = SELECT srcip, COUNT GROUPBY srcip WHERE pkt_len > 100
R5 = SELECT COUNT, SUM(pkt_len) GROUPBY srcip, dstip, srcport, dstport, proto, qid
`)
	// R4 groups by a different key than R1/R2, so a sharded run hands each
	// shard sparse, disjoint lanes of a block; R5's key is a digest.
	if q.plan.Programs[len(q.plan.Programs)-1].Key.Packed {
		t.Fatal("R5's key packs into 128 bits; no digest-key program in the plan")
	}

	genCfg := tracegen.DCConfig(21, time.Hour)
	genCfg.MaxPackets = 9000
	genRecs, err := trace.Collect(tracegen.New(genCfg))
	if err != nil {
		t.Fatal(err)
	}
	tp := topo.LeafSpine(2, 2, 4, topo.Options{})
	netRecs, err := netsim.GenWorkload(tp, netsim.Workload{Seed: 7, Flows: 100})
	if err != nil {
		t.Fatal(err)
	}
	if len(netRecs) > 9000 {
		netRecs = netRecs[:9000]
	}

	type shape struct {
		name string
		open func() Source
	}
	shapesOf := func(recs []Record) []shape {
		file := pqtFile(t, recs)
		return []shape{
			{"slice", func() Source { return Records(recs) }},
			{"pqt", func() Source { return pqtReader(t, file) }},
			{"next-only", func() Source { return nextOnly{src: Records(recs)} }},
		}
	}
	genShapes := append(shapesOf(genRecs),
		shape{"tracegen", func() Source { return tracegen.New(genCfg) }})
	netShapes := shapesOf(netRecs)

	span := time.Duration(genRecs[len(genRecs)-1].Tin - genRecs[0].Tin)
	count := WithWindow(WindowSpec{Count: 1000, Keep: 64})
	interval := WithWindow(WindowSpec{Interval: span / 7, Keep: 64})
	cache := WithCache(128, 8) // far below the key count: evictions and invalid keys
	layouts := []struct {
		name     string
		shapes   []shape
		windowed bool
		opts     []RunOption
	}{
		{"run/shards1", genShapes, false, []RunOption{cache}},
		{"run/shards2", genShapes, false, []RunOption{cache, WithShards(2)}},
		{"count/shards1", genShapes, true, []RunOption{cache, count}},
		{"count/shards2", genShapes, true, []RunOption{cache, count, WithShards(2)}},
		{"interval/shards1", genShapes, true, []RunOption{cache, interval}},
		{"interval/shards2", genShapes, true, []RunOption{cache, interval, WithShards(2)}},
		{"fabric/run", netShapes, false, []RunOption{cache, WithFabric(tp)}},
		{"fabric/count", netShapes, true, []RunOption{cache, count, WithFabric(tp)}},
	}
	for _, lay := range layouts {
		want := runShape(t, q, lay.shapes[0].open(), lay.windowed, lay.opts)
		invalid := want.total - want.valid
		for _, w := range want.windows {
			invalid += w.TotalKeys - w.ValidKeys
		}
		if want.evictions == 0 || invalid == 0 {
			t.Fatalf("%s: reference run has %d evictions and %d invalid keys; nothing would distinguish a misapplied record",
				lay.name, want.evictions, invalid)
		}
		if lay.windowed && len(want.windows) < 5 {
			t.Fatalf("%s: only %d windows", lay.name, len(want.windows))
		}
		for _, sh := range lay.shapes {
			for _, n := range []int{0, 1, 63, 64, 65, 512} {
				src := sh.open()
				if n > 0 {
					src = &rebatch{bs: trace.Batches(src), n: n}
				}
				label := fmt.Sprintf("%s/%s/batch%d", lay.name, sh.name, n)
				requireSameRun(t, label, runShape(t, q, src, lay.windowed, lay.opts), want)
			}
		}
	}
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
