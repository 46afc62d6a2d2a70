package main

import (
	"fmt"
	"io"
	"os"
	"time"

	"perfq/internal/compiler"
	"perfq/internal/exec"
	"perfq/internal/fabric"
	"perfq/internal/kvstore"
	"perfq/internal/netstore"
	"perfq/internal/switchsim"
	"perfq/internal/trace"
)

// The traced run. The benchmark is itself the driver: it calls the
// layers' public functions in pipeline order (source → Feed → Sync →
// Flush / CloseWindow / Collect → Pool.Sync) and records a span around
// each call. Nothing inside the program is instrumented.

// streamBatch is the records-per-Feed granularity of the staged
// pipeline on streaming sources — the facade's windowed runtime buffers
// the same number between Feed calls.
const streamBatch = 512

// fabricBatch is the records-per-Feed granularity on the fabric, whose
// facade entry feeds the whole slice; chunks keep spans readable.
const fabricBatch = 1 << 16

// staged is what the staged pipeline yields besides its spans.
type staged struct {
	trial int // the trial span

	cache     []kvstore.Stats // per program, summed over switches
	keys      int             // backing-store keys at close, summed over windows
	valid     int
	total     int
	offered   uint64   // evictions handed to the pool
	unrouted  uint64   // fabric: records of no known switch
	swPackets []uint64 // fabric: records per switch
}

// recordSource hands the staged pipeline its batches: pulled through
// Next into a buffer for streaming sources, in place for a slice.
type recordSource struct {
	src   trace.Source // nil: bulk slice
	recs  []trace.Record
	buf   []trace.Record
	name  string // span name and layer of a pull ("" = not timed)
	layer string
}

func (s *recordSource) next(max int) ([]trace.Record, error) {
	if s.src == nil {
		n := min(max, len(s.recs))
		batch := s.recs[:n]
		s.recs = s.recs[n:]
		if len(s.recs) == 0 {
			return batch, io.EOF
		}
		return batch, nil
	}
	if cap(s.buf) < max {
		s.buf = make([]trace.Record, max)
	}
	for n := 0; n < max; n++ {
		if err := s.src.Next(&s.buf[n]); err != nil {
			return s.buf[:n], err
		}
	}
	return s.buf[:max], nil
}

// openSource builds the workload's source for the staged pipeline and
// the per-call batch size.
func (w *workload) openSource(in *inputs) (src *recordSource, batch int, closeFn func(), err error) {
	closeFn = func() {}
	switch {
	case in.path != "":
		f, err := os.Open(in.path)
		if err != nil {
			return nil, 0, nil, err
		}
		r, err := trace.NewReader(f)
		if err != nil {
			f.Close()
			return nil, 0, nil, err
		}
		return &recordSource{src: r, name: "trace.read", layer: "trace"}, streamBatch, func() { f.Close() }, nil
	case w.window > 0:
		feed := &feedSource{recs: in.recs, window: int(w.window)}
		return &recordSource{src: feed, name: "bench.feed", layer: "bench"}, streamBatch, closeFn, nil
	case in.topo != nil:
		return &recordSource{recs: in.recs}, fabricBatch, closeFn, nil
	default:
		return &recordSource{recs: in.recs}, len(in.recs), closeFn, nil
	}
}

// runner is the part of Datapath and Fabric the staged pipeline drives.
type runner interface {
	Feed(recs []trace.Record)
	Sync()
	Flush()
	EndFeed()
	CloseWindow(carry bool) (map[string]*exec.Table, []switchsim.Acc, error)
	Stats() []kvstore.Stats
	Accuracy(i int) (valid, total int)
}

// stagedRun drives one traced trial of w under root.
func (w *workload) stagedRun(r *recorder, root int, in *inputs) (*staged, error) {
	plan := in.q.Plan()
	st := &staged{}
	cfg := switchsim.Config{
		Geometry: kvstore.SetAssociative(w.cachePairs, ways),
		Shards:   w.shards,
	}

	// The pool's producer side is timed by the benchmark's own OnEvict
	// wrapper: encode + queue push, per eviction, accumulated per span.
	var (
		pool    *netstore.Pool
		offerNs int64
		offerN  int64
	)
	if w.pool {
		cluster, err := in.q.ServeBackingStores(2)
		if err != nil {
			return nil, err
		}
		defer cluster.Close()
		pool, err = netstore.DialPool(cluster.Addrs(), plan.Programs[0].Fold,
			netstore.PoolConfig{QueueDepth: poolQueueDepth})
		if err != nil {
			return nil, err
		}
		defer pool.Close()
		cfg.OnEvict = func(_ int, ev *kvstore.Eviction) {
			t := time.Now()
			// HandleEviction's only error is an encoding bug; the books
			// below would show the eviction missing.
			_ = pool.HandleEviction(ev)
			offerNs += int64(time.Since(t))
			offerN++
		}
	}
	// offers closes a span that may have produced evictions, attributing
	// the accumulated producer time to an aggregate netstore child.
	endWithOffers := func(id int, records int64) {
		r.end(id, records)
		if offerN > 0 {
			r.agg(id, r.spans[id].Window, "netstore.offer", "netstore", r.spans[id].StartNs, offerNs, offerN)
			st.offered += uint64(offerN)
			offerNs, offerN = 0, 0
		}
	}

	src, batch, closeSrc, err := w.openSource(in)
	if err != nil {
		return nil, err
	}
	defer closeSrc()

	st.trial = r.begin(root, -1, "trial", "bench")
	var (
		run runner
		dp  *switchsim.Datapath
		fab *fabric.Fabric
	)
	if in.topo != nil {
		fab, err = fabric.New(plan, in.topo, fabric.Config{Switch: cfg})
		run = fab
	} else {
		dp, err = switchsim.New(plan, cfg)
		run = dp
	}
	if err != nil {
		return nil, err
	}
	feedName, feedLayer := "switchsim.feed", "switchsim"
	if fab != nil {
		feedName, feedLayer = "fabric.feed", "fabric"
	}
	// The facade's serial Run applies a streaming source one record at a
	// time through Process; every other entry goes through Feed.
	perRecord := dp != nil && w.window == 0 && w.shards <= 1 && src.src != nil

	win := -1
	if w.window > 0 {
		win = 0
	}
	account := func() {
		for i := range plan.Programs {
			v, t := run.Accuracy(i)
			st.valid += v
			st.total += t
		}
		if dp != nil {
			for _, s := range dp.StoreStats() {
				st.keys += s.Keys
			}
		} else {
			for _, id := range fab.Switches() {
				for _, s := range fab.Datapath(id).StoreStats() {
					st.keys += s.Keys
				}
			}
		}
	}
	closeWindow := func() error {
		c := r.begin(st.trial, win, "window.close", "window")
		id := r.begin(c, win, feedName+".sync", feedLayer)
		run.Sync()
		r.end(id, 0)
		id = r.begin(c, win, "kvstore.flush", "kvstore")
		run.Flush()
		endWithOffers(id, 0)
		account() // CloseWindow resets the stores; read them flushed
		id = r.begin(c, win, "switchsim.close_window", "switchsim")
		_, _, err := run.CloseWindow(false)
		r.end(id, 0)
		if pool != nil && err == nil {
			id = r.begin(c, win, "netstore.sync", "netstore")
			err = pool.Sync()
			r.end(id, 0)
		}
		r.end(c, 0)
		win++
		return err
	}

	inWin := int64(0)
	for {
		max := batch
		if w.window > 0 {
			max = int(min(int64(batch), w.window-inWin))
		}
		var id int
		if src.name != "" {
			id = r.begin(st.trial, win, src.name, src.layer)
		}
		recs, err := src.next(max)
		if src.name != "" {
			r.end(id, int64(len(recs)))
		}
		if err != nil && err != io.EOF {
			return nil, err
		}
		if len(recs) > 0 {
			id = r.begin(st.trial, win, feedName, feedLayer)
			if perRecord {
				for i := range recs {
					dp.Process(&recs[i])
				}
			} else {
				run.Feed(recs)
			}
			endWithOffers(id, int64(len(recs)))
			inWin += int64(len(recs))
		}
		if w.window > 0 && (inWin == w.window || (err == io.EOF && inWin > 0)) {
			if cerr := closeWindow(); cerr != nil {
				return nil, cerr
			}
			inWin = 0
		}
		if err == io.EOF {
			break
		}
	}
	if w.window == 0 {
		id := r.begin(st.trial, -1, feedName+".sync", feedLayer)
		run.Sync()
		run.EndFeed()
		r.end(id, 0)
		id = r.begin(st.trial, -1, "kvstore.flush", "kvstore")
		run.Flush()
		endWithOffers(id, 0)
		// Collect, taken apart: materialize the switch-resident stages,
		// then the collector pass over them.
		eng := exec.New(plan)
		var tabs map[string]*exec.Table
		if fab != nil {
			id = r.begin(st.trial, -1, "fabric.collect", "fabric")
			tabs = fab.NetworkTables()
		} else {
			id = r.begin(st.trial, -1, "switchsim.collect", "switchsim")
			tabs = dp.Tables()
		}
		r.end(id, 0)
		id = r.begin(st.trial, -1, "exec.finish", "exec")
		for name, t := range tabs {
			eng.SetTable(name, t)
		}
		_, err = eng.Finish()
		r.end(id, 0)
		if err != nil {
			return nil, err
		}
		account() // after the collect span: the fabric memoizes its merge
	} else {
		run.EndFeed()
	}
	r.end(st.trial, in.n)

	st.cache = run.Stats()
	if fab != nil {
		st.unrouted = fab.Unrouted()
		for _, id := range fab.Switches() {
			st.swPackets = append(st.swPackets, fab.Datapath(id).Packets())
		}
	}
	if pool != nil {
		if st.offered != pool.Offered() {
			return nil, fmt.Errorf("%s: wrapper saw %d evictions, pool was offered %d", w.name, st.offered, pool.Offered())
		}
		if pool.Acked() != st.offered {
			return nil, fmt.Errorf("%s: traced run: %d of %d evictions acked", w.name, pool.Acked(), st.offered)
		}
	}
	return st, nil
}

// keySpecs lists the plan's distinct GROUPBY key specs and, per
// program, which one it uses — the datapath packs each distinct key once
// per record.
func keySpecs(plan *compiler.Plan) (specs []*compiler.KeySpec, group []int) {
	group = make([]int, len(plan.Programs))
	for pi, sp := range plan.Programs {
		g := -1
		for i, s := range specs {
			if s.Equal(sp.Key) {
				g = i
			}
		}
		if g < 0 {
			g = len(specs)
			specs = append(specs, sp.Key)
		}
		group[pi] = g
	}
	return specs, group
}
