package fabric

import (
	"math"
	"reflect"
	"runtime"
	"testing"

	"perfq/internal/compiler"
	"perfq/internal/exec"
	"perfq/internal/fold"
	"perfq/internal/kvstore"
	"perfq/internal/lang"
	"perfq/internal/netsim"
	"perfq/internal/obs"
	"perfq/internal/queries"
	"perfq/internal/switchsim"
	"perfq/internal/topo"
	"perfq/internal/trace"
)

// compile lowers a query source to a plan.
func compile(t testing.TB, src string) *compiler.Plan {
	t.Helper()
	prog, err := lang.Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	chk, err := lang.Check(prog)
	if err != nil {
		t.Fatal(err)
	}
	plan, err := compiler.Compile(chk)
	if err != nil {
		t.Fatal(err)
	}
	return plan
}

// workload returns a deterministic multi-switch trace.
func workload(t testing.TB, tp *topo.Topology) []trace.Record {
	t.Helper()
	recs, err := netsim.GenWorkload(tp, netsim.Workload{Seed: 3, Flows: 120})
	if err != nil {
		t.Fatal(err)
	}
	return recs
}

// TestFabricModeOf pins the merge-mode classifier on representative
// folds and keys.
func TestFabricModeOf(t *testing.T) {
	cases := []struct {
		src  string
		want MergeMode
	}{
		{"SELECT COUNT GROUPBY srcip", ModeAdd},
		{"SELECT SUM(pkt_len) GROUPBY 5tuple", ModeAdd},
		{"SELECT srcip, MAX(pkt_len) GROUPBY srcip", ModeAssoc},
		{"SELECT srcip, MAX(qin), MIN(qin) GROUPBY srcip", ModeAssoc}, // component-wise combine
		{"SELECT srcip, MAX(qin), COUNT GROUPBY srcip", ModeEpoch},    // mixed assoc+linear stays epoch
		{"SELECT COUNT GROUPBY qid", ModeUnion},
		{"SELECT COUNT GROUPBY switch, queue", ModeUnion},
		{"SELECT COUNT GROUPBY queue", ModeAdd}, // bare queue index does NOT pin the switch
		{"const a = 0.5\nSELECT 5tuple, EWMA(tout - tin, a) GROUPBY 5tuple", ModeEpoch},
	}
	for _, c := range cases {
		plan := compile(t, c.src)
		if len(plan.Programs) != 1 || len(plan.Programs[0].Members) != 1 {
			t.Fatalf("%q: want one single-member program", c.src)
		}
		if got := ModeOf(plan.Programs[0].Members[0]); got != c.want {
			t.Errorf("%q: mode %v, want %v", c.src, got, c.want)
		}
	}
}

// TestFabricDemux verifies every record lands on exactly the datapath
// its queue ID names, and that foreign switch IDs are counted, not
// crashed on.
func TestFabricDemux(t *testing.T) {
	tp := topo.LeafSpine(2, 2, 4, topo.Options{})
	recs := workload(t, tp)
	plan := compile(t, "SELECT COUNT GROUPBY srcip")
	f, err := New(plan, tp, Config{})
	if err != nil {
		t.Fatal(err)
	}
	perSwitch := map[uint16]uint64{}
	for i := range recs {
		perSwitch[recs[i].QID.Switch()]++
		f.Process(&recs[i])
	}
	f.Sync() // Process's last block is still pending on the feeder
	var total uint64
	for _, sw := range f.Switches() {
		if got := f.Datapath(sw).Packets(); got != perSwitch[sw] {
			t.Errorf("switch %d: %d packets, want %d", sw, got, perSwitch[sw])
		}
		total += f.Datapath(sw).Packets()
	}
	if total != uint64(len(recs)) || f.Packets() != total {
		t.Errorf("routed %d/%d records (fabric says %d)", total, len(recs), f.Packets())
	}

	foreign := trace.Record{QID: trace.MakeQueueID(999, 0)}
	f.Process(&foreign)
	f.Sync()
	if f.Unrouted() != 1 {
		t.Errorf("unrouted = %d, want 1", f.Unrouted())
	}
}

// atProcs runs fn at the given GOMAXPROCS: 1 selects the inline router
// (no second processor to run a worker on), anything above it the
// worker pool.
func atProcs(n int, fn func()) {
	prev := runtime.GOMAXPROCS(n)
	defer runtime.GOMAXPROCS(prev)
	fn()
}

// runTables is New → Run → Collect over recs with the default config.
func runTables(t *testing.T, plan *compiler.Plan, tp *topo.Topology, recs []trace.Record) map[string]*exec.Table {
	t.Helper()
	f, err := New(plan, tp, Config{})
	if err != nil {
		t.Fatal(err)
	}
	if err := f.Run(&trace.SliceSource{Records: recs}); err != nil {
		t.Fatal(err)
	}
	tabs, err := f.Collect()
	if err != nil {
		t.Fatal(err)
	}
	return tabs
}

// TestFabricSerialParallelIdentical: the worker-per-switch run must be
// bit-identical to the inline one (per-switch arrival order is preserved
// either way), and a single-switch fabric must be the plain datapath.
func TestFabricSerialParallelIdentical(t *testing.T) {
	tp := topo.LeafSpine(4, 2, 8, topo.Options{})
	recs := workload(t, tp)
	plan := compile(t, `
R1 = SELECT COUNT, SUM(pkt_len) GROUPBY 5tuple
R2 = SELECT qid, tout - tin AS lat WHERE qin > 20000
`)
	run := func(procs int) (tabs map[string]*exec.Table) {
		atProcs(procs, func() { tabs = runTables(t, plan, tp, recs) })
		return tabs
	}
	requireSameTables(t, run(1), run(4))
}

func requireSameTables(t *testing.T, want, got map[string]*exec.Table) {
	t.Helper()
	if len(want) != len(got) {
		t.Fatalf("table sets differ: %d vs %d", len(want), len(got))
	}
	for name, ws := range want {
		wp := got[name]
		if wp == nil || len(wp.Rows) != len(ws.Rows) {
			t.Fatalf("table %s diverged", name)
		}
		for i := range ws.Rows {
			for j := range ws.Rows[i] {
				if math.Float64bits(ws.Rows[i][j]) != math.Float64bits(wp.Rows[i][j]) {
					t.Fatalf("table %s row %d col %d: %v vs %v",
						name, i, j, ws.Rows[i][j], wp.Rows[i][j])
				}
			}
		}
	}
}

// TestFabricStageOncePerBlock: field extraction, WHERE masks and merge
// coefficients depend on the block of records, not on the switch that
// applies a lane of it, so the stateless stage must run exactly once per
// routed block — on the K = 7 inline feed of one processor, where every
// switch takes its lanes of the feeder's block, and on ring workers, where
// each takes its own slot's — however Process and Feed interleave, and
// with sampled lanes split off as deliveries of their own. The tables are
// those of an untraced run either way.
func TestFabricStageOncePerBlock(t *testing.T) {
	tp := topo.LeafSpine(4, 2, 8, topo.Options{})
	recs := workload(t, tp)
	plan := compile(t, queries.LossByQueue+"R4 = SELECT COUNT, SUM(pkt_len) GROUPBY 5tuple\n")
	want := runTables(t, plan, tp, recs)
	blocks := func(n uint64) uint64 { return (n + fold.BlockSize - 1) / fold.BlockSize }
	for _, procs := range []int{1, 4} {
		tr := obs.NewTracer(2, 0) // one key in four rides a span: its lane is delivered alone
		f, err := New(plan, tp, Config{Switch: switchsim.Config{Trace: tr}})
		if err != nil {
			t.Fatal(err)
		}
		var routed uint64 // blocks the inline router cuts
		atProcs(procs, func() {
			rest := recs
			for _, cut := range []int{1000, 10, 333, 70, 64, 1} {
				// A fed run, then records one at a time: they go as one
				// more block when the next Feed or the final Sync finds
				// them pending, or when 64 have gathered.
				f.Feed(rest[:cut])
				routed += blocks(uint64(cut))
				rest = rest[cut:]
				for i := 0; i < cut%100; i++ {
					f.Process(&rest[i])
				}
				routed += blocks(uint64(cut % 100))
				rest = rest[cut%100:]
			}
			f.Feed(rest)
			routed += blocks(uint64(len(rest)))
			f.EndFeed()
			f.Flush()
		})
		wantBlocks := routed
		if procs > 1 {
			// A worker takes its ring's records 64 at a time, whatever
			// blocks the feeder routed them in.
			wantBlocks = 0
			for _, sw := range f.Switches() {
				wantBlocks += blocks(f.Datapath(sw).Packets())
			}
		}
		if got := f.StageBlocks(); got != wantBlocks {
			t.Errorf("procs %d: the stage prepared %d blocks, want %d (one per routed block)", procs, got, wantBlocks)
		}
		if tr.Begun() == 0 {
			t.Errorf("procs %d: no lane was sampled; the split delivery went untested", procs)
		}
		got, err := f.Collect()
		if err != nil {
			t.Fatal(err)
		}
		requireSameTables(t, want, got)
	}
}

// TestFabricOneSwitchIsPlainDatapath: a fabric whose whole stream
// crosses one switch is the plain datapath on that switch's cache slice —
// tables, cache and store statistics, accuracy and that switch's view are
// those of a datapath that was never partitioned, at a geometry small
// enough to churn. (Every topology constructor adds the host-NIC pseudo
// switch, so "one switch" is Chain(1) with the NIC queues left idle; the
// engine-level K = 1 case is a row of switchsim's
// TestProcessInlineShardedMatchesRun.)
func TestFabricOneSwitchIsPlainDatapath(t *testing.T) {
	recs := workload(t, topo.LeafSpine(4, 2, 8, topo.Options{}))
	tp := topo.Chain(1, topo.Options{})
	const sw = 1 // Chain's only real switch; 0 is the host NICs
	for i := range recs {
		recs[i].QID = trace.MakeQueueID(sw, recs[i].QID.Queue())
	}
	plan := compile(t, `
R1 = SELECT COUNT, SUM(pkt_len) GROUPBY 5tuple
R2 = SELECT 5tuple, MAX(qin) GROUPBY 5tuple WHERE proto == 6
R3 = SELECT qid, tout - tin AS lat WHERE qin > 20000
`)
	for _, shards := range []int{1, 4} {
		cfg := switchsim.Config{Geometry: kvstore.SetAssociative(64, 8), Shards: shards}
		f, err := New(plan, tp, Config{Switch: cfg})
		if err != nil {
			t.Fatal(err)
		}
		cfg.Geometry = cfg.Geometry.Split(len(tp.SwitchIDs()))
		dp, err := switchsim.New(plan, cfg)
		if err != nil {
			t.Fatal(err)
		}
		src := func() trace.Source { return &trace.SliceSource{Records: recs} }
		if err := dp.Run(src()); err != nil {
			t.Fatal(err)
		}
		if err := f.Run(src()); err != nil {
			t.Fatal(err)
		}
		want, err := dp.Collect()
		if err != nil {
			t.Fatal(err)
		}
		got, err := f.Collect()
		if err != nil {
			t.Fatal(err)
		}
		requireSameTables(t, want, got)
		if got, err = f.SwitchTables(sw); err != nil {
			t.Fatal(err)
		}
		requireSameTables(t, want, got)
		if !reflect.DeepEqual(dp.Stats(), f.Datapath(sw).Stats()) {
			t.Errorf("shards=%d: switch view's stats %+v, want %+v", shards, f.Datapath(sw).Stats(), dp.Stats())
		}
		if !reflect.DeepEqual(dp.Stats(), f.Stats()) || !reflect.DeepEqual(dp.StoreStats(), f.StoreStats()) {
			t.Errorf("shards=%d: stats diverge:\n%+v %+v\n%+v %+v", shards, dp.Stats(), dp.StoreStats(), f.Stats(), f.StoreStats())
		}
		if dp.Stats()[0].Evictions == 0 {
			t.Fatal("no eviction churn; cache sizing broken")
		}
		for i := range plan.Programs {
			wv, wt := dp.Accuracy(i)
			if gv, gt := f.Accuracy(i); gv != wv || gt != wt {
				t.Errorf("shards=%d program %d: accuracy %d/%d, plain datapath %d/%d", shards, i, gv, gt, wv, wt)
			}
		}
		if f.Packets() != dp.Packets() || f.Unrouted() != 0 {
			t.Errorf("shards=%d: routed %d (unrouted %d), want %d", shards, f.Packets(), f.Unrouted(), dp.Packets())
		}
	}
}

// TestFabricSerialFastPath pins the PR-5 regression fix: with one
// processor the transport hop buys no parallelism, so Run and Feed must
// apply records inline and never start a worker — and a run that does go
// through the pool must still be bit-identical (the equivalence half is
// TestFabricSerialParallelIdentical).
func TestFabricSerialFastPath(t *testing.T) {
	tp := topo.LeafSpine(4, 2, 8, topo.Options{})
	recs := workload(t, tp)
	plan := compile(t, `R = SELECT COUNT GROUPBY 5tuple`)
	f, err := New(plan, tp, Config{})
	if err != nil {
		t.Fatal(err)
	}
	atProcs(1, func() {
		before := runtime.NumGoroutine()
		f.Feed(recs)
		if n := runtime.NumGoroutine(); n != before {
			t.Fatalf("Feed started %d goroutines at GOMAXPROCS=1", n-before)
		}
		f.Sync()
		if err := f.Run(&trace.SliceSource{Records: recs}); err != nil {
			t.Fatal(err)
		}
	})
	if f.Packets() != uint64(2*len(recs)) {
		t.Fatalf("packets = %d, want %d", f.Packets(), 2*len(recs))
	}
}

// TestFabricSerialStructure guards the fabric's serial tax structurally
// (its wall-clock predecessor flaked under package-level test
// parallelism; speed is fabric_multi's job in the benchmark): on one
// processor the fabric must start no worker, move no transport batch,
// and — once the caches are warm — allocate nothing per record. Those
// are the three ways the PR-5 regression (8.0M → 6.8M pkts/s) and its
// per-record-map-probe cousin can come back.
func TestFabricSerialStructure(t *testing.T) {
	tp := topo.LeafSpine(4, 2, 8, topo.Options{})
	recs, err := netsim.GenWorkload(tp, netsim.Workload{Seed: 12, Flows: 600})
	if err != nil {
		t.Fatal(err)
	}
	plan := compile(t, `R = SELECT COUNT, SUM(pkt_len) GROUPBY 5tuple`)
	reg := obs.NewRegistry()
	f, err := New(plan, tp, Config{
		Switch: switchsim.Config{
			Geometry: kvstore.SetAssociative(1<<16, 8), // holds every key: the warm pass only hits
			Metrics:  reg,
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	atProcs(1, func() {
		before := runtime.NumGoroutine()
		if err := f.Run(&trace.SliceSource{Records: recs}); err != nil {
			t.Fatal(err)
		}
		f.Feed(recs)
		if n := runtime.NumGoroutine(); n != before {
			t.Fatalf("serial fabric started %d goroutines", n-before)
		}
		if n, _ := reg.Value("perfq_transport_batches_total"); n != 0 {
			t.Fatalf("serial fabric moved %.0f transport batches", n)
		}
		if f.Packets() != uint64(2*len(recs)) {
			t.Fatalf("packets = %d, want %d", f.Packets(), 2*len(recs))
		}
		if raceEnabled {
			return // the race runtime allocates on its own
		}
		if allocs := testing.AllocsPerRun(3, func() { f.Feed(recs) }); allocs != 0 {
			t.Fatalf("warm serial feed: %.0f allocs per %d records, want 0", allocs, len(recs))
		}
	})
}

// TestFabricLivePoolFeedZeroAlloc is the worker-pool side of the same
// contract: once a pool is running and its ring slots exist, a warm
// Feed + Sync — the block router filling column slots, the workers
// running them in place — allocates nothing, on a 2-shard datapath (key
// and hash columns) and on the fabric's one-worker-per-switch pool
// (record column only).
func TestFabricLivePoolFeedZeroAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("the race runtime allocates on its own")
	}
	tp := topo.LeafSpine(4, 2, 8, topo.Options{})
	recs, err := netsim.GenWorkload(tp, netsim.Workload{Seed: 12, Flows: 600})
	if err != nil {
		t.Fatal(err)
	}
	plan := compile(t, `R = SELECT COUNT, SUM(pkt_len) GROUPBY 5tuple`)
	geo := kvstore.SetAssociative(1<<16, 8) // holds every key: the warm pass only hits
	dp, err := switchsim.New(plan, switchsim.Config{Geometry: geo, Shards: 2})
	if err != nil {
		t.Fatal(err)
	}
	f, err := New(plan, tp, Config{Switch: switchsim.Config{Geometry: geo}})
	if err != nil {
		t.Fatal(err)
	}
	atProcs(4, func() {
		for name, run := range map[string]interface {
			Feed([]trace.Record)
			Sync()
			EndFeed()
		}{"2-shard datapath": dp, "fabric": f} {
			before := runtime.NumGoroutine()
			run.Feed(recs)
			run.Sync()
			if runtime.NumGoroutine() == before {
				t.Fatalf("%s: Feed at GOMAXPROCS 4 started no worker", name)
			}
			if allocs := testing.AllocsPerRun(3, func() { run.Feed(recs); run.Sync() }); allocs != 0 {
				t.Errorf("%s: warm live-pool feed: %.0f allocs per %d records, want 0", name, allocs, len(recs))
			}
			run.EndFeed()
		}
	})
}

// TestFabricGroundTruthSwitchCoverage: the exec-backed ground truth
// demultiplexes exactly like the datapath, so per-switch engines see the
// per-switch sub-streams — checked indirectly: network COUNT totals over
// a union-mode key must equal the record count.
func TestFabricGroundTruthCounts(t *testing.T) {
	tp := topo.Chain(3, topo.Options{})
	recs := workload(t, tp)
	plan := compile(t, "SELECT qid, COUNT GROUPBY qid")
	tabs, err := GroundTruth(plan, tp, &trace.SliceSource{Records: recs})
	if err != nil {
		t.Fatal(err)
	}
	tab := tabs["_1"]
	if tab == nil {
		t.Fatal("missing result")
	}
	var total float64
	for _, row := range tab.Rows {
		total += row[1]
	}
	if int(total) != len(recs) {
		t.Errorf("network-wide count %v, want %d", total, len(recs))
	}
}

// TestFabricBudgetSplit: the configured geometry is the whole-network
// budget. The per-switch slice must churn on a working set the whole
// budget would also churn on — and the split itself must never exceed
// the configured total.
func TestFabricBudgetSplit(t *testing.T) {
	tp := topo.LeafSpine(2, 2, 4, topo.Options{})
	n := len(tp.SwitchIDs())
	recs := workload(t, tp)
	plan := compile(t, "SELECT COUNT GROUPBY pkt_uniq, 5tuple")

	cfg := Config{}
	cfg.Switch.Geometry = kvstore.SetAssociative(64*n, 8)
	if got := cfg.Switch.Geometry.Split(n).Pairs() * n; got > 64*n {
		t.Fatalf("split exceeds budget: %d pairs total > %d", got, 64*n)
	}
	f, err := New(plan, tp, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := f.Run(&trace.SliceSource{Records: recs}); err != nil {
		t.Fatal(err)
	}
	var evictions uint64
	for _, s := range f.Stats() {
		evictions += s.Evictions
	}
	// Per-switch keys ≈ records per switch (thousands) against a
	// 64-pair slice: churn is unavoidable if the split happened.
	if evictions == 0 {
		t.Fatal("no evictions: budget was not split across switches")
	}
}
