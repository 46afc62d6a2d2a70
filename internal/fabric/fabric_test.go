package fabric

import (
	"math"
	"runtime"
	"testing"

	"perfq/internal/compiler"
	"perfq/internal/exec"
	"perfq/internal/kvstore"
	"perfq/internal/lang"
	"perfq/internal/netsim"
	"perfq/internal/obs"
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
	if f.Unrouted() != 1 {
		t.Errorf("unrouted = %d, want 1", f.Unrouted())
	}
}

// TestFabricSerialParallelIdentical: the worker-per-switch run must be
// bit-identical to the serial demux (per-switch arrival order is
// preserved either way).
func TestFabricSerialParallelIdentical(t *testing.T) {
	// Exercise the pump even on a single-core host, where the runtime
	// would otherwise bypass it (see Fabric.serialPath).
	if runtime.GOMAXPROCS(0) < 2 {
		prev := runtime.GOMAXPROCS(4)
		t.Cleanup(func() { runtime.GOMAXPROCS(prev) })
	}
	tp := topo.LeafSpine(4, 2, 8, topo.Options{})
	recs := workload(t, tp)
	plan := compile(t, `
R1 = SELECT COUNT, SUM(pkt_len) GROUPBY 5tuple
R2 = SELECT qid, tout - tin AS lat WHERE qin > 20000
`)
	run := func(serial bool) map[string]*exec.Table {
		tabs, err := RunPlan(plan, tp, &trace.SliceSource{Records: recs},
			Config{Serial: serial})
		if err != nil {
			t.Fatal(err)
		}
		return tabs
	}
	ser, par := run(true), run(false)
	if len(ser) != len(par) {
		t.Fatalf("table sets differ: %d vs %d", len(ser), len(par))
	}
	for name, ws := range ser {
		wp := par[name]
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

// TestFabricSerialFastPath pins the PR-5 regression fix: with one
// processor the pump hop buys no parallelism, so Run and Feed must
// apply records inline and never start the per-switch workers — and a
// run that does go through the pump must still be bit-identical (the
// equivalence half is TestFabricSerialParallelIdentical).
func TestFabricSerialFastPath(t *testing.T) {
	prev := runtime.GOMAXPROCS(1)
	defer runtime.GOMAXPROCS(prev)
	tp := topo.LeafSpine(4, 2, 8, topo.Options{})
	recs := workload(t, tp)
	plan := compile(t, `R = SELECT COUNT GROUPBY 5tuple`)
	f, err := New(plan, tp, Config{})
	if err != nil {
		t.Fatal(err)
	}
	f.Feed(recs)
	f.Sync()
	if f.pump != nil {
		t.Fatal("Feed started the pump at GOMAXPROCS=1")
	}
	if err := f.Run(&trace.SliceSource{Records: recs}); err != nil {
		t.Fatal(err)
	}
	if f.pump != nil {
		t.Fatal("Run started the pump at GOMAXPROCS=1")
	}
	if f.Packets() != uint64(2*len(recs)) {
		t.Fatalf("packets = %d, want %d", f.Packets(), 2*len(recs))
	}
}

// TestFabricSerialStructure guards the fabric's serial tax structurally
// (its wall-clock predecessor flaked under package-level test
// parallelism; speed is fabric_multi's job in the benchmark): a Serial
// fabric with processors to spare must start no pump, move no transport
// batch, and — once the caches are warm — allocate nothing per record.
// Those are the three ways the PR-5 regression (8.0M → 6.8M pkts/s) and
// its per-record-map-probe cousin can come back.
func TestFabricSerialStructure(t *testing.T) {
	if prev := runtime.GOMAXPROCS(0); prev < 2 {
		runtime.GOMAXPROCS(2) // so only Config.Serial keeps the pump off
		defer runtime.GOMAXPROCS(prev)
	}
	tp := topo.LeafSpine(4, 2, 8, topo.Options{})
	recs, err := netsim.GenWorkload(tp, netsim.Workload{Seed: 12, Flows: 600})
	if err != nil {
		t.Fatal(err)
	}
	plan := compile(t, `R = SELECT COUNT, SUM(pkt_len) GROUPBY 5tuple`)
	f, err := New(plan, tp, Config{
		Switch: switchsim.Config{
			Geometry: kvstore.SetAssociative(1<<16, 8), // holds every key: the warm pass only hits
			Metrics:  obs.NewRegistry(),
		},
		Serial: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := f.Run(&trace.SliceSource{Records: recs}); err != nil {
		t.Fatal(err)
	}
	f.Feed(recs)
	if f.pump != nil {
		t.Fatal("serial fabric started the pump")
	}
	if n := f.obs.tm.Batches.Value(); n != 0 {
		t.Fatalf("serial fabric moved %d transport batches", n)
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
