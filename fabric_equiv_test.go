package perfq

// The fabric. WithFabric(topo) runs — one cache + backing-store datapath
// per switch, reconciled by the collector — are held to the fabric ground
// truth, and network-exact queries over drop-free traces to the global
// one, by the whole-system differential (system_test.go); the Figure 2
// pins below keep the paper's seven queries on it by name over a
// LeafSpine(4,2,8) trace. What stays here is what the differential cannot
// express: the merge-mode classification of each Figure 2 query, loss
// localization under incast, and the worker count of shards inside a
// fabric.

import (
	"runtime"
	"testing"

	"perfq/internal/fabric"
	"perfq/internal/netsim"
	"perfq/internal/queries"
	"perfq/internal/topo"
	"perfq/internal/trace"
)

// equivFabric is the suite's topology: 4 leaves × 2 spines × 8 hosts.
func equivFabric() *topo.Topology {
	return topo.LeafSpine(4, 2, 8, topo.Options{})
}

// fabricTrace simulates background traffic over the fabric. The trace is
// drop-free by construction (deep buffers, paced flows), which keeps
// every summed quantity integer-valued — the regime where commutative
// merges are exact to the last bit regardless of addition order.
func fabricTrace(t testing.TB, tp *topo.Topology, flows int) []Record {
	t.Helper()
	recs, err := netsim.GenWorkload(tp, netsim.Workload{Seed: 7, Flows: flows})
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) < 5000 {
		t.Fatalf("trace too small: %d records", len(recs))
	}
	for i := range recs {
		if recs[i].Dropped() {
			t.Fatalf("equivalence trace has drops; Infinity-valued sums would make " +
				"cross-switch addition order observable")
		}
	}
	return recs
}

// fabricNetworkExact pins the collector's classification of each Figure 2
// query: true when every switch-resident stage reconciles without
// dropping keys (union/add/assoc), false when any member needs
// epoch-in-space semantics.
var fabricNetworkExact = map[string]bool{
	"Per-flow counters":               true,  // COUNT/SUM: identity-A linear
	"Latency EWMA":                    false, // decay: interleaving-dependent
	"TCP out of sequence":             false, // history fold: "previous packet" is per-switch
	"TCP non-monotonic":               false, // not linear at all
	"Per-flow high latency packets":   true,  // SUM of per-queue latencies
	"Per-flow loss rate":              true,  // two COUNTs + collector join
	"High 99th percentile queue size": true,  // GROUPBY qid pins the switch
}

// TestFabricClassification asserts the merge-mode classifier matches the
// table above for every Figure 2 query.
func TestFabricClassification(t *testing.T) {
	for _, ex := range queries.Fig2 {
		q := MustCompile(ex.Source)
		want, ok := fabricNetworkExact[ex.Name]
		if !ok {
			t.Fatalf("query %q missing from the classification table", ex.Name)
		}
		if got := fabric.NetworkExact(q.plan); got != want {
			t.Errorf("%s: NetworkExact = %v, want %v", ex.Name, got, want)
		}
	}
}

// TestFabricZeroChurnBitIdentical pins every Figure 2 query over the
// fabric with caches large enough that only the final flush evicts.
func TestFabricZeroChurnBitIdentical(t *testing.T) {
	forceProcs(t)
	tp := equivFabric()
	fig2Pins(t, fabricTrace(t, tp, 300), sysCase{tp: tp, pairs: 1 << 20, ways: 8}, churnNone, nil)
}

// TestFabricNetworkExactMatchesGlobal pins every network-exact Figure 2
// query over the fabric; the differential holds such a run to the
// single-datapath reference as well as to the fabric's.
func TestFabricNetworkExactMatchesGlobal(t *testing.T) {
	forceProcs(t)
	tp := equivFabric()
	fig2Pins(t, fabricTrace(t, tp, 300), sysCase{tp: tp, pairs: 1 << 20, ways: 8}, churnNone,
		func(ex *queries.Example) bool { return fabricNetworkExact[ex.Name] })
}

// TestFabricChurnEquivalence pins every Figure 2 query over the fabric
// with per-switch caches far below the working set.
func TestFabricChurnEquivalence(t *testing.T) {
	forceProcs(t)
	tp := equivFabric()
	fig2Pins(t, fabricTrace(t, tp, 600), sysCase{tp: tp, pairs: 1 << 10, ways: 8}, churnSome, nil)
}

// TestFabricAssocMerge pins two associative folds in one stage over a
// heavily churned fabric: MAX and MIN combine exactly in time and space.
func TestFabricAssocMerge(t *testing.T) {
	forceProcs(t)
	tp := equivFabric()
	c := sysCase{name: "max+min", src: "SELECT srcip, dstip, MAX(qin), MIN(tout - tin) GROUPBY srcip, dstip",
		recs: fabricTrace(t, tp, 600), tp: tp, pairs: 1 << 9, ways: 8}
	runSystemCase(t, &c, churnSome, nil)
}

// TestFabricLossLocalization is the acceptance scenario: 16 senders
// incast one receiver through a shallow-buffered fabric; the
// network-wide per-queue drop table must rank the receiver's leaf
// downlink first — the localization endpoint telemetry cannot provide —
// and, being a union-mode query, must match the global ground truth
// bit-for-bit even though the trace is full of drops.
func TestFabricLossLocalization(t *testing.T) {
	forceProcs(t)
	tp := topo.LeafSpine(4, 2, 8, topo.Options{BufBytes: 64 << 10})
	recs, err := netsim.GenWorkload(tp, netsim.Workload{
		Seed: 42, Flows: 60, IncastSenders: 16,
	})
	if err != nil {
		t.Fatal(err)
	}
	drops := 0
	for i := range recs {
		if recs[i].Dropped() {
			drops++
		}
	}
	if drops == 0 {
		t.Fatal("incast produced no drops; localization scenario is vacuous")
	}

	q := MustCompile(queries.LossByQueue)
	res, err := q.Run(Records(recs), WithCache(1<<16, 8), WithFabric(tp))
	if err != nil {
		t.Fatal(err)
	}
	global, err := q.GroundTruth(Records(recs))
	if err != nil {
		t.Fatal(err)
	}
	for name := range allTables(global) {
		requireTablesIdentical(t, "loss/"+name, res.Table(name), global.Table(name))
	}

	// The congested queue: the downlink feeding the incast receiver
	// (topology host 0) from its leaf.
	receiver := tp.Hosts()[0]
	var wantQID trace.QueueID
	found := false
	for _, l := range tp.Links {
		if l.To == receiver {
			wantQID, found = l.QID, true
			break
		}
	}
	if !found {
		t.Fatal("no downlink to receiver found")
	}
	tab := res.Table("R3")
	if tab == nil || tab.Len() == 0 {
		t.Fatal("empty drop table")
	}
	var top trace.QueueID
	best := -1.0
	for _, row := range tab.Rows {
		if row[2] > best { // drops column
			best, top = row[2], trace.QueueID(uint32(int64(row[0])))
		}
	}
	if top != wantQID {
		t.Errorf("localized queue 0x%x (switch %s port %d), want 0x%x (switch %s port %d)",
			uint32(top), tp.SwitchName(top.Switch()), top.Queue(),
			uint32(wantQID), tp.SwitchName(wantQID.Switch()), wantQID.Queue())
	}
	// And the per-switch view of the congested leaf must carry the same
	// row for that queue.
	swTab := res.SwitchTable(wantQID.Switch(), "R3")
	if swTab == nil {
		t.Fatalf("no per-switch table for switch %d", wantQID.Switch())
	}
	foundRow := false
	for _, row := range swTab.Rows {
		if trace.QueueID(uint32(int64(row[0]))) == wantQID {
			foundRow = true
		}
	}
	if !foundRow {
		t.Error("congested queue missing from its own switch's table")
	}
}

// TestFabricWithShardsInside: shards inside a fabric are one flat
// transport, not a pool per switch behind a pump — a stream over K
// switches × n shards runs exactly K·n workers behind the one feeder, and
// none once it ends. (Its tables are the differential's.)
func TestFabricWithShardsInside(t *testing.T) {
	forceProcs(t)
	tp := equivFabric()
	recs := fabricTrace(t, tp, 300)
	q := MustCompile(queries.ByName("Per-flow counters").Source)
	const shards = 4
	idle := runtime.NumGoroutine()
	workers := -1
	_, err := q.Stream(Records(recs), func(w *WindowResult) error {
		workers = runtime.NumGoroutine() - idle // mid-stream: the pool is live across closes
		return nil
	}, WithCache(1<<14, 8), WithFabric(tp), WithShards(shards),
		WithWindow(WindowSpec{Count: int64(len(recs)/3 + 1)}))
	if err != nil {
		t.Fatal(err)
	}
	if want := len(tp.SwitchIDs()) * shards; workers != want {
		t.Errorf("stream ran %d goroutines beside the feeder, want %d (switches × shards)", workers, want)
	}
	requireGoroutines(t, "after the stream", idle)
}
