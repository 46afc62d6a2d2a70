package perfq

// Network-wide fabric equivalence suite: a WithFabric(topo) run — one
// cache + backing-store datapath per switch, reconciled by the collector
// — is validated on three axes over a LeafSpine(4,2,8) trace:
//
//  1. Against the fabric ground truth (unbounded memory per switch, same
//     collector): bit-identical at zero eviction churn for every Figure 2
//     query, and still bit-identical under churn for linear folds with
//     integer coefficient matrices; decay folds (EWMA) carry the same
//     last-bit rounding caveat as the shard suite.
//  2. Against the single-datapath (global) ground truth: queries whose
//     switch-resident stages all reconcile exactly — key includes the
//     switch, or the fold is commutative/associative — must be
//     bit-identical to a run that never partitioned by switch at all.
//  3. Loss localization: with shallow buffers and an incast burst, the
//     network-wide per-queue drop table must name the receiver's leaf
//     downlink as the congested queue (the acceptance scenario of the
//     losslocalize example).

import (
	"fmt"
	"math"
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

// TestFabricZeroChurnBitIdentical: with caches large enough that only
// the final flush evicts, the fabric datapath must match the fabric
// ground truth bit-for-bit on every table of every Figure 2 query —
// linear, history, and non-mergeable folds alike (a single epoch is a
// pure fold state either way, and both sides reconcile in the same
// switch order with the same float associativity).
func TestFabricZeroChurnBitIdentical(t *testing.T) {
	forceProcs(t)
	tp := equivFabric()
	recs := fabricTrace(t, tp, 300)
	for _, ex := range queries.Fig2 {
		ex := ex
		t.Run(ex.Name, func(t *testing.T) {
			q := MustCompile(ex.Source)
			res, err := q.Run(Records(recs), WithCache(1<<20, 8), WithFabric(tp))
			if err != nil {
				t.Fatal(err)
			}
			if res.Evictions != 0 {
				t.Fatalf("churn in zero-churn config: %d evictions", res.Evictions)
			}
			gt, err := q.GroundTruth(Records(recs), WithFabric(tp))
			if err != nil {
				t.Fatal(err)
			}
			tg, tw := allTables(res), allTables(gt)
			if len(tg) != len(tw) {
				t.Fatalf("table sets differ: %d vs %d", len(tg), len(tw))
			}
			for name := range tw {
				requireTablesIdentical(t, ex.Name+"/"+name, tg[name], tw[name])
			}
		})
	}
}

// TestFabricNetworkExactMatchesGlobal is the headline guarantee: for
// every query the classifier marks network-exact, the fabric's
// reconciled tables are bit-identical to the single-datapath ground
// truth — partitioning the stream across switches (and splitting the
// cache budget among them) is invisible in the output.
func TestFabricNetworkExactMatchesGlobal(t *testing.T) {
	forceProcs(t)
	tp := equivFabric()
	recs := fabricTrace(t, tp, 300)
	ran := 0
	for _, ex := range queries.Fig2 {
		if !fabricNetworkExact[ex.Name] {
			continue
		}
		ex := ex
		ran++
		t.Run(ex.Name, func(t *testing.T) {
			q := MustCompile(ex.Source)
			res, err := q.Run(Records(recs), WithCache(1<<20, 8), WithFabric(tp))
			if err != nil {
				t.Fatal(err)
			}
			global, err := q.GroundTruth(Records(recs))
			if err != nil {
				t.Fatal(err)
			}
			tg, tw := allTables(res), allTables(global)
			for name := range tw {
				requireTablesIdentical(t, ex.Name+"/"+name, tg[name], tw[name])
			}
			if res.ValidKeys != res.TotalKeys {
				t.Errorf("network-exact query dropped keys: %d/%d", res.ValidKeys, res.TotalKeys)
			}
		})
	}
	if ran == 0 {
		t.Fatal("no network-exact queries ran")
	}
}

// TestFabricChurnEquivalence shrinks the per-switch caches far below the
// working set so the backing-store merge machinery works for real, then
// holds the fabric to the fabric ground truth: bit-identical for
// integer-coefficient linear queries; per-key agreement within 1e-12 for
// the decay fold (EWMA's merge reconstruction rounds at the last bit per
// epoch partition); and for the non-linear query, every network-valid
// key must carry the exact ground-truth value (a single epoch is a pure
// fold state).
func TestFabricChurnEquivalence(t *testing.T) {
	forceProcs(t)
	tp := equivFabric()
	recs := fabricTrace(t, tp, 600)
	for _, ex := range queries.Fig2 {
		ex := ex
		t.Run(ex.Name, func(t *testing.T) {
			q := MustCompile(ex.Source)
			res, err := q.Run(Records(recs), WithCache(1<<10, 8), WithFabric(tp))
			if err != nil {
				t.Fatal(err)
			}
			gt, err := q.GroundTruth(Records(recs), WithFabric(tp))
			if err != nil {
				t.Fatal(err)
			}
			if ex.Linear && res.Evictions == 0 && res.TotalKeys > 500 {
				t.Fatal("no eviction churn; trace/cache sizing broken")
			}
			tg, tw := allTables(res), allTables(gt)
			switch {
			case ex.Linear && !roundingProneCoeffs(q):
				for name := range tw {
					requireTablesIdentical(t, ex.Name+"/"+name, tg[name], tw[name])
				}
			case ex.Linear:
				requireRowsSubsetByKey(t, ex.Name, tg["_1"], tw["_1"], 5, 1e-12)
			default:
				requireRowsSubsetByKey(t, ex.Name, tg["_1"], tw["_1"], 5, 0)
			}
		})
	}
}

// requireRowsSubsetByKey asserts every row of got matches the want row
// with the same nk-column key prefix, within rel (0 = bit-identical),
// and that got does not exceed want in row count. Keys valid in want
// only are legitimate: within-switch eviction churn invalidates keys the
// unbounded ground truth keeps.
func requireRowsSubsetByKey(t *testing.T, name string, got, want *Table, nk int, rel float64) {
	t.Helper()
	if got == nil || want == nil {
		t.Fatalf("%s: missing table", name)
	}
	if len(got.Rows) > len(want.Rows) {
		t.Fatalf("%s: fabric has %d rows, ground truth only %d", name, len(got.Rows), len(want.Rows))
	}
	index := map[string][]float64{}
	for _, row := range want.Rows {
		index[fmt.Sprint(row[:nk])] = row
	}
	for _, row := range got.Rows {
		wrow, ok := index[fmt.Sprint(row[:nk])]
		if !ok {
			t.Fatalf("%s: fabric key %v absent from ground truth", name, row[:nk])
		}
		for j := range row {
			g, w := row[j], wrow[j]
			if math.Float64bits(g) == math.Float64bits(w) {
				continue
			}
			if rel > 0 && math.Abs(g-w) <= rel*math.Max(1, math.Abs(w)) {
				continue
			}
			t.Fatalf("%s: key %v col %s: %v != %v (tol %g)", name, row[:nk], want.Schema[j], g, w, rel)
		}
	}
}

// TestFabricAssocMerge covers the associative leg of the collector: MAX
// is exact under reconciliation in both time (cache epochs Combine into
// the backing store) and space (per-switch maxima Combine network-wide),
// so even a heavily churned fabric run must match the global ground
// truth bit-for-bit.
func TestFabricAssocMerge(t *testing.T) {
	forceProcs(t)
	tp := equivFabric()
	recs := fabricTrace(t, tp, 600)
	// Two associative folds in one stage: the state vector combines
	// component-wise (max slice by max, min slice by min).
	q := MustCompile("SELECT srcip, dstip, MAX(qin), MIN(tout - tin) GROUPBY srcip, dstip")
	if !fabric.NetworkExact(q.plan) {
		t.Fatal("MAX+MIN stage not classified network-exact (assoc metadata lost in compilation)")
	}
	res, err := q.Run(Records(recs), WithCache(1<<9, 8), WithFabric(tp))
	if err != nil {
		t.Fatal(err)
	}
	if res.Evictions == 0 {
		t.Fatal("no eviction churn; cache sizing broken")
	}
	global, err := q.GroundTruth(Records(recs))
	if err != nil {
		t.Fatal(err)
	}
	requireTablesIdentical(t, "max", res.Result(), global.Result())
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

// TestFabricWithShardsInside composes the two partition levels: each
// switch's stores themselves sharded. Results must stay bit-identical to
// the unsharded fabric for a network-exact query, on workers (GOMAXPROCS
// 4) and inline (GOMAXPROCS 1) alike — and the composition is one flat
// transport, not a pool per switch behind a pump: a stream over K
// switches × n shards runs exactly K·n workers behind the one feeder, and
// none once it ends.
func TestFabricWithShardsInside(t *testing.T) {
	forceProcs(t)
	tp := equivFabric()
	recs := fabricTrace(t, tp, 300)
	q := MustCompile(queries.ByName("Per-flow counters").Source)
	idle := runtime.NumGoroutine()
	base, err := q.Run(Records(recs), WithCache(1<<14, 8), WithFabric(tp))
	if err != nil {
		t.Fatal(err)
	}
	const shards = 4
	tb := allTables(base)
	for _, procs := range []int{4, 1} {
		atProcs(procs, func() {
			sharded, err := q.Run(Records(recs), WithCache(1<<14, 8), WithFabric(tp), WithShards(shards))
			if err != nil {
				t.Fatal(err)
			}
			ts := allTables(sharded)
			for name := range tb {
				requireTablesIdentical(t, fmt.Sprintf("fabric+shards/procs%d/%s", procs, name), ts[name], tb[name])
			}
			if sharded.ValidKeys != base.ValidKeys || sharded.TotalKeys != base.TotalKeys {
				t.Errorf("procs %d: accuracy %d/%d, unsharded fabric %d/%d",
					procs, sharded.ValidKeys, sharded.TotalKeys, base.ValidKeys, base.TotalKeys)
			}
		})
	}

	// The sharded runs' workers may still be exiting: wait for them, then
	// count from whatever is left.
	requireGoroutines(t, "after the sharded runs", idle)
	idle = runtime.NumGoroutine()
	workers := -1
	_, err = q.Stream(Records(recs), func(w *WindowResult) error {
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
