package switchsim

import (
	"fmt"
	"math"
	"runtime"
	"slices"
	"strings"
	"testing"
	"time"

	"perfq/internal/backing"
	"perfq/internal/compiler"
	"perfq/internal/exec"
	"perfq/internal/kvstore"
	"perfq/internal/lang"
	"perfq/internal/obs"
	"perfq/internal/packet"
	"perfq/internal/queries"
	"perfq/internal/trace"
	"perfq/internal/tracegen"
)

func compilePlan(t testing.TB, src string) *compiler.Plan {
	t.Helper()
	chk, err := lang.Check(lang.MustParse(src))
	if err != nil {
		t.Fatal(err)
	}
	plan, err := compiler.Compile(chk)
	if err != nil {
		t.Fatal(err)
	}
	return plan
}

func testTrace(t *testing.T) []trace.Record {
	t.Helper()
	cfg := tracegen.DCConfig(99, 4*time.Second)
	cfg.FlowRate = 800
	// Stretch flows out so ~1300 are concurrently live — far above the
	// 256–512-pair test caches, forcing evicted keys to re-appear.
	cfg.PktGap = tracegen.LognormalWithMean(0.08, 1.0)
	cfg.DropProb = 0.01 // enough drops for the loss-rate query
	recs, err := trace.Collect(tracegen.New(cfg))
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) < 5000 {
		t.Fatalf("trace too small: %d", len(recs))
	}
	return recs
}

// keyOf renders a row's key prefix for map comparison.

// tablesMatch compares two tables keyed by their first k columns within
// tolerance; mustCover requires every want row to appear in got.
func tablesMatch(t *testing.T, name string, got, want *exec.Table, k int, tol float64, mustCover bool) {
	t.Helper()
	type rowmap map[string][]float64
	index := func(tbl *exec.Table) rowmap {
		m := rowmap{}
		for _, r := range tbl.Rows {
			m[rowKeyStr(r[:k])] = r
		}
		return m
	}
	gm, wm := index(got), index(want)
	if mustCover && len(gm) != len(wm) {
		t.Errorf("%s: got %d rows, want %d", name, len(gm), len(wm))
	}
	for key, wrow := range wm {
		grow, ok := gm[key]
		if !ok {
			if mustCover {
				t.Errorf("%s: missing row for key %x", name, key)
			}
			continue
		}
		for i := k; i < len(wrow); i++ {
			diff := math.Abs(grow[i] - wrow[i])
			if diff > tol*math.Max(1, math.Abs(wrow[i])) {
				t.Errorf("%s: key %x col %d: got %v want %v", name, key, i, grow[i], wrow[i])
				break
			}
		}
	}
}

func rowKeyStr(vals []float64) string {
	b := make([]byte, 0, len(vals)*8)
	for _, v := range vals {
		u := uint64(int64(v))
		for j := 0; j < 8; j++ {
			b = append(b, byte(u>>(8*j)))
		}
	}
	return string(b)
}

// TestFig2DatapathMatchesGroundTruth runs every Figure 2 example through
// both the unbounded-memory executor and the real split datapath with a
// deliberately tiny cache. Linear-in-state queries must match exactly
// (the merge guarantee); the non-linear one must match on every key the
// datapath reports (validity semantics).
func TestFig2DatapathMatchesGroundTruth(t *testing.T) {
	recs := testTrace(t)
	for _, ex := range queries.Fig2 {
		plan := compilePlan(t, ex.Source)

		truth, err := exec.Run(plan, &trace.SliceSource{Records: recs})
		if err != nil {
			t.Fatalf("%s: exec: %v", ex.Name, err)
		}

		// 512-pair cache over thousands of flows: constant churn.
		dp, err := New(plan, Config{Geometry: kvstore.SetAssociative(512, 8)})
		if err != nil {
			t.Fatalf("%s: datapath: %v", ex.Name, err)
		}
		if err := dp.Run(&trace.SliceSource{Records: recs}); err != nil {
			t.Fatal(err)
		}
		got, err := dp.Collect()
		if err != nil {
			t.Fatalf("%s: collect: %v", ex.Name, err)
		}

		st := plan.ByName[ex.Result]
		k := st.NumKeyCols()
		if st.Kind == compiler.KindSelect {
			k = len(st.Schema) // compare whole rows positionally via key=all
		}
		if ex.Linear {
			tablesMatch(t, ex.Name, got[ex.Result], truth[ex.Result], k, 1e-9, true)
		} else {
			// Non-linear: the datapath result covers only valid keys, and
			// those must agree with ground truth.
			tablesMatch(t, ex.Name, got[ex.Result], truth[ex.Result], k, 1e-9, false)
			valid, total := dp.Accuracy(0)
			if total == 0 || valid == total {
				t.Errorf("%s: expected some invalid keys under churn (got %d/%d)", ex.Name, valid, total)
			}
			if len(got[ex.Result].Rows) != valid {
				t.Errorf("%s: reported rows %d != valid keys %d", ex.Name, len(got[ex.Result].Rows), valid)
			}
		}

		// Sanity: caches actually churned for the 5-tuple keyed queries.
		if ex.Name == "Per-flow loss rate" {
			if dp.Stats()[0].Evictions == 0 {
				t.Errorf("%s: no evictions — test not exercising the merge path", ex.Name)
			}
		}
	}
}

// runTables is New → Run → Collect over recs.
func runTables(t *testing.T, plan *compiler.Plan, recs []trace.Record, cfg Config) map[string]*exec.Table {
	t.Helper()
	dp, err := New(plan, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := dp.Run(&trace.SliceSource{Records: recs}); err != nil {
		t.Fatal(err)
	}
	tabs, err := dp.Collect()
	if err != nil {
		t.Fatal(err)
	}
	return tabs
}

// TestBigCacheEqualsTinyCache: for linear queries the result must be
// independent of cache size — the whole point of exact merging.
func TestBigCacheEqualsTinyCache(t *testing.T) {
	recs := testTrace(t)
	ex := queries.ByName("Latency EWMA")
	plan1 := compilePlan(t, ex.Source)
	plan2 := compilePlan(t, ex.Source)

	big := runTables(t, plan1, recs, Config{Geometry: kvstore.FullyAssociative(1 << 20)})
	tiny := runTables(t, plan2, recs, Config{Geometry: kvstore.HashTable(64)})
	tablesMatch(t, "ewma big-vs-tiny", tiny[ex.Result], big[ex.Result], 5, 1e-9, true)
}

// TestDisableExactMergeDegrades: with merging off, heavy churn must leave
// invalid keys even for a linear fold (the ablation of §3.2's mechanism).
func TestDisableExactMergeDegrades(t *testing.T) {
	recs := testTrace(t)
	ex := queries.ByName("Per-flow counters")
	plan := compilePlan(t, ex.Source)
	dp, err := New(plan, Config{
		Geometry:          kvstore.SetAssociative(256, 8),
		DisableExactMerge: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := dp.Run(&trace.SliceSource{Records: recs}); err != nil {
		t.Fatal(err)
	}
	valid, total := dp.Accuracy(0)
	if valid == total {
		t.Errorf("exact-merge ablation: all %d keys still valid — no degradation observed", total)
	}
}

// TestSelectOverTMirrorsMatches checks the match-and-mirror path.
func TestSelectOverTMirrorsMatches(t *testing.T) {
	recs := testTrace(t)
	src := "SELECT srcip, qid WHERE tout - tin > 1ms\n"
	plan := compilePlan(t, src)
	truth, err := exec.Run(plan, &trace.SliceSource{Records: recs})
	if err != nil {
		t.Fatal(err)
	}
	got := runTables(t, plan, recs, Config{})
	tg, tt := got["_1"], truth["_1"]
	if len(tg.Rows) != len(tt.Rows) {
		t.Fatalf("mirrored %d rows, want %d", len(tg.Rows), len(tt.Rows))
	}
	for i := range tt.Rows {
		for j := range tt.Rows[i] {
			if tg.Rows[i][j] != tt.Rows[i][j] {
				t.Fatalf("row %d differs: %v vs %v", i, tg.Rows[i], tt.Rows[i])
			}
		}
	}
	// The WHERE must actually filter something.
	if len(tt.Rows) == 0 {
		t.Error("predicate matched nothing; trace lacks >1ms delays")
	}
	var total int
	for range recs {
		total++
	}
	if len(tt.Rows) == total {
		t.Error("predicate matched everything; test is vacuous")
	}
}

// TestEvictionObserver wires Config.OnEvict.
func TestEvictionObserver(t *testing.T) {
	recs := testTrace(t)
	plan := compilePlan(t, "SELECT COUNT GROUPBY 5tuple\n")
	var seen int
	dp, err := New(plan, Config{
		Geometry: kvstore.HashTable(64),
		OnEvict:  func(prog int, ev *kvstore.Eviction) { seen++ },
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := dp.Run(&trace.SliceSource{Records: recs}); err != nil {
		t.Fatal(err)
	}
	st := dp.Stats()[0]
	if uint64(seen) != st.Evictions+st.Flushed {
		t.Errorf("observer saw %d evictions, cache reports %d", seen, st.Evictions+st.Flushed)
	}
	if dp.StoreStats()[0].Keys == 0 {
		t.Error("backing store empty")
	}
}

// TestProcessInlineShardedMatchesRun pins the contract of the
// record-at-a-time entry: however a stream reaches a datapath — Run over
// the whole source, Process record by record, or Process and Feed
// interleaved in runs one short of, exactly, and one past the block
// length (so staged records must drain before a Feed's slice runs) — on
// workers or inline at GOMAXPROCS=1, every table, every program's cache
// and store statistics and its accuracy are bit-identical, and the
// tables equal exec ground truth. The plans cover what the block loop
// does under routing masks: programs that group by different keys next
// to a select-over-T (sparse, disjoint lane masks and the free-mask
// bit), guarded programs (ownership AND-ed into the match mask), and a
// digest-mode key (component values recorded on insert). Every other
// entry runs on a datapath with a one-partition Partition, which must be
// indistinguishable from none.
func TestProcessInlineShardedMatchesRun(t *testing.T) {
	plans := []struct{ name, src string }{
		{"shared-key+select", `R1 = SELECT COUNT GROUPBY 5tuple
R2 = SELECT qid, tin WHERE proto == 6`},
		{"two-keys+select", `R1 = SELECT COUNT, SUM(pkt_len) GROUPBY srcip WHERE proto == 6
R2 = SELECT COUNT GROUPBY 5tuple
R3 = SELECT qid, tin WHERE pkt_len > 1400`},
		{"digest-key", `R1 = SELECT COUNT, SUM(pkt_len) GROUPBY srcip, dstip, srcport, dstport, proto, qid WHERE pkt_len > 100`},
	}
	recs := testTrace(t)

	type observed struct {
		tables map[string]*exec.Table
		stats  []kvstore.Stats
		stores []backing.Stats
		acc    [][2]int
	}
	observe := func(dp *Datapath) observed {
		o := observed{tables: dp.Tables(), stats: dp.Stats(), stores: dp.StoreStats()}
		for i := range o.stats {
			v, tot := dp.Accuracy(i)
			o.acc = append(o.acc, [2]int{v, tot})
		}
		return o
	}
	requireTables := func(label string, got, want map[string]*exec.Table) {
		t.Helper()
		for name, gt := range got {
			wt := want[name]
			if wt == nil || len(gt.Rows) != len(wt.Rows) {
				t.Fatalf("%s: table %s has %d rows, want %v", label, name, len(gt.Rows), wt)
			}
			for i := range wt.Rows {
				for j := range wt.Rows[i] {
					if math.Float64bits(gt.Rows[i][j]) != math.Float64bits(wt.Rows[i][j]) {
						t.Fatalf("%s: table %s row %d col %d: %v != %v", label, name, i, j, gt.Rows[i][j], wt.Rows[i][j])
					}
				}
			}
		}
	}

	// interleave alternates Process and Feed in runs of k records.
	interleave := func(k int) func(*Datapath) {
		return func(dp *Datapath) {
			for lo, byProcess := 0, true; lo < len(recs); lo, byProcess = lo+k, !byProcess {
				run := recs[lo:min(lo+k, len(recs))]
				if !byProcess {
					dp.Feed(run)
					continue
				}
				for i := range run {
					dp.Process(&run[i])
				}
			}
			dp.EndFeed()
			dp.Flush()
		}
	}
	entries := []struct {
		name  string
		drive func(*Datapath)
	}{
		{"run", func(dp *Datapath) {
			if err := dp.Run(&trace.SliceSource{Records: recs}); err != nil {
				t.Fatal(err)
			}
		}},
		{"process", func(dp *Datapath) {
			for i := range recs {
				dp.Process(&recs[i])
			}
			dp.Flush()
		}},
		{"interleave1", interleave(1)},
		{"interleave63", interleave(63)},
		{"interleave64", interleave(64)},
		{"interleave65", interleave(65)},
	}

	for _, pl := range plans {
		plan := compilePlan(t, pl.src)
		if pl.name == "digest-key" && plan.Programs[0].Key.Packed {
			t.Fatalf("%s: key packs into 128 bits; the keyVals path would not run", pl.name)
		}
		truth, err := exec.Run(plan, &trace.SliceSource{Records: recs})
		if err != nil {
			t.Fatal(err)
		}
		for _, shards := range []int{1, 2, 4} {
			var want *observed
			for _, procs := range []int{4, 1} {
				prev := runtime.GOMAXPROCS(procs)
				for i, e := range entries {
					label := fmt.Sprintf("%s/shards%d/procs%d/%s", pl.name, shards, procs, e.name)
					cfg := Config{Geometry: kvstore.SetAssociative(1<<10, 8), Shards: shards}
					if i%2 == 1 {
						// The K = 1 case of the partitioned engine: one
						// partition that owns every record is the plain
						// datapath (these plans' programs have one member
						// each, so the reconcile's accuracy is the stores').
						label += "/one-partition"
						cfg.Partition = &Partition{Labels: []string{""}, Of: func(*trace.Record) int { return 0 }}
					}
					dp, err := New(plan, cfg)
					if err != nil {
						t.Fatal(err)
					}
					e.drive(dp)
					if dp.Packets() != uint64(len(recs)) || dp.Unrouted() != 0 {
						t.Fatalf("%s: %d packets (%d unrouted), want %d", label, dp.Packets(), dp.Unrouted(), len(recs))
					}
					got := observe(dp)
					if want == nil {
						// The reference of this layout: exact against ground
						// truth (integer-coefficient linear folds merge
						// exactly), and not vacuously so.
						requireTables(label+" vs ground truth", got.tables, truth)
						for i, st := range got.stats {
							if st.Evictions == 0 {
								t.Fatalf("%s: program %d never evicted; the merge path is not exercised", label, i)
							}
							if rows := len(truth[plan.Programs[i].Members[0].Name].Rows); got.acc[i] != [2]int{rows, rows} {
								t.Fatalf("%s: program %d accuracy %v, ground truth has %d keys", label, i, got.acc[i], rows)
							}
						}
						want = &got
						continue
					}
					requireTables(label, got.tables, want.tables)
					if !slices.Equal(got.stats, want.stats) || !slices.Equal(got.stores, want.stores) || !slices.Equal(got.acc, want.acc) {
						t.Fatalf("%s: cache stats %+v, store stats %+v, accuracy %v\nwant %+v, %+v, %v",
							label, got.stats, got.stores, got.acc, want.stats, want.stores, want.acc)
					}
				}
				runtime.GOMAXPROCS(prev)
			}
		}
	}
}

// TestProcessInlineStagedCount pins what the path-mix counters mean now
// that ring slots run in place: perfq_path_staged_records_total counts
// the records Process copied into the feeder's pending block and nothing
// else — a fed run is never staged, on one shard or on a live 2-shard
// pool — and every record, however it came, is a block-loop record, under
// the partition that took it.
func TestProcessInlineStagedCount(t *testing.T) {
	recs := testTrace(t)[:5000]
	plan := compilePlan(t, "SELECT COUNT GROUPBY 5tuple\n")
	byProcess, byFeed := recs[:1000], recs[1000:]
	for _, shards := range []int{1, 2} {
		prev := runtime.GOMAXPROCS(4)
		reg := obs.NewRegistry()
		dp, err := New(plan, Config{Geometry: kvstore.SetAssociative(1<<10, 8), Shards: shards, Metrics: reg})
		if err != nil {
			t.Fatal(err)
		}
		for i := range byProcess[:500] {
			dp.Process(&byProcess[i])
		}
		dp.Feed(byFeed) // starts the pool on 2 shards; the pending block goes first
		for i := range byProcess[500:] {
			dp.Process(&byProcess[500+i]) // into the live pool
		}
		dp.Sync()
		for name, want := range map[string]int{
			"perfq_packets_total":             len(recs),
			"perfq_path_block_records_total":  len(recs),
			"perfq_path_staged_records_total": len(byProcess),
		} {
			if got, _ := reg.Value(name); got != float64(want) {
				t.Errorf("shards %d: %s = %.0f, want %d", shards, name, got, want)
			}
		}
		dp.EndFeed()
		runtime.GOMAXPROCS(prev)
	}
}

// TestShardedEvictionObserverOrder pins Config.OnEvict's contract over
// the batch path, on one shard and on a live 2-shard pool: the observer
// sees every eviction exactly once and a key's evictions in the order
// they happened — for a non-mergeable fold the states it saw for a key
// are that key's epochs in its shard's store, oldest first — and it runs
// after the store has consumed the batch the eviction left in (checked on
// the one shard, where the observer may read the store). The batch
// histogram counts one observation per batch, its sum the evictions.
func TestShardedEvictionObserverOrder(t *testing.T) {
	recs := testTrace(t)
	plan := compilePlan(t, queries.ByName("TCP non-monotonic").Source)
	prev := runtime.GOMAXPROCS(4)
	defer runtime.GOMAXPROCS(prev)
	for _, shards := range []int{1, 2} {
		seen := map[packet.Key128][][]float64{}
		n := 0
		reg := obs.NewRegistry()
		var dp *Datapath
		dp, err := New(plan, Config{
			Geometry: kvstore.SetAssociative(256, 8), Shards: shards, Metrics: reg,
			OnEvict: func(prog int, ev *kvstore.Eviction) {
				n++
				seen[ev.Key] = append(seen[ev.Key], slices.Clone(ev.State))
				if shards == 1 {
					if got := dp.shards[0].progs[prog].store.Stats().Appends; got < uint64(n) {
						t.Errorf("eviction %d observed when the store had consumed %d", n, got)
					}
				}
			},
		})
		if err != nil {
			t.Fatal(err)
		}
		if err := dp.Run(&trace.SliceSource{Records: recs}); err != nil {
			t.Fatal(err)
		}
		stored, multi := 0, 0
		for _, sh := range dp.shards {
			st := sh.progs[0].store
			for i := 0; i < st.Len(); i++ {
				key, _, _ := st.At(i)
				epochs := st.Epochs(key)
				if stored += len(epochs); len(epochs) > 1 {
					multi++
				}
				if len(epochs) != len(seen[key]) {
					t.Fatalf("shards %d: key %v has %d epochs, the observer saw %d", shards, key, len(epochs), len(seen[key]))
				}
				for j, e := range epochs {
					if !slices.Equal(e.State, seen[key][j]) {
						t.Fatalf("shards %d: key %v epoch %d = %v, the observer's %d-th was %v", shards, key, j, e.State, j, seen[key][j])
					}
				}
			}
		}
		cs := dp.Stats()[0]
		if total := int(cs.Evictions + cs.Flushed); n != total || stored != total || multi == 0 {
			t.Fatalf("shards %d: observer saw %d evictions, stores hold %d epochs (%d keys with several), caches report %d", shards, n, stored, multi, total)
		}
		var batches, lanes float64
		for _, s := range reg.Gather(nil) {
			switch {
			case strings.HasPrefix(s.Name, "perfq_backing_batch_evictions_count"):
				batches += s.Value
			case strings.HasPrefix(s.Name, "perfq_backing_batch_evictions_sum"):
				lanes += s.Value
			}
		}
		if int(lanes) != n || batches == 0 || batches >= lanes {
			t.Fatalf("shards %d: perfq_backing_batch_evictions counts %v batches of %v lanes in all, want %d lanes in fewer batches", shards, batches, lanes, n)
		}
	}
}
