package perfq

// Sharding. The WithShards(n) datapath's tables are held to the
// unbounded reference by the whole-system differential (system_test.go);
// the Figure 2 pins below keep the paper's seven queries on it by name at
// eight shards. What stays here is what the differential cannot express:
// the Figure 6 accuracy envelope between shard counts, concurrent runs
// over one compiled query, and the facade's shard-count defaults.

import (
	"fmt"
	"math"
	"runtime"
	"sync"
	"testing"
	"time"

	"perfq/internal/exec"
	"perfq/internal/queries"
	"perfq/internal/trace"
	"perfq/internal/tracegen"
)

// forceProcs raises GOMAXPROCS to at least 4 for the duration of a test
// so the parallel transport — the worker pool, its ring buffers and
// barriers — is actually exercised (and race-detectable)
// even on a single-core host, where the runtime would otherwise take
// the GOMAXPROCS=1 inline bypass.
func forceProcs(t testing.TB) {
	if runtime.GOMAXPROCS(0) >= 4 {
		return
	}
	prev := runtime.GOMAXPROCS(4)
	t.Cleanup(func() { runtime.GOMAXPROCS(prev) })
}

// atProcs runs fn at the given GOMAXPROCS: 1 selects the inline router
// (no second processor to run a worker on), anything above it the
// worker pool.
func atProcs(n int, fn func()) {
	prev := runtime.GOMAXPROCS(n)
	defer runtime.GOMAXPROCS(prev)
	fn()
}

// churnTrace is a trace sized well above the test caches so evicted keys
// reappear (the regime where the merge machinery actually works).
func churnTrace(t testing.TB) []Record {
	t.Helper()
	cfg := tracegen.DCConfig(99, 4*time.Second)
	cfg.FlowRate = 800
	cfg.PktGap = tracegen.LognormalWithMean(0.08, 1.0)
	cfg.DropProb = 0.01
	recs, err := trace.Collect(tracegen.New(cfg))
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) < 5000 {
		t.Fatalf("trace too small: %d records", len(recs))
	}
	return recs
}

// requireTablesIdentical asserts got and want agree bit for bit.
func requireTablesIdentical(t *testing.T, name string, got, want *Table) {
	t.Helper()
	if want == nil {
		t.Fatalf("%s: missing table", name)
	}
	if diff := diffRows((*exec.Table)(got), (*exec.Table)(want), 0, nil); diff != "" {
		t.Fatalf("%s: %s", name, diff)
	}
}

// allTables snapshots every stage's table from a run.
func allTables(r *Results) map[string]*Table {
	out := map[string]*Table{}
	for name, tab := range r.tables {
		out[name] = &Table{Schema: tab.Schema, Rows: tab.Rows}
	}
	return out
}

// TestShardedDatapathEquivalence pins every Figure 2 query at eight
// shards under eviction churn to the oracle, and holds the non-linear one
// to the Figure 6 envelope between one shard and eight.
func TestShardedDatapathEquivalence(t *testing.T) {
	forceProcs(t)
	recs := churnTrace(t)
	fig2Pins(t, recs, sysCase{shards: 8, pairs: 1 << 10, ways: 8}, churnSome, nil)
	ex := queries.ByName("TCP non-monotonic")
	q := MustCompile(ex.Source)
	var rs [2]*Results
	for i, n := range []int{1, 8} {
		var err error
		if rs[i], err = q.Run(Records(recs), WithCache(1<<10, 8), WithShards(n)); err != nil {
			t.Fatal(err)
		}
	}
	checkAccuracyEnvelope(t, ex, recs, rs[0], rs[1])
}

// checkAccuracyEnvelope verifies the non-linear contract: both shard
// counts report high single-epoch accuracy, close to each other, and
// every key either reports carries the reference's value, bit for bit.
func checkAccuracyEnvelope(t *testing.T, ex *queries.Example, recs []Record, r1, r8 *Results) {
	t.Helper()
	acc := func(r *Results) float64 { return float64(r.ValidKeys) / float64(r.TotalKeys) }
	if a1, a8 := acc(r1), acc(r8); a1 < 0.5 || a8 < 0.5 || math.Abs(a1-a8) > 0.10 {
		t.Fatalf("accuracy outside envelope: serial %.3f, sharded %.3f", a1, a8)
	}
	truth, err := exec.Run(r1.q.plan, Records(recs))
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range []*Results{r1, r8} {
		if diff := diffSubset(r.tables[ex.Result], truth[ex.Result], 5); diff != "" {
			t.Fatal(diff)
		}
	}
}

// TestShardedZeroChurnBitIdentical pins every linear Figure 2 query at
// eight shards with a cache large enough that only the final flush
// evicts: one epoch per key, so the oracle holds every class bit-exact.
func TestShardedZeroChurnBitIdentical(t *testing.T) {
	forceProcs(t)
	cfg := tracegen.DCConfig(7, time.Second)
	cfg.DropProb = 0.005
	recs, err := trace.Collect(tracegen.New(cfg))
	if err != nil {
		t.Fatal(err)
	}
	fig2Pins(t, recs, sysCase{shards: 8, pairs: 1 << 20, ways: 8}, churnNone,
		func(ex *queries.Example) bool { return ex.Linear })
}

// TestShardedRunConcurrent hammers sharded runs from multiple goroutines
// over one shared compiled query and record slice — the -race target's
// main course. Every run must produce the reference result.
func TestShardedRunConcurrent(t *testing.T) {
	forceProcs(t)
	recs := churnTrace(t)
	src := queries.ByName("Per-flow loss rate")
	q := MustCompile(src.Source)
	ref, err := q.Run(Records(recs), WithCache(1<<10, 8), WithShards(4))
	if err != nil {
		t.Fatal(err)
	}
	const goroutines = 8
	var wg sync.WaitGroup
	errs := make(chan error, goroutines)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			res, err := q.Run(Records(recs), WithCache(1<<10, 8), WithShards(4))
			if err != nil {
				errs <- err
				return
			}
			for name, want := range ref.tables {
				if diff := diffRows(res.tables[name], want, 0, nil); diff != "" {
					errs <- fmt.Errorf("table %s diverged across concurrent runs: %s", name, diff)
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

// TestWithShardsDefaults pins the facade contract: WithShards(0) and
// WithShards(1) are the serial datapath, and shard counts beyond the key
// cardinality still work.
func TestWithShardsDefaults(t *testing.T) {
	q := MustCompile("SELECT COUNT GROUPBY qid")
	recs, err := trace.Collect(DCTrace(3, time.Second))
	if err != nil {
		t.Fatal(err)
	}
	base, err := q.Run(Records(recs))
	if err != nil {
		t.Fatal(err)
	}
	for _, n := range []int{0, 1, 3, 64} {
		res, err := q.Run(Records(recs), WithShards(n))
		if err != nil {
			t.Fatalf("shards=%d: %v", n, err)
		}
		requireTablesIdentical(t, fmt.Sprintf("shards-%d", n), res.Result(), base.Result())
	}
}
