package perfq

// Sharded-vs-unsharded equivalence suite: the WithShards(n) datapath must
// be observationally identical to the serial one. For linear-in-state
// queries the backing store reconstructs the infinite-cache value exactly,
// so sharding must not change a single output bit — with one narrow,
// fundamental exception: folds with fractional decay coefficients (EWMA's
// 1-α) re-associate the A·S+B reconstruction at every eviction, so
// different epoch partitions can round the last bit differently. Those
// are asserted bit-identical under zero eviction churn and within 1e-12
// relative under churn. Non-linear folds keep §3.2 epoch semantics per
// shard: accuracy may move within the Figure 6 envelope, but keys valid
// under both shard counts must carry bit-identical values (a single epoch
// is a pure cache state either way).

import (
	"fmt"
	"math"
	"runtime"
	"sync"
	"testing"
	"time"

	"perfq/internal/fold"
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

// roundingProneCoeffs reports whether any switch program of q has a
// linear coefficient matrix that can round in floating point: a
// fractional constant (EWMA's 1-α) or a packet-dependent entry. Folds
// whose A entries are all integer constants keep the running product P —
// and with integer-valued inputs the whole merge — exact in float64, so
// epoch partitions cannot change a bit of their output.
func roundingProneCoeffs(q *Query) bool {
	for _, sp := range q.plan.Programs {
		ls := sp.Fold.Linear
		if ls == nil {
			continue
		}
		for _, row := range ls.A {
			for _, e := range row {
				switch c := e.(type) {
				case nil:
				case fold.Const:
					if float64(c) != math.Trunc(float64(c)) {
						return true
					}
				default:
					return true
				}
			}
		}
	}
	return false
}

// requireTablesIdentical asserts got and want agree bit-for-bit.
func requireTablesIdentical(t *testing.T, name string, got, want *Table) {
	t.Helper()
	requireTablesWithin(t, name, got, want, 0)
}

// requireTablesWithin asserts schema and row-count equality and value
// agreement within rel (relative, 0 = bit-identical) on the sorted rows.
func requireTablesWithin(t *testing.T, name string, got, want *Table, rel float64) {
	t.Helper()
	if got == nil || want == nil {
		t.Fatalf("%s: missing table (got=%v want=%v)", name, got != nil, want != nil)
	}
	if len(got.Schema) != len(want.Schema) {
		t.Fatalf("%s: schema %v vs %v", name, got.Schema, want.Schema)
	}
	if len(got.Rows) != len(want.Rows) {
		t.Fatalf("%s: %d rows vs %d rows", name, len(got.Rows), len(want.Rows))
	}
	for i := range want.Rows {
		for j := range want.Rows[i] {
			g, w := got.Rows[i][j], want.Rows[i][j]
			if math.Float64bits(g) == math.Float64bits(w) {
				continue
			}
			if rel > 0 && math.Abs(g-w) <= rel*math.Max(1, math.Abs(w)) {
				continue
			}
			t.Fatalf("%s: row %d col %s: %v != %v (tol %g)", name, i, want.Schema[j], g, w, rel)
		}
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

// TestShardedDatapathEquivalence is the headline guarantee: for every
// Figure 2 query, an 8-shard run is equivalent to the serial run — exact
// for linear-in-state queries, within the Figure 6 accuracy envelope for
// the non-linear one.
func TestShardedDatapathEquivalence(t *testing.T) {
	forceProcs(t)
	recs := churnTrace(t)
	for _, ex := range queries.Fig2 {
		ex := ex
		t.Run(ex.Name, func(t *testing.T) {
			q := MustCompile(ex.Source)
			if q.LinearInState() != ex.Linear {
				t.Fatalf("linearity: compiled %v, Figure 2 says %v", q.LinearInState(), ex.Linear)
			}
			r1, err := q.Run(Records(recs), WithCache(1<<10, 8), WithShards(1))
			if err != nil {
				t.Fatal(err)
			}
			r8, err := q.Run(Records(recs), WithCache(1<<10, 8), WithShards(8))
			if err != nil {
				t.Fatal(err)
			}
			if r1.Evictions == 0 && r1.TotalKeys > 2000 {
				// Flow-keyed queries must overrun the 1024-pair cache;
				// the per-queue query legitimately fits.
				t.Fatal("no eviction churn; trace/cache sizing broken")
			}
			t1, t8 := allTables(r1), allTables(r8)
			switch {
			case ex.Linear && !roundingProneCoeffs(q):
				for name := range t1 {
					requireTablesIdentical(t, ex.Name+"/"+name, t8[name], t1[name])
				}
			case ex.Linear:
				// Decay folds (EWMA): the merge reconstruction rounds at
				// the last bit per epoch partition; see file comment.
				for name := range t1 {
					requireTablesWithin(t, ex.Name+"/"+name, t8[name], t1[name], 1e-12)
				}
			default:
				checkAccuracyEnvelope(t, &ex, r1, r8)
			}
		})
	}
}

// checkAccuracyEnvelope verifies the non-linear contract: both shard
// counts report high single-epoch accuracy, close to each other, and
// every key valid under both reports bit-identical values.
func checkAccuracyEnvelope(t *testing.T, ex *queries.Example, r1, r8 *Results) {
	t.Helper()
	acc := func(r *Results) float64 { return float64(r.ValidKeys) / float64(r.TotalKeys) }
	a1, a8 := acc(r1), acc(r8)
	if a1 < 0.5 || a8 < 0.5 {
		t.Fatalf("accuracy collapsed: serial %.3f, sharded %.3f", a1, a8)
	}
	if math.Abs(a1-a8) > 0.10 {
		t.Fatalf("accuracy outside envelope: serial %.3f, sharded %.3f", a1, a8)
	}
	tab1, tab8 := r1.Table(ex.Result), r8.Table(ex.Result)
	if tab1 == nil || tab8 == nil {
		t.Fatal("missing result tables")
	}
	nk := 5 // 5-tuple key columns of the non-monotonic query
	index := map[string][]float64{}
	for _, row := range tab1.Rows {
		index[fmt.Sprint(row[:nk])] = row
	}
	common := 0
	for _, row := range tab8.Rows {
		row1, ok := index[fmt.Sprint(row[:nk])]
		if !ok {
			continue // valid in 8-shard run only; epoch split differs
		}
		common++
		for j := range row {
			if math.Float64bits(row[j]) != math.Float64bits(row1[j]) {
				t.Fatalf("common key diverged at col %s: %v vs %v", tab1.Schema[j], row[j], row1[j])
			}
		}
	}
	if common == 0 {
		t.Fatal("no common valid keys between shard counts")
	}
}

// TestShardedZeroChurnBitIdentical runs every linear query — including
// the history-merge EWMA — with a cache large enough that only the final
// flush evicts: exactly one epoch per key, so sharding must be
// bit-invisible with no exception at all.
func TestShardedZeroChurnBitIdentical(t *testing.T) {
	forceProcs(t)
	cfg := tracegen.DCConfig(7, time.Second)
	cfg.DropProb = 0.005
	recs, err := trace.Collect(tracegen.New(cfg))
	if err != nil {
		t.Fatal(err)
	}
	for _, ex := range queries.Fig2 {
		if !ex.Linear {
			continue
		}
		ex := ex
		t.Run(ex.Name, func(t *testing.T) {
			q := MustCompile(ex.Source)
			// 2^20 pairs comfortably hold even the per-packet (pkt_uniq)
			// keys of this trace, so only the final flush evicts.
			r1, err := q.Run(Records(recs), WithCache(1<<20, 8), WithShards(1))
			if err != nil {
				t.Fatal(err)
			}
			r8, err := q.Run(Records(recs), WithCache(1<<20, 8), WithShards(8))
			if err != nil {
				t.Fatal(err)
			}
			if r1.Evictions != 0 || r8.Evictions != 0 {
				t.Fatalf("churn in zero-churn config: %d/%d evictions", r1.Evictions, r8.Evictions)
			}
			t1, t8 := allTables(r1), allTables(r8)
			for name := range t1 {
				requireTablesIdentical(t, ex.Name+"/"+name, t8[name], t1[name])
			}
		})
	}
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
	refTabs := allTables(ref)

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
			for name, want := range refTabs {
				got := res.Table(name)
				if got == nil || len(got.Rows) != len(want.Rows) {
					errs <- fmt.Errorf("table %s diverged across concurrent runs", name)
					return
				}
				for i := range want.Rows {
					for j := range want.Rows[i] {
						if math.Float64bits(got.Rows[i][j]) != math.Float64bits(want.Rows[i][j]) {
							errs <- fmt.Errorf("table %s row %d diverged", name, i)
							return
						}
					}
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
