package perfq

// Windows. Every emitted window of a WithWindow run — tumbling or
// carry-over, by count or by interval, over shards and fabrics — is held
// to window.GroundTruth's replay of the same schedule by the
// whole-system differential (system_test.go); the Figure 2 pins below
// keep the paper's seven queries on it by name. What stays here is what
// the differential cannot express: the bounded ring of retained windows
// and the Figure 6 accuracy knob.

import (
	"slices"
	"testing"
	"time"

	"perfq/internal/queries"
)

// collectWindows streams the query and returns every window result (the
// callback sees all of them regardless of ring size).
func collectWindows(t *testing.T, q *Query, recs []Record, opts ...RunOption) []*WindowResult {
	t.Helper()
	var out []*WindowResult
	res, err := q.Stream(Records(recs), func(w *WindowResult) error {
		out = append(out, w)
		return nil
	}, opts...)
	if err != nil {
		t.Fatal(err)
	}
	if res.WindowCount() != int64(len(out)) {
		t.Fatalf("WindowCount %d, emitted %d", res.WindowCount(), len(out))
	}
	return out
}

// TestWindowedZeroChurnBitIdentical pins every Figure 2 query under
// count windows with caches large enough that only window closes evict.
func TestWindowedZeroChurnBitIdentical(t *testing.T) {
	fig2Pins(t, churnTrace(t), sysCase{pairs: 1 << 20, ways: 8, win: &WindowSpec{Count: 1500}}, churnNone, nil)
}

// TestWindowedChurnEquivalence pins every Figure 2 query under count
// windows with a cache far below the working set.
func TestWindowedChurnEquivalence(t *testing.T) {
	fig2Pins(t, churnTrace(t), sysCase{pairs: 1 << 10, ways: 8, win: &WindowSpec{Count: 4000}}, churnSome, nil)
}

// TestWindowedByTimeMatchesGroundTruth pins the per-flow counters under
// 400 ms windows of trace time.
func TestWindowedByTimeMatchesGroundTruth(t *testing.T) {
	fig2Pins(t, churnTrace(t), sysCase{pairs: 1 << 10, ways: 8, win: &WindowSpec{Interval: 400 * time.Millisecond}}, churnSome,
		func(ex *queries.Example) bool { return ex.Name == "Per-flow counters" })
}

// TestWindowedCarryOverCumulative pins a sum, a history fold and a decay
// fold under carry-over windows, where every boundary flush splits each
// resident key into one more cache epoch.
func TestWindowedCarryOverCumulative(t *testing.T) {
	fig2Pins(t, churnTrace(t), sysCase{pairs: 1 << 10, ways: 8, win: &WindowSpec{Count: 4000, Carry: true}}, churnSome,
		func(ex *queries.Example) bool {
			return slices.Contains([]string{"Per-flow counters", "TCP out of sequence", "Latency EWMA"}, ex.Name)
		})
}

// TestWindowedWithShards pins a sum and a history fold under count
// windows at four shards.
func TestWindowedWithShards(t *testing.T) {
	forceProcs(t)
	fig2Pins(t, churnTrace(t), sysCase{shards: 4, pairs: 1 << 10, ways: 8, win: &WindowSpec{Count: 4000}}, churnSome,
		func(ex *queries.Example) bool {
			return ex.Name == "Per-flow counters" || ex.Name == "TCP out of sequence"
		})
}

// TestWindowedFabric pins every Figure 2 query under count windows over
// the fabric at zero churn.
func TestWindowedFabric(t *testing.T) {
	forceProcs(t)
	tp := equivFabric()
	fig2Pins(t, fabricTrace(t, tp, 300), sysCase{tp: tp, pairs: 1 << 20, ways: 8, win: &WindowSpec{Count: 2500}}, churnNone, nil)
}

// TestWindowedFabricWithShards stacks all three layers — windows over a
// fabric of sharded datapaths — for the per-flow counters.
func TestWindowedFabricWithShards(t *testing.T) {
	forceProcs(t)
	tp := equivFabric()
	c := sysCase{name: "counters", src: queries.ByName("Per-flow counters").Source, recs: fabricTrace(t, tp, 300),
		tp: tp, shards: 4, pairs: 1 << 14, ways: 8, win: &WindowSpec{Count: 2500}}
	runSystemCase(t, &c, churnAny, nil)
}

// TestWindowedRingBounded pins the bounded-memory contract: a long
// stream with a small Keep retains exactly Keep windows (the newest
// ones) while the callback still sees every close.
func TestWindowedRingBounded(t *testing.T) {
	recs := churnTrace(t)
	q := MustCompile(queries.ByName("Per-flow counters").Source)
	emitted := 0
	res, err := q.Stream(Records(recs), func(w *WindowResult) error {
		emitted++
		return nil
	}, WithCache(1<<12, 8), WithWindow(WindowSpec{Count: 1000, Keep: 4}))
	if err != nil {
		t.Fatal(err)
	}
	if emitted < 8 {
		t.Fatalf("only %d windows; trace sizing broken", emitted)
	}
	wins := res.Windows()
	if len(wins) != 4 {
		t.Fatalf("retained %d windows, want 4", len(wins))
	}
	if res.WindowsDropped() != int64(emitted-4) || res.WindowCount() != int64(emitted) {
		t.Fatalf("dropped %d of %d, retained 4", res.WindowsDropped(), res.WindowCount())
	}
	for i, w := range wins {
		if want := int64(emitted - 4 + i); w.Index != want {
			t.Fatalf("retained window %d has index %d, want %d (newest-K)", i, w.Index, want)
		}
	}
	// The final Results view is the last window.
	if res.Result().Len() != wins[3].Result().Len() {
		t.Fatal("Results.Result is not the last window's table")
	}
}

// TestWindowedAccuracyKnob is Figure 6's x-axis as a runtime experiment,
// in both directions: under carry-over (periodic flush, cumulative
// tables) shorter epochs mean more boundary crossings per key, so
// whole-run accuracy of the non-linear fold must fall monotonically as
// windows shrink; under tumbling windows each window is its own short
// query, so per-window accuracy at the shortest window must beat the
// single-window run.
func TestWindowedAccuracyKnob(t *testing.T) {
	recs := churnTrace(t)
	q := MustCompile(queries.ByName("TCP non-monotonic").Source)
	acc := func(ws *WindowSpec) float64 {
		opts := []RunOption{WithCache(1<<9, 8)}
		if ws != nil {
			opts = append(opts, WithWindow(*ws))
		}
		res, err := q.Run(Records(recs), opts...)
		if err != nil {
			t.Fatal(err)
		}
		if res.TotalKeys == 0 {
			t.Fatal("no keys")
		}
		return float64(res.ValidKeys) / float64(res.TotalKeys)
	}
	single := acc(nil)
	carry2k := acc(&WindowSpec{Count: 2000, Carry: true})
	carry500 := acc(&WindowSpec{Count: 500, Carry: true})
	if !(carry500 <= carry2k && carry2k <= single) {
		t.Errorf("carry-over accuracy not monotone in epoch length: 500→%.4f 2000→%.4f single→%.4f",
			carry500, carry2k, single)
	}
	// Tumbling: mean per-window accuracy (weighted by keys) at the
	// shortest window must beat the single-window run — and the two
	// accuracy scopes must coincide (every key present was touched this
	// window).
	var valid, total int
	for _, w := range collectWindows(t, q, recs, WithCache(1<<9, 8),
		WithWindow(WindowSpec{Count: 500, Keep: 1 << 20})) {
		valid += w.ValidKeys
		total += w.TotalKeys
		if w.WindowValidKeys != w.ValidKeys || w.WindowTotalKeys != w.TotalKeys {
			t.Fatalf("tumbling window %d: scopes diverge: %d/%d vs window %d/%d",
				w.Index, w.ValidKeys, w.TotalKeys, w.WindowValidKeys, w.WindowTotalKeys)
		}
	}
	if tumb := float64(valid) / float64(total); tumb <= single {
		t.Errorf("tumbling per-window accuracy %.4f not above single-window %.4f", tumb, single)
	}
	// Carry-over: the window scope counts only keys touched since the
	// previous boundary, so it must be no wider than the cumulative
	// scope once the run is past its first window.
	wins := collectWindows(t, q, recs, WithCache(1<<9, 8),
		WithWindow(WindowSpec{Count: 2000, Carry: true, Keep: 1 << 20}))
	last := wins[len(wins)-1]
	if last.WindowTotalKeys >= last.TotalKeys {
		t.Errorf("carry window scope %d/%d not narrower than cumulative %d/%d",
			last.WindowValidKeys, last.WindowTotalKeys, last.ValidKeys, last.TotalKeys)
	}
	if last.WindowValidKeys > last.WindowTotalKeys {
		t.Errorf("window scope inconsistent: %d/%d", last.WindowValidKeys, last.WindowTotalKeys)
	}
}
