package switchsim

import (
	"fmt"
	"math/rand"
	"runtime"
	"testing"
	"time"

	"perfq/internal/kvstore"
	"perfq/internal/queries"
	"perfq/internal/trace"
	"perfq/internal/tracegen"
)

// wanWindow returns a WAN-preset record run holding exactly keys distinct
// five-tuples — one window of the stream_windows shape (≈1.7 records per
// key), scaled to the key count asked for.
func wanWindow(tb testing.TB, keys int) []trace.Record {
	tb.Helper()
	gen := tracegen.New(tracegen.WANConfig(12, time.Hour))
	seen := map[[16]byte]struct{}{}
	var recs []trace.Record
	var rec trace.Record
	for len(seen) < keys {
		if err := gen.Next(&rec); err != nil {
			tb.Fatal(err)
		}
		seen[rec.FlowKey().Pack()] = struct{}{}
		recs = append(recs, rec)
	}
	return recs
}

// BenchmarkCloseWindow prices a tumbling window close per key it
// materializes: flush (cache → the rows a store holds back for keys it has
// never seen, or a merge into the ones it has), tables (gather + sort +
// row carve) and the store reset, at the stream_windows key count and at
// the key count of a whole-trace Collect. In those two the cache holds
// every key, so the store is empty when the flush starts and every lane is
// held back; the third (pairs=1024) sends most of the window's keys to the
// store by capacity evictions before the close, so its flush prices the
// lookup-then-merge half of HandleFlush.
func BenchmarkCloseWindow(b *testing.B) {
	for _, c := range []struct{ keys, pairs int }{{3_000, 1 << 14}, {130_000, 1 << 18}, {3_000, 1 << 10}} {
		name := fmt.Sprintf("keys=%d", c.keys)
		if c.pairs < c.keys {
			name += fmt.Sprintf(",pairs=%d", c.pairs)
		}
		b.Run(name, func(b *testing.B) {
			plan := compilePlan(b, queries.ByName("Latency EWMA").Source)
			recs := wanWindow(b, c.keys)
			d, err := New(plan, Config{Geometry: kvstore.SetAssociative(c.pairs, 8)})
			if err != nil {
				b.Fatal(err)
			}
			var flush, tables, reset time.Duration
			// One untimed close first: stores, index and gather scratch grow
			// to the key count once, as on any stream's second window.
			d.Feed(recs)
			if _, _, err := d.CloseWindow(false); err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				d.Feed(recs)
				d.Sync()
				t0 := time.Now()
				d.Flush()
				t1 := time.Now()
				tabs := d.Tables()
				t2 := time.Now()
				d.ResetWindow()
				t3 := time.Now()
				flush, tables, reset = flush+t1.Sub(t0), tables+t2.Sub(t1), reset+t3.Sub(t2)
				if n := len(tabs[plan.Programs[0].Members[0].Name].Rows); n != c.keys {
					b.Fatalf("%d rows, want %d", n, c.keys)
				}
			}
			perKey := float64(b.N) * float64(c.keys)
			b.ReportMetric(float64(flush.Nanoseconds())/perKey, "flush-ns/key")
			b.ReportMetric(float64(tables.Nanoseconds())/perKey, "tables-ns/key")
			b.ReportMetric(float64(reset.Nanoseconds())/perKey, "reset-ns/key")
		})
	}
}

// BenchmarkSortRefs prices the sort alone on the same keys, in the
// hash-bucket order a flush hands them to the store.
func BenchmarkSortRefs(b *testing.B) {
	for _, keys := range []int{3_000, 130_000} {
		b.Run(fmt.Sprintf("keys=%d", keys), func(b *testing.B) {
			seen := map[[16]byte]struct{}{}
			for _, rec := range wanWindow(b, keys) {
				seen[rec.FlowKey().Pack()] = struct{}{}
			}
			src := make([]keyedRef, 0, keys)
			for k := range seen {
				src = append(src, refOf(k, 0))
			}
			rand.New(rand.NewSource(1)).Shuffle(len(src), func(i, j int) { src[i], src[j] = src[j], src[i] })
			for i := range src {
				src[i].idx = uint64(i)
			}
			refs := make([]keyedRef, keys)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				copy(refs, src)
				sortRefs(refs)
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(keys), "ns/key")
		})
	}
}

// TestCloseWindowAllocations is the close path's allocation guard: on a
// warmed tumbling datapath one window + CloseWindow makes the same small
// number of allocations whatever the key count, and allocates no more
// bytes than the table that escapes (per row: its width in floats and a
// 24-byte slice header) plus a thirty-second and a constant. Gather, sort and flush scratch
// is reused: a close that reallocates any of it per window, or carries a
// second per-key buffer, fails here before it shows in alloc_b_per_pkt.
// Two geometries: 1<<14 pairs, which holds 300 and 3k keys — the flush
// meets an empty store and holds every lane back — but not 30k, and 256
// pairs, whose store already holds keys from capacity evictions at every
// close.
func TestCloseWindowAllocations(t *testing.T) {
	const (
		maxAllocs  = 6    // the tables map and its bucket, the accuracy counts, the table, its slab and rows
		constBytes = 8192 // those, and the allocator rounding slab and rows up to a size class or page
	)
	plan := compilePlan(t, queries.ByName("Latency EWMA").Source)
	st := plan.Programs[0].Members[0]
	width := plan.Programs[0].Key.NumComponents() + len(st.Out)
	var counts []float64
	for _, c := range []struct{ keys, pairs int }{
		{300, 1 << 14}, {3_000, 1 << 14}, {30_000, 1 << 14},
		{300, 1 << 8}, {3_000, 1 << 8}, {30_000, 1 << 8},
	} {
		keys := c.keys
		recs := wanWindow(t, keys)
		d, err := New(plan, Config{Geometry: kvstore.SetAssociative(c.pairs, 8)})
		if err != nil {
			t.Fatal(err)
		}
		closeOne := func() {
			d.Feed(recs)
			tabs, _, err := d.CloseWindow(false)
			if err != nil {
				t.Fatal(err)
			}
			if n := len(tabs[st.Name].Rows); n != keys {
				t.Fatalf("%d rows, want %d", n, keys)
			}
		}
		closeOne() // warm: stores, index and gather scratch reach the key count
		d.Feed(recs)
		d.Sync()
		if held := d.StoreStats()[0].Keys; (held == 0) != (c.pairs > keys) {
			t.Fatalf("%d keys into %d pairs: the store holds %d keys before the close", keys, c.pairs, held)
		}
		if _, _, err := d.CloseWindow(false); err != nil {
			t.Fatal(err)
		}
		counts = append(counts, testing.AllocsPerRun(5, closeOne))

		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		closeOne()
		runtime.ReadMemStats(&after)
		table := uint64(keys * (width*8 + 24))
		got, limit := after.TotalAlloc-before.TotalAlloc, table+table/32+constBytes
		t.Logf("%d keys, %d pairs: %v allocations, %d bytes per close (table %d)", keys, c.pairs, counts[len(counts)-1], got, table)
		if got > limit {
			t.Errorf("%d keys, %d pairs: a close allocated %d bytes, more than the escaping table's %d (+1/32, +%d)", keys, c.pairs, got, table, constBytes)
		}
	}
	for _, c := range counts {
		if c != counts[0] || c > maxAllocs {
			t.Fatalf("allocations per close at 300/3k/30k keys, both geometries: %v, want one count ≤ %d", counts, maxAllocs)
		}
	}
}
