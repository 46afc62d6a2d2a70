package backing

import (
	"math/rand"
	"testing"
	"time"
	"unsafe"

	"perfq/internal/fold"
	"perfq/internal/kvstore"
	"perfq/internal/packet"
	"perfq/internal/trace"
)

// TestKeyIndexSparseReset: reset cost follows the keys held, not the
// table's size — a reset writes no slot at all, whatever an earlier window
// grew the table to, so the slots a window wrote still hold its bytes
// afterwards and only their tags, now at or below base, say they are
// dead. That holds for keys whose probe chains run through each other,
// claimed in a new order every round so a key's slot is rarely where its
// stale copy lies: after every reset no slot is live, every key reads
// absent, and the next window's claims behave as on an empty table. When
// base has used up half the tag space the reset clears the table instead,
// and nothing an earlier window wrote comes back to life.
func TestKeyIndexSparseReset(t *testing.T) {
	var ix keyIndex
	ix.init(indexMinSize)
	claim := func(k packet.Key128) (int32, bool) { return ix.claim(k, k.Hash()) }
	for i := 0; i < 3000; i++ { // grow to 4096 slots
		claim(keyN(i))
	}
	size := len(ix.slots)
	if got := unsafe.Sizeof(ix.slots[0]); got != 20 {
		t.Fatalf("an index slot is %d bytes, want 20: key and tag in one record, no wider than the two arrays were", got)
	}
	ix.reset()

	// Keys whose home slots are four neighbours: two dozen of them chain
	// through one another.
	var cluster []packet.Key128
	for i := 0; len(cluster) < 24; i++ {
		if k := keyN(1_000_000 + i); k.Hash()&ix.mask < 4 {
			cluster = append(cluster, k)
		}
	}
	rng := rand.New(rand.NewSource(73))
	for round := 0; round < 4; round++ {
		if round == 3 {
			ix.base = 1<<31 - 10 // this round's keys take base past half the tag space
		}
		rng.Shuffle(len(cluster), func(i, j int) { cluster[i], cluster[j] = cluster[j], cluster[i] })
		for i, k := range cluster {
			if id, ok := claim(k); ok || id != int32(i) {
				t.Fatalf("round %d: first claim of key %d = (%d, %v), want (%d, false)", round, i, id, ok, i)
			}
		}
		for i, k := range cluster {
			if id, ok := claim(k); !ok || id != int32(i) {
				t.Fatalf("round %d: second claim of key %d = (%d, %v), want (%d, true)", round, i, id, ok, i)
			}
			if id, ok := ix.get(k); !ok || id != int32(i) {
				t.Fatalf("round %d: get of key %d = (%d, %v), want (%d, true)", round, i, id, ok, i)
			}
		}
		before := append([]indexSlot(nil), ix.slots...)
		ix.reset()
		if len(ix.slots) != size || ix.used != 0 {
			t.Fatalf("round %d: reset left %d slots, %d used; want %d, 0", round, len(ix.slots), ix.used, size)
		}
		written := 0
		for i, sl := range ix.slots {
			if sl.tag > ix.base {
				t.Fatalf("round %d: slot %d is live after reset", round, i)
			}
			if sl != before[i] {
				written++
			}
		}
		// Only the restart pays for the table; every other reset is free.
		if restarted := round == 3; restarted != (written > 0) || restarted != (ix.base == 0) {
			t.Fatalf("round %d: reset wrote %d slots of %d and left base %d (restart due: %v)", round, written, size, ix.base, restarted)
		}
		for i, k := range cluster {
			if _, ok := ix.get(k); ok {
				t.Fatalf("round %d: key %d present after reset", round, i)
			}
		}
	}
}

// TestResetAfterLargeWindow: one window past 2^18 keys grows the index
// for good; every later small window must still behave as on a fresh
// store — entry ids, values, absence of the large window's keys,
// accuracy, stats — and its reset must leave the grown table empty
// without shrinking it.
func TestResetAfterLargeWindow(t *testing.T) {
	last := &fold.Func{ // non-mergeable: a second eviction of a key invalidates it
		Prog: &fold.Program{
			Name:     "lastlen",
			NumState: 1,
			Body:     []fold.Stmt{fold.Assign{Dst: 0, RHS: fold.FieldRef(trace.FieldPktLen)}},
		},
	}
	evict := func(s *Store, k int, v float64) {
		s.HandleEviction(&kvstore.Eviction{Key: keyN(k), State: []float64{v}})
	}
	const large = 1<<18 + 5000
	grown, fresh := New(last), New(last)
	for k := 0; k < large; k++ {
		evict(grown, k, float64(k))
	}
	if v, tot := grown.Accuracy(); v != large || tot != large {
		t.Fatalf("large window: Accuracy = %d/%d, want %d/%d", v, tot, large, large)
	}
	size := len(grown.ix.slots)
	grown.Reset()

	rng := rand.New(rand.NewSource(74))
	for round := 0; round < 3; round++ {
		// A small window: keys of the large window and new ones, a third
		// of them evicted twice.
		var keys []int
		for i := 0; i < 200; i++ {
			keys = append(keys, rng.Intn(2*large))
		}
		for i, k := range keys {
			for n := 0; n <= i%3/2; n++ {
				v := float64(rng.Intn(1 << 20))
				evict(grown, k, v)
				evict(fresh, k, v)
			}
		}
		if grown.Len() != fresh.Len() || grown.Stats() != fresh.Stats() {
			t.Fatalf("round %d: Len/Stats = %d/%+v, fresh store %d/%+v", round, grown.Len(), grown.Stats(), fresh.Len(), fresh.Stats())
		}
		gv, gt := grown.Accuracy()
		fv, ft := fresh.Accuracy()
		gwv, gwt := grown.WindowAccuracy()
		fwv, fwt := fresh.WindowAccuracy()
		if gv != fv || gt != ft || gwv != fwv || gwt != fwt {
			t.Fatalf("round %d: Accuracy %d/%d window %d/%d, fresh store %d/%d window %d/%d", round, gv, gt, gwv, gwt, fv, ft, fwv, fwt)
		}
		for _, k := range keys {
			gs, gok := grown.Get(keyN(k))
			fs, fok := fresh.Get(keyN(k))
			if gok != fok || (gok && gs[0] != fs[0]) {
				t.Fatalf("round %d: Get(%d) = (%v, %v), fresh store (%v, %v)", round, k, gs, gok, fs, fok)
			}
			if gi, fi := grown.slot(keyN(k), keyN(k).Hash()), fresh.slot(keyN(k), keyN(k).Hash()); gi != fi {
				t.Fatalf("round %d: slot(%d) = %d, fresh store %d", round, k, gi, fi)
			}
		}
		for probe := 0; probe < 1000; probe++ { // the large window's keys are gone
			k := rng.Intn(large)
			if _, ok := fresh.ix.get(keyN(k)); !ok && grown.Valid(keyN(k)) {
				t.Fatalf("round %d: key %d of the large window still present", round, k)
			}
		}
		grown.Reset()
		fresh.Reset()
		if len(grown.ix.slots) != size {
			t.Fatalf("round %d: index has %d slots after reset, had %d", round, len(grown.ix.slots), size)
		}
		for i, sl := range grown.ix.slots {
			if sl.tag > grown.ix.base {
				t.Fatalf("round %d: slot %d is live after reset", round, i)
			}
		}
	}
}

// BenchmarkResetAfterLargeWindow prices a tumbling boundary's Reset on a
// store whose index one 2^18-key window grew, closing windows of a few
// thousand keys ever after: ns per key the closing window held.
func BenchmarkResetAfterLargeWindow(b *testing.B) {
	const large, small = 1<<18 + 5000, 3000
	store := New(fold.Count())
	ev := kvstore.Eviction{State: []float64{1}, P: []float64{1}}
	fill := func(n int) {
		for k := 0; k < n; k++ {
			ev.Key = keyN(k)
			store.HandleEviction(&ev)
		}
	}
	fill(large)
	store.Reset()
	var reset time.Duration
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		fill(small)
		t0 := time.Now()
		store.Reset()
		reset += time.Since(t0)
	}
	b.ReportMetric(float64(reset.Nanoseconds())/float64(b.N)/small, "reset-ns/key")
}
