package backing

import (
	"math"
	"math/rand"
	"testing"

	"perfq/internal/fold"
	"perfq/internal/kvstore"
	"perfq/internal/packet"
	"perfq/internal/trace"
)

func keyN(n int) packet.Key128 {
	return packet.FiveTuple{
		Src:     packet.Addr4FromUint32(uint32(n)),
		Dst:     packet.Addr4{10, 0, 0, 1},
		SrcPort: uint16(n), DstPort: 443, Proto: packet.ProtoTCP,
	}.Pack()
}

func randomRec(rng *rand.Rand) *trace.Record {
	tin := rng.Int63n(1 << 30)
	return &trace.Record{
		PktLen: uint32(64 + rng.Intn(1400)), PayloadLen: uint32(rng.Intn(1400)),
		TCPSeq: rng.Uint32() >> 8,
		Tin:    tin, Tout: tin + rng.Int63n(1<<16) + 1,
	}
}

// driveThroughCache replays per-key record streams through a small cache
// attached to a Store, then flushes, and returns the store.
func driveThroughCache(t *testing.T, f *fold.Func, exact bool, geom kvstore.Geometry, streams map[int][]*trace.Record) *Store {
	t.Helper()
	store := New(f)
	cache, err := kvstore.New(kvstore.Config{
		Geometry:   geom,
		Fold:       f,
		ExactMerge: exact,
		OnEvict:    store.HandleEviction,
	})
	if err != nil {
		t.Fatal(err)
	}
	// Interleave streams round-robin to force cache churn.
	idx := make(map[int]int)
	for {
		progressed := false
		for k, recs := range streams {
			i := idx[k]
			if i < len(recs) {
				cache.Process(keyN(k), &fold.Input{Rec: recs[i]})
				idx[k] = i + 1
				progressed = true
			}
		}
		if !progressed {
			break
		}
	}
	cache.Flush()
	return store
}

// TestLinearEndToEndMatchesGroundTruth is the split design's headline
// property: a tiny cache (heavy evictions) plus merging backing store must
// reproduce, for every linear fold, exactly what an infinite table would
// hold.
func TestLinearEndToEndMatchesGroundTruth(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	lat := fold.Bin{Op: fold.OpSub, L: fold.FieldRef(trace.FieldTout), R: fold.FieldRef(trace.FieldTin)}
	makeFuncs := func() []*fold.Func {
		return []*fold.Func{fold.Count(), fold.Sum(lat), fold.Avg(lat), fold.Ewma(lat, 0.125)}
	}

	streams := map[int][]*trace.Record{}
	for k := 0; k < 40; k++ {
		n := 1 + rng.Intn(60)
		recs := make([]*trace.Record, n)
		for i := range recs {
			recs[i] = randomRec(rng)
		}
		streams[k] = recs
	}

	for _, f := range makeFuncs() {
		// A 16-pair cache over 40 keys churns hard.
		for _, geom := range []kvstore.Geometry{
			kvstore.HashTable(16),
			kvstore.SetAssociative(16, 4),
			kvstore.FullyAssociative(16),
		} {
			store := driveThroughCache(t, f, true, geom, streams)

			for k, recs := range streams {
				want := make([]float64, f.StateLen())
				f.Init(want)
				for _, r := range recs {
					f.Update(want, &fold.Input{Rec: r})
				}
				got, ok := store.Get(keyN(k))
				if !ok {
					t.Fatalf("%s/%v: key %d missing", f.Name(), geom, k)
				}
				for i := range want {
					tol := 1e-9 * math.Max(1, math.Abs(want[i]))
					if math.Abs(got[i]-want[i]) > tol {
						t.Fatalf("%s/%v key %d: got %v want %v", f.Name(), geom, k, got, want)
					}
				}
			}
			if v, total := store.Accuracy(); v != total {
				t.Errorf("%s/%v: mergeable fold reported %d/%d valid", f.Name(), geom, v, total)
			}
		}
	}
}

// TestAssocEndToEnd checks the MAX fold through the same machinery.
func TestAssocEndToEnd(t *testing.T) {
	rng := rand.New(rand.NewSource(32))
	f := fold.Max(fold.FieldRef(trace.FieldPktLen))
	streams := map[int][]*trace.Record{}
	for k := 0; k < 30; k++ {
		n := 1 + rng.Intn(40)
		recs := make([]*trace.Record, n)
		for i := range recs {
			recs[i] = randomRec(rng)
		}
		streams[k] = recs
	}
	store := driveThroughCache(t, f, false, kvstore.SetAssociative(8, 2), streams)
	for k, recs := range streams {
		want := math.Inf(-1)
		for _, r := range recs {
			if v := float64(r.PktLen); v > want {
				want = v
			}
		}
		got, ok := store.Get(keyN(k))
		if !ok || got[0] != want {
			t.Errorf("key %d: got %v,%v want %v", k, got, ok, want)
		}
	}
}

// TestEpochSemantics checks the non-mergeable path: single-epoch keys are
// valid, multi-epoch keys invalid, and Accuracy reports the fraction.
func TestEpochSemantics(t *testing.T) {
	// A one-state fold with no declared merge: last-value.
	last := &fold.Func{
		Prog: &fold.Program{
			Name:     "lastlen",
			NumState: 1,
			Body:     []fold.Stmt{fold.Assign{Dst: 0, RHS: fold.FieldRef(trace.FieldPktLen)}},
		},
	}
	store := New(last)

	ev := func(k int, v float64) {
		store.HandleEviction(&kvstore.Eviction{
			Key:    keyN(k),
			State:  []float64{v},
			Reason: kvstore.EvictCapacity,
		})
	}
	ev(1, 100) // key 1: one epoch → valid
	ev(2, 200) // key 2: two epochs → invalid
	ev(2, 201)
	ev(3, 300) // key 3: three epochs → invalid
	ev(3, 301)
	ev(3, 302)

	if !store.Valid(keyN(1)) {
		t.Error("single-epoch key reported invalid")
	}
	if store.Valid(keyN(2)) || store.Valid(keyN(3)) {
		t.Error("multi-epoch key reported valid")
	}
	if store.Valid(keyN(99)) {
		t.Error("absent key reported valid")
	}
	if v, total := store.Accuracy(); v != 1 || total != 3 {
		t.Errorf("Accuracy = %d/%d, want 1/3", v, total)
	}
	if got := store.Epochs(keyN(3)); len(got) != 3 || got[2].State[0] != 302 {
		t.Errorf("Epochs(3) = %v", got)
	}
	if _, ok := store.Get(keyN(2)); ok {
		t.Error("Get returned a value for an invalid key")
	}
	if v, ok := store.Get(keyN(1)); !ok || v[0] != 100 {
		t.Errorf("Get(1) = %v,%v", v, ok)
	}
}

// TestLinearWithoutExactMergeFallsBack: evictions lacking P/FirstRec from
// a cache run without ExactMerge must degrade to epoch semantics, not
// corrupt values.
func TestLinearWithoutExactMergeFallsBack(t *testing.T) {
	f := fold.Count()
	store := New(f)
	store.HandleEviction(&kvstore.Eviction{Key: keyN(1), State: []float64{5}})
	store.HandleEviction(&kvstore.Eviction{Key: keyN(1), State: []float64{3}})
	if store.Valid(keyN(1)) {
		t.Error("two unmergeable epochs reported valid")
	}
	if st := store.Stats(); st.Appends != 2 || st.Merges != 0 {
		t.Errorf("stats %+v", st)
	}
}

// compiledCount is COUNT lowered to bytecode, for tests that hand the
// store first-packet evictions without a cache (whose constructor would
// have compiled the fold) in front of it.
func compiledCount(t *testing.T) *fold.Func {
	t.Helper()
	f := fold.Count()
	if err := f.EnsureCompiled(); err != nil {
		t.Fatal(err)
	}
	return f
}

// TestEntriesByIndex: At walks the entries in insertion order — what a
// window close gathers — and Reset leaves none. Keys a flush held back
// read in flush order after the entries, as HandleBatch's entries would,
// across arena chunks and runs of lanes that straddle them, before and
// after they settle.
func TestEntriesByIndex(t *testing.T) {
	store := New(compiledCount(t))
	r := randomRec(rand.New(rand.NewSource(33)))
	const n = 2<<chunkShift + 100
	states, one := make([]float64, n), []float64{1}
	// seen: key 0 is an entry before the flush, so every batch probes and
	// holds lanes back one at a time; otherwise the index stays empty and
	// lanes are held back in runs.
	for _, seen := range []bool{false, true} {
		held, entries := New(store.f), New(store.f)
		if seen {
			ev := kvstore.Eviction{Key: keyN(0), State: []float64{0}, P: one, FirstRec: r}
			held.HandleEviction(&ev)
			entries.HandleEviction(&ev)
		}
		var b kvstore.EvictBatch
		b.Reason = kvstore.EvictFlush
		for k := 0; k < n; k += b.N {
			b.N = min(fold.BlockSize-1, n-k)
			for l := 0; l < b.N; l++ {
				states[k+l] = float64(k + l)
				b.Keys[l], b.State[l], b.P[l], b.First[l] = keyN(k+l), states[k+l:k+l+1], one, r
			}
			entries.HandleBatch(&b)
			held.HandleFlush(&b)
		}
		for _, settle := range []bool{false, true} {
			if settle {
				held.Settle()
			}
			if held.Len() != entries.Len() || held.Stats() != entries.Stats() {
				t.Fatalf("seen %v, settled %v: Len/Stats %d/%+v, want %d/%+v", seen, settle, held.Len(), held.Stats(), entries.Len(), entries.Stats())
			}
			for i := 0; i < entries.Len(); i++ {
				hk, hs, hv := held.At(i)
				ek, es, ev := entries.At(i)
				if hk != ek || hv != ev || !sameBits(hs, es) {
					t.Fatalf("seen %v, settled %v: At(%d) = %v %v %v, want %v %v %v", seen, settle, i, hk, hs, hv, ek, es, ev)
				}
			}
		}
	}
	for k := 0; k < 10; k++ {
		store.HandleEviction(&kvstore.Eviction{
			Key: keyN(k), State: []float64{float64(k)},
			P: []float64{1}, FirstRec: r,
		})
	}
	if store.Len() != 10 {
		t.Fatalf("Len = %d, want 10", store.Len())
	}
	for i := 0; i < store.Len(); i++ {
		key, state, valid := store.At(i)
		want, _ := store.Get(keyN(i))
		if key != keyN(i) || !valid || len(state) != 1 || state[0] != want[0] {
			t.Errorf("At(%d) = (%v, %v, %v), want key %v, state %v", i, key, state, valid, keyN(i), want)
		}
	}
	store.Reset()
	if store.Len() != 0 {
		t.Error("Reset did not clear")
	}
}

// TestWindowAccuracy covers the window-scoped accounting of the epoch
// runtime's carry-over mode: WindowAccuracy counts only keys touched
// since the last BeginWindow, and a key re-evicted across a boundary
// turns window-invalid the moment its epoch count passes one.
func TestWindowAccuracy(t *testing.T) {
	last := &fold.Func{
		Prog: &fold.Program{
			Name:     "lastlen",
			NumState: 1,
			Body:     []fold.Stmt{fold.Assign{Dst: 0, RHS: fold.FieldRef(trace.FieldPktLen)}},
		},
	}
	store := New(last)
	ev := func(k int, v float64) {
		store.HandleEviction(&kvstore.Eviction{Key: keyN(k), State: []float64{v}})
	}

	// Window 0: keys 1 and 2, one epoch each — both window-valid.
	ev(1, 100)
	ev(2, 200)
	if v, tot := store.WindowAccuracy(); v != 2 || tot != 2 {
		t.Fatalf("window 0 accuracy = %d/%d, want 2/2", v, tot)
	}

	// Window 1: key 1 survives the boundary (second epoch → invalid),
	// key 3 is fresh (valid), key 2 untouched (not counted).
	store.BeginWindow()
	ev(1, 101)
	ev(3, 300)
	if v, tot := store.WindowAccuracy(); v != 1 || tot != 2 {
		t.Fatalf("window 1 accuracy = %d/%d, want 1/2", v, tot)
	}
	// Whole-run accuracy counts key 1 invalid among all three keys.
	if v, tot := store.Accuracy(); v != 2 || tot != 3 {
		t.Fatalf("run accuracy = %d/%d, want 2/3", v, tot)
	}

	// Window 2: key 1 again (already invalid: still counts invalid once),
	// twice within the window (no double count).
	store.BeginWindow()
	ev(1, 102)
	ev(1, 103)
	if v, tot := store.WindowAccuracy(); v != 0 || tot != 1 {
		t.Fatalf("window 2 accuracy = %d/%d, want 0/1", v, tot)
	}

	// A key going multi-epoch within one window is that window's invalid.
	store.BeginWindow()
	ev(4, 400)
	ev(4, 401)
	if v, tot := store.WindowAccuracy(); v != 0 || tot != 1 {
		t.Fatalf("window 3 accuracy = %d/%d, want 0/1", v, tot)
	}

	// Reset drops the key space and the window counters with it.
	store.Reset()
	if v, tot := store.WindowAccuracy(); v != 0 || tot != 0 {
		t.Fatalf("post-reset window accuracy = %d/%d, want 0/0", v, tot)
	}
	ev(5, 500)
	if v, tot := store.WindowAccuracy(); v != 1 || tot != 1 {
		t.Fatalf("post-reset touch = %d/%d, want 1/1", v, tot)
	}
}

// TestWindowAccuracyMergeable: exact-merge and associative
// reconciliations keep every touched key window-valid no matter how many
// boundaries it crosses.
func TestWindowAccuracyMergeable(t *testing.T) {
	f := fold.Max(fold.FieldRef(trace.FieldQin))
	store := New(f)
	for w := 0; w < 3; w++ {
		if w > 0 {
			store.BeginWindow()
		}
		store.HandleEviction(&kvstore.Eviction{Key: keyN(1), State: []float64{float64(w)}})
		if v, tot := store.WindowAccuracy(); v != 1 || tot != 1 {
			t.Fatalf("window %d accuracy = %d/%d, want 1/1", w, v, tot)
		}
	}
	if v, tot := store.Accuracy(); v != 1 || tot != 1 {
		t.Fatalf("run accuracy = %d/%d, want 1/1", v, tot)
	}
}
