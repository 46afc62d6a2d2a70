package backing

import (
	"math/rand"
	"testing"

	"perfq/internal/fold"
	"perfq/internal/kvstore"
	"perfq/internal/packet"
	"perfq/internal/trace"
)

// The zero-alloc contract of the backing tier: once a window's key space
// has been seen, the whole eviction path — cache probe, capacity
// eviction, exact merge or epoch append into the store, flush, reset —
// touches the Go allocator zero times. The index re-empties in place and
// the arenas hand back the same chunks, so only a key space larger than
// every previous window allocates.

// evictionWorkload builds a cache wired to a backing store plus a
// replayable pass: nkeys ≫ cache capacity forces constant capacity
// evictions, the flush drains the survivors, and the reset re-arms the
// store for the next window. batch wires the cache's batches straight
// into HandleBatch; otherwise every lane goes through HandleEviction.
func evictionWorkload(t *testing.T, f *fold.Func, exact, batch bool) func() {
	t.Helper()
	store := New(f)
	cfg := kvstore.Config{Geometry: kvstore.SetAssociative(64, 8), Fold: f, ExactMerge: exact}
	if batch {
		cfg.OnEvictBatch = store.HandleBatch
	} else {
		cfg.OnEvict = store.HandleEviction
	}
	cache, err := kvstore.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	const nkeys = 512
	rng := rand.New(rand.NewSource(41))
	keys := make([]packet.Key128, nkeys)
	for i := range keys {
		keys[i] = keyN(i)
	}
	recs := make([]*trace.Record, 256)
	for i := range recs {
		recs[i] = randomRec(rng)
	}
	var in fold.Input
	return func() {
		for i := 0; i < 4*nkeys; i++ {
			in.Rec = recs[i%len(recs)]
			cache.Process(keys[i%nkeys], &in)
		}
		cache.Flush()
		store.Reset()
	}
}

// TestEvictionToBackingZeroAllocs pins the steady-state allocation count
// of the eviction path at zero, for both reconciliation shapes — the
// exact merge and the non-mergeable epoch append — and both ways in: a
// lane at a time through HandleEviction, and whole batches through
// HandleBatch.
func TestEvictionToBackingZeroAllocs(t *testing.T) {
	lat := fold.Bin{Op: fold.OpSub, L: fold.FieldRef(trace.FieldTout), R: fold.FieldRef(trace.FieldTin)}
	cases := []struct {
		name  string
		f     *fold.Func
		exact bool
	}{
		{"exact-merge-ewma", fold.Ewma(lat, 0.125), true},
		{"epoch-append-last", &fold.Func{
			Prog: &fold.Program{
				Name:     "lastlat",
				NumState: 1,
				Body:     []fold.Stmt{fold.Assign{Dst: 0, RHS: lat}},
			},
		}, false},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			pass := evictionWorkload(t, tc.f, tc.exact, false)
			pass() // warm: grow index and arenas to the working-set size
			if got := testing.AllocsPerRun(10, pass); got != 0 {
				t.Fatalf("eviction→backing steady state: %v allocs/run, want 0", got)
			}
			t.Run("batch", func(t *testing.T) {
				pass := evictionWorkload(t, tc.f, tc.exact, true)
				pass()
				if got := testing.AllocsPerRun(10, pass); got != 0 {
					t.Fatalf("batch→backing steady state: %v allocs/run, want 0", got)
				}
			})
		})
	}
}
