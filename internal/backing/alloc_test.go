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
// eviction, exact merge or epoch append into the store, flush (held back
// or merged), reset — touches the Go allocator zero times. The index
// re-empties in place and the arenas hand back the same chunks, so only a
// key space larger than every previous window allocates.

// evictionWorkload builds a cache wired to a backing store plus a
// replayable pass over 512 keys: into a cache of pairs entries — 64
// forces constant capacity evictions, so the flush merges into a populated
// store; 4096 holds every key, so it flushes into an empty one — then the
// flush drains the survivors, and the reset re-arms the store for the next
// window. way wires the cache to the store: "lane" sends every lane
// through HandleEviction, "batch" whole batches through HandleBatch,
// "flush" the flush's batches through HandleFlush and the rest through
// HandleBatch, settling before the flush as the datapath does.
func evictionWorkload(t *testing.T, f *fold.Func, exact bool, pairs int, way string) func() {
	t.Helper()
	store := New(f)
	cfg := kvstore.Config{Geometry: kvstore.SetAssociative(pairs, 8), Fold: f, ExactMerge: exact}
	switch way {
	case "lane":
		cfg.OnEvict = store.HandleEviction
	case "batch":
		cfg.OnEvictBatch = store.HandleBatch
	case "flush":
		cfg.OnEvictBatch = func(b *kvstore.EvictBatch) {
			if b.Reason == kvstore.EvictFlush {
				store.HandleFlush(b)
			} else {
				store.HandleBatch(b)
			}
		}
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
		if (store.Len() == 0) != (pairs > nkeys) {
			t.Fatalf("%d keys into %d pairs left %d keys in the store before the flush", nkeys, pairs, store.Len())
		}
		store.Settle()
		cache.Flush()
		store.Reset()
	}
}

// TestEvictionToBackingZeroAllocs pins the steady-state allocation count
// of the eviction path at zero, for both reconciliation shapes — the
// exact merge and the non-mergeable epoch append — and every way in: a
// lane at a time through HandleEviction, whole batches through
// HandleBatch, and a flush through HandleFlush into a populated store
// (lookup, then merge) and into an empty one (every lane held back).
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
			pass := evictionWorkload(t, tc.f, tc.exact, 64, "lane")
			pass() // warm: grow index and arenas to the working-set size
			if got := testing.AllocsPerRun(10, pass); got != 0 {
				t.Fatalf("eviction→backing steady state: %v allocs/run, want 0", got)
			}
			for _, sub := range []struct {
				name  string
				pairs int
				way   string
			}{{"batch", 64, "batch"}, {"flush-populated", 64, "flush"}, {"flush-empty", 4096, "flush"}} {
				t.Run(sub.name, func(t *testing.T) {
					pass := evictionWorkload(t, tc.f, tc.exact, sub.pairs, sub.way)
					pass()
					if got := testing.AllocsPerRun(10, pass); got != 0 {
						t.Fatalf("%s→backing steady state: %v allocs/run, want 0", sub.name, got)
					}
				})
			}
		})
	}
}
