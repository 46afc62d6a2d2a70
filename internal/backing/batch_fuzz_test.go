package backing

import (
	"math"
	"math/rand"
	"sync"
	"testing"

	"perfq/internal/compiler"
	"perfq/internal/fold"
	"perfq/internal/kvstore"
	"perfq/internal/lang"
	"perfq/internal/packet"
	"perfq/internal/queries"
	"perfq/internal/trace"
)

// The batch differential: one generated record stream runs through a
// small cache, and every eviction that leaves it is reconciled four ways
// — store A takes the cache's own batches through HandleBatch, store B
// takes their lanes one at a time through HandleEviction, store C takes a
// copy of the same evictions cut into batches of generated sizes (1, 63,
// 64 and anything between), store D takes the cache's flush batches
// through HandleFlush and the rest through HandleBatch, settled before
// every flush as the datapath does — with the same Resets and window
// boundaries between them. All four must end every segment bit-identical
// in At, Epochs, Accuracy, WindowAccuracy and Stats; D is read through
// Epochs (a keyed read, which settles it) on every other segment only, so
// that rows it holds back also meet a BeginWindow, a Get and a Reset. The
// contract is the other fuzzers': a failure is one line of arguments.

// batchFolds are the reconciliation shapes: both linear merges at state
// lengths 1 and 2, an associative fold, and non-mergeable folds at 1 and 2.
// Built once: a fuzz worker runs hundreds of cases a second.
var batchFolds = sync.OnceValue(func() []*fold.Func {
	planFold := func(name string) *fold.Func {
		chk, err := lang.Check(lang.MustParse(queries.ByName(name).Source))
		if err != nil {
			panic(err)
		}
		plan, err := compiler.Compile(chk)
		if err != nil {
			panic(err)
		}
		return plan.Programs[0].Fold
	}
	lat := fold.Bin{Op: fold.OpSub, L: fold.FieldRef(trace.FieldTout), R: fold.FieldRef(trace.FieldTin)}
	return []*fold.Func{
		fold.Ewma(lat, 0.125),                      // linear, history-free, m = 1
		fold.Avg(lat),                              // linear, history-free, m = 2
		planFold("TCP out of sequence"),            // linear, first-packet replay, m = 2
		fold.Max(fold.FieldRef(trace.FieldPktLen)), // associative, m = 1
		planFold("TCP non-monotonic"),              // no merge: epochs, m = 2
		{Prog: &fold.Program{Name: "lastlen", NumState: 1, // no merge: epochs, m = 1
			Body: []fold.Stmt{fold.Assign{Dst: 0, RHS: fold.FieldRef(trace.FieldPktLen)}}}},
	}
})

// batchGeometries: a hash table and an 8-way cache small enough that a key
// is evicted, re-inserted and evicted again inside one block, a full LRU,
// and a cache that holds 65 keys for a flush of more than one batch.
var batchGeometries = []kvstore.Geometry{
	kvstore.HashTable(4), kvstore.SetAssociative(16, 8), kvstore.FullyAssociative(6), kvstore.SetAssociative(256, 8),
}

// loggedEviction is a deep copy of one batch lane.
type loggedEviction struct {
	key   packet.Key128
	state []float64
	p     []float64
	first *trace.Record
}

// batchCoverage counts the cases the fixed seeds must reach.
type batchCoverage struct {
	sameKeyTwice  int          // a key on two lanes of one batch out of the cache
	newKeyTwice   int          // of those, keys the store had not seen
	flushOverflow int          // a flush that filled a batch and went on
	sizes         map[int]bool // lane counts HandleBatch was given
	resets        int          // Resets with evictions on both sides

	flushEmpty   int // a flush batch into an empty D
	flushMixed   int // a flush batch with lanes D holds back and lanes it merges
	reflushMerge int // a key D held back, re-flushed after only cache hits: it merges
	heldWindow   int // a BeginWindow and a Get while D holds rows back
	heldReset    int // a Reset that drops rows D holds back
}

func runEvictBatchCase(t testing.TB, seed uint64, foldIdx, geoIdx uint8, nkeys uint16, cov *batchCoverage) {
	folds := batchFolds()
	f := folds[int(foldIdx)%len(folds)]
	geo := batchGeometries[int(geoIdx)%len(batchGeometries)]
	keySpace := 1 + int(nkeys)%300
	rng := rand.New(rand.NewSource(int64(seed)))
	a, b, c, d := New(f), New(f), New(f), New(f)
	dHeld := map[packet.Key128]bool{} // keys D held back since its last capacity batch or Reset
	var log []loggedEviction
	var ev kvstore.Eviction
	flushed := 0 // lanes of the flush in progress

	cache, err := kvstore.New(kvstore.Config{
		Geometry: geo, Fold: f, ExactMerge: f.Merge == fold.MergeLinear,
		OnEvictBatch: func(eb *kvstore.EvictBatch) {
			seen := map[packet.Key128]bool{}
			for l := 0; l < eb.N; l++ {
				if k := eb.Keys[l]; seen[k] {
					cov.sameKeyTwice++
					if _, ok := a.ix.get(k); !ok {
						cov.newKeyTwice++
					}
				} else {
					seen[k] = true
				}
				le := loggedEviction{key: eb.Keys[l], state: append([]float64(nil), eb.State[l]...)}
				if eb.P[l] != nil {
					le.p = append([]float64(nil), eb.P[l]...)
				}
				if eb.First[l] != nil {
					first := *eb.First[l]
					le.first = &first
				}
				log = append(log, le)
			}
			if eb.Reason == kvstore.EvictFlush {
				if flushed += eb.N; flushed > fold.BlockSize && eb.N < fold.BlockSize {
					cov.flushOverflow++
				}
			}
			cov.sizes[eb.N] = true
			a.HandleBatch(eb)
			for l := 0; l < eb.N; l++ {
				eb.Lane(l, &ev)
				b.HandleEviction(&ev)
			}
			if eb.Reason != kvstore.EvictFlush {
				clear(dHeld)
				d.HandleBatch(eb)
				return
			}
			if d.Len() == 0 {
				cov.flushEmpty++
			}
			held := 0
			for l := 0; l < eb.N; l++ {
				k := eb.Keys[l]
				if _, ok := d.ix.get(k); !ok {
					held++
					dHeld[k] = true
				} else if dHeld[k] {
					cov.reflushMerge++
				}
			}
			if held > 0 && held < eb.N {
				cov.flushMixed++
			}
			d.HandleFlush(eb)
			if d.Len() != a.Len() || d.Stats() != a.Stats() {
				t.Fatalf("after a flush batch: HandleFlush Len/Stats %d/%+v, batched %d/%+v", d.Len(), d.Stats(), a.Len(), a.Stats())
			}
		},
	})
	if err != nil {
		t.Fatal(err)
	}

	// segmentEnd applies the logged evictions to c in batches of generated
	// sizes, then holds the four stores against each other.
	var cb kvstore.EvictBatch
	segmentEnd := func(step int) {
		for len(log) > 0 {
			n := [...]int{1, fold.BlockSize - 1, fold.BlockSize, 1 + rng.Intn(fold.BlockSize)}[rng.Intn(4)]
			n = min(n, len(log))
			for l, le := range log[:n] {
				cb.Keys[l], cb.State[l], cb.P[l], cb.First[l] = le.key, le.state, le.p, le.first
			}
			cb.N = n
			cov.sizes[n] = true
			c.HandleBatch(&cb)
			log = log[n:]
		}
		for _, o := range []struct {
			name   string
			store  *Store
			epochs bool
		}{{"lane at a time", b, true}, {"re-cut batches", c, true}, {"held-back flush", d, step%2 == 0}} {
			if a.Len() != o.store.Len() || a.Stats() != o.store.Stats() {
				t.Fatalf("step %d, %s: Len/Stats %d/%+v, batched %d/%+v", step, o.name, o.store.Len(), o.store.Stats(), a.Len(), a.Stats())
			}
			av, at := a.Accuracy()
			awv, awt := a.WindowAccuracy()
			ov, ot := o.store.Accuracy()
			owv, owt := o.store.WindowAccuracy()
			if av != ov || at != ot || awv != owv || awt != owt {
				t.Fatalf("step %d, %s: accuracy %d/%d window %d/%d, batched %d/%d window %d/%d", step, o.name, ov, ot, owv, owt, av, at, awv, awt)
			}
			for i := 0; i < a.Len(); i++ {
				ak, as, aok := a.At(i)
				ok, os, ook := o.store.At(i)
				if ak != ok || aok != ook || !sameBits(as, os) {
					t.Fatalf("step %d, %s: At(%d) = %v %v %v, batched %v %v %v", step, o.name, i, ok, os, ook, ak, as, aok)
				}
				if !o.epochs {
					continue
				}
				ae, oe := a.Epochs(ak), o.store.Epochs(ak)
				if len(ae) != len(oe) {
					t.Fatalf("step %d, %s: key %v has %d epochs, batched %d", step, o.name, ak, len(oe), len(ae))
				}
				for j := range ae {
					if !sameBits(ae[j].State, oe[j].State) {
						t.Fatalf("step %d, %s: epoch %d of key %v = %v, batched %v", step, o.name, j, ak, oe[j].State, ae[j].State)
					}
				}
			}
		}
	}

	keys, hashes := make([]packet.Key128, fold.BlockSize), make([]uint64, fold.BlockSize)
	recs := make([]trace.Record, fold.BlockSize)
	for step := 0; step < 60; step++ {
		n := fold.BlockSize
		if rng.Intn(4) == 0 {
			n = 1 + rng.Intn(fold.BlockSize)
		}
		for l := 0; l < n; l++ {
			keys[l] = keyN(rng.Intn(keySpace))
			hashes[l] = keys[l].Hash()
			recs[l] = *randomRec(rng)
		}
		cache.ProcessBlock(keys, hashes, recs[:n], ^uint64(0)>>(fold.BlockSize-uint(n)), nil)
		switch rng.Intn(12) {
		case 0:
			flushed = 0
			d.Settle()
			cache.Flush()
		case 1:
			segmentEnd(step)
		case 2: // a tumbling boundary between batches
			segmentEnd(step)
			if a.Len() > 0 {
				cov.resets++
			}
			if d.held.n > 0 {
				cov.heldReset++
			}
			a.Reset()
			b.Reset()
			c.Reset()
			d.Reset()
			clear(dHeld)
		case 3: // a carry-over boundary, and a keyed read after it
			segmentEnd(step)
			if d.held.n > 0 {
				cov.heldWindow++
			}
			a.BeginWindow()
			b.BeginWindow()
			c.BeginWindow()
			d.BeginWindow()
			if n := a.Len(); n > 0 {
				k, _, _ := a.At(n - 1)
				av, aok := a.Get(k)
				dv, dok := d.Get(k)
				if aok != dok || !sameBits(av, dv) || a.Valid(k) != d.Valid(k) {
					t.Fatalf("step %d: held-back flush: Get(%v) = %v %v, batched %v %v", step, k, dv, dok, av, aok)
				}
			}
		}
	}
	flushed = 0
	d.Settle()
	cache.Flush()
	segmentEnd(60)
}

func sameBits(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

// evictBatchSeeds are the fixed cases: every fold against every geometry,
// over a key space a little larger than the cache (so the same few keys
// keep displacing each other) and, for the large cache, one it can hold.
func evictBatchSeeds() (cases [][4]uint64) {
	for f := uint64(0); f < 6; f++ {
		for g := uint64(0); g < 4; g++ {
			nkeys := []uint64{6, 24, 9, 64 + f}[g] // keySpace = nkeys + 1
			cases = append(cases, [4]uint64{100*f + g, f, g, nkeys})
		}
	}
	return cases
}

// TestEvictBatchDifferential runs the fixed seeds and checks that between
// them they reached every case the differential exists for.
func TestEvictBatchDifferential(t *testing.T) {
	cov := batchCoverage{sizes: map[int]bool{}}
	for _, c := range evictBatchSeeds() {
		runEvictBatchCase(t, c[0], uint8(c[1]), uint8(c[2]), uint16(c[3]), &cov)
	}
	if cov.sameKeyTwice == 0 || cov.newKeyTwice == 0 || cov.flushOverflow == 0 || cov.resets == 0 ||
		!cov.sizes[1] || !cov.sizes[fold.BlockSize-1] || !cov.sizes[fold.BlockSize] ||
		cov.flushEmpty == 0 || cov.flushMixed == 0 || cov.reflushMerge == 0 || cov.heldWindow == 0 || cov.heldReset == 0 {
		t.Fatalf("fixed seeds missed a case: %+v", cov)
	}
}

func FuzzEvictBatch(f *testing.F) {
	for _, c := range evictBatchSeeds() {
		f.Add(c[0], uint8(c[1]), uint8(c[2]), uint16(c[3]))
	}
	f.Fuzz(func(t *testing.T, seed uint64, foldIdx, geoIdx uint8, nkeys uint16) {
		runEvictBatchCase(t, seed, foldIdx, geoIdx, nkeys, &batchCoverage{sizes: map[int]bool{}})
	})
}
