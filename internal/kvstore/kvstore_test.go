package kvstore

import (
	"encoding/binary"
	"fmt"
	"math/rand"
	"testing"

	"perfq/internal/compiler"
	"perfq/internal/fold"
	"perfq/internal/lang"
	"perfq/internal/obs"
	"perfq/internal/packet"
	"perfq/internal/queries"
	"perfq/internal/trace"
)

func keyN(n int) packet.Key128 {
	return packet.FiveTuple{
		Src:     packet.Addr4FromUint32(uint32(n)),
		Dst:     packet.Addr4{10, 0, 0, 1},
		SrcPort: uint16(n), DstPort: 80, Proto: packet.ProtoTCP,
	}.Pack()
}

func inputN(n int) *fold.Input {
	return &fold.Input{Rec: &trace.Record{PktLen: uint32(n), Tin: int64(n), Tout: int64(n) + 10}}
}

func mustNew(t *testing.T, cfg Config) Cache {
	t.Helper()
	c, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func geometries(pairs int) []Geometry {
	return []Geometry{
		HashTable(pairs),
		SetAssociative(pairs, 8),
		FullyAssociative(pairs),
	}
}

func TestGeometryHelpers(t *testing.T) {
	g := SetAssociative(1024, 8)
	if g.Buckets != 128 || g.Ways != 8 || g.Pairs() != 1024 {
		t.Errorf("SetAssociative: %+v", g)
	}
	if HashTable(64).Ways != 1 {
		t.Error("HashTable ways != 1")
	}
	if FullyAssociative(64).Buckets != 1 {
		t.Error("FullyAssociative buckets != 1")
	}
	if g.Bits() != 1024*128 {
		t.Errorf("Bits = %d", g.Bits())
	}
	for _, g := range geometries(64) {
		if g.String() == "" {
			t.Error("empty geometry label")
		}
	}
}

func TestNewRejectsBadConfig(t *testing.T) {
	if _, err := New(Config{Geometry: HashTable(8)}); err == nil {
		t.Error("nil fold accepted")
	}
	if _, err := New(Config{Geometry: Geometry{0, 0}, Fold: fold.Count()}); err == nil {
		t.Error("zero geometry accepted")
	}
	if _, err := New(Config{Geometry: Geometry{Buckets: 2, Ways: 1000}, Fold: fold.Count()}); err == nil {
		t.Error("1000-way set-associative accepted")
	}
	nonLinear := fold.Max(fold.FieldRef(trace.FieldPktLen))
	if _, err := New(Config{Geometry: HashTable(8), Fold: nonLinear, ExactMerge: true}); err == nil {
		t.Error("ExactMerge with non-linear fold accepted")
	}
	if _, err := New(Config{Geometry: HashTable(8), Fold: fold.Count(),
		OnEvict: func(*Eviction) {}, OnEvictBatch: func(*EvictBatch) {}}); err == nil {
		t.Error("two eviction handlers accepted")
	}
}

func TestHitUpdatesInPlace(t *testing.T) {
	for _, g := range geometries(16) {
		c := mustNew(t, Config{Geometry: g, Fold: fold.Count()})
		k := keyN(1)
		for i := 0; i < 5; i++ {
			c.Process(k, inputN(i))
		}
		if c.Len() != 1 {
			t.Errorf("%v: Len = %d, want 1", g, c.Len())
		}
		st := c.Stats()
		if st.Hits != 4 || st.Inserts != 1 || st.Evictions != 0 {
			t.Errorf("%v: stats %+v", g, st)
		}
	}
}

func TestFlushDeliversAllEntriesWithState(t *testing.T) {
	for _, g := range geometries(64) {
		fullAssoc := g.Buckets == 1
		got := map[packet.Key128]float64{}
		c := mustNew(t, Config{
			Geometry: g, Fold: fold.Count(),
			OnEvict: func(ev *Eviction) {
				// The hash-table and 8-way geometries may see collision
				// evictions during the fill; the fully associative cache
				// (capacity 64 ≥ 20 keys) must see flushes only.
				if fullAssoc && ev.Reason != EvictFlush {
					t.Fatalf("%v: unexpected reason %v", g, ev.Reason)
				}
				got[ev.Key] += ev.State[0]
			},
		})
		for i := 0; i < 20; i++ {
			for j := 0; j <= i; j++ {
				c.Process(keyN(i), inputN(j))
			}
		}
		c.Flush()
		if len(got) != 20 {
			t.Fatalf("%v: flushed %d entries, want 20", g, len(got))
		}
		for i := 0; i < 20; i++ {
			if got[keyN(i)] != float64(i+1) {
				t.Errorf("%v: key %d count = %v, want %d", g, i, got[keyN(i)], i+1)
			}
		}
		if c.Len() != 0 {
			t.Errorf("%v: Len after flush = %d", g, c.Len())
		}
		// Cache must be reusable after a flush.
		c.Process(keyN(99), inputN(0))
		if c.Len() != 1 {
			t.Errorf("%v: insert after flush failed", g)
		}
	}
}

func TestHashTableEvictsOnCollision(t *testing.T) {
	// With 4 buckets and 1 way, inserting enough distinct keys must evict.
	var evicted []packet.Key128
	c := mustNew(t, Config{
		Geometry: Geometry{Buckets: 4, Ways: 1}, Fold: fold.Count(),
		OnEvict: func(ev *Eviction) {
			if ev.Reason == EvictCapacity {
				evicted = append(evicted, ev.Key)
			}
		},
	})
	for i := 0; i < 64; i++ {
		c.Process(keyN(i), inputN(i))
	}
	if len(evicted) != 64-c.Len() {
		t.Errorf("evictions %d + resident %d != inserts 64", len(evicted), c.Len())
	}
	if c.Stats().Evictions == 0 {
		t.Error("no collisions in 64 inserts over 4 buckets")
	}
}

func TestFullLRUEvictsLeastRecentlyUsed(t *testing.T) {
	var evicted []packet.Key128
	c := mustNew(t, Config{
		Geometry: FullyAssociative(3), Fold: fold.Count(),
		OnEvict: func(ev *Eviction) { evicted = append(evicted, ev.Key) },
	})
	c.Process(keyN(1), inputN(0))
	c.Process(keyN(2), inputN(0))
	c.Process(keyN(3), inputN(0))
	c.Process(keyN(1), inputN(0)) // touch 1: LRU is now 2
	c.Process(keyN(4), inputN(0)) // evicts 2
	if len(evicted) != 1 || evicted[0] != keyN(2) {
		t.Fatalf("evicted %v, want key 2", evicted)
	}
	c.Process(keyN(3), inputN(0)) // touch 3: LRU is now 1
	c.Process(keyN(5), inputN(0)) // evicts 1
	if len(evicted) != 2 || evicted[1] != keyN(1) {
		t.Fatalf("second eviction %v, want key 1", evicted)
	}
}

// lruModel is a reference LRU used to cross-check the set-associative
// implementation bucket by bucket.
type lruModel struct {
	ways int
	recs map[int][]packet.Key128 // bucket -> keys in MRU..LRU order
}

func (m *lruModel) access(bucket int, key packet.Key128) (evicted *packet.Key128) {
	lst := m.recs[bucket]
	for i, k := range lst {
		if k == key {
			copy(lst[1:i+1], lst[0:i])
			lst[0] = key
			return nil
		}
	}
	if len(lst) == m.ways {
		ev := lst[len(lst)-1]
		lst = lst[:len(lst)-1]
		defer func() {}()
		lst = append([]packet.Key128{key}, lst...)
		m.recs[bucket] = lst
		return &ev
	}
	m.recs[bucket] = append([]packet.Key128{key}, lst...)
	return nil
}

// TestSetAssocMatchesReferenceLRU drives random accesses and verifies both
// the eviction sequence and the final contents against the model.
func TestSetAssocMatchesReferenceLRU(t *testing.T) {
	const pairs, ways = 64, 4
	rng := rand.New(rand.NewSource(21))
	var gotEvicts []packet.Key128
	c := mustNew(t, Config{
		Geometry: SetAssociative(pairs, ways), Fold: fold.Count(),
		OnEvict: func(ev *Eviction) {
			if ev.Reason == EvictCapacity {
				gotEvicts = append(gotEvicts, ev.Key)
			}
		},
	})
	model := &lruModel{ways: ways, recs: map[int][]packet.Key128{}}
	var wantEvicts []packet.Key128
	buckets := pairs / ways

	for i := 0; i < 20000; i++ {
		k := keyN(rng.Intn(300))
		bucket := int(k.Hash() % uint64(buckets))
		if ev := model.access(bucket, k); ev != nil {
			wantEvicts = append(wantEvicts, *ev)
		}
		c.Process(k, inputN(i))
	}
	if len(gotEvicts) != len(wantEvicts) {
		t.Fatalf("eviction count: got %d, want %d", len(gotEvicts), len(wantEvicts))
	}
	for i := range gotEvicts {
		if gotEvicts[i] != wantEvicts[i] {
			t.Fatalf("eviction %d: got %v, want %v", i, gotEvicts[i], wantEvicts[i])
		}
	}
}

// TestFullLRUMatchesReferenceLRU does the same for the map-backed LRU.
func TestFullLRUMatchesReferenceLRU(t *testing.T) {
	const pairs = 32
	rng := rand.New(rand.NewSource(22))
	var gotEvicts []packet.Key128
	c := mustNew(t, Config{
		Geometry: FullyAssociative(pairs), Fold: fold.Count(),
		OnEvict: func(ev *Eviction) {
			if ev.Reason == EvictCapacity {
				gotEvicts = append(gotEvicts, ev.Key)
			}
		},
	})
	model := &lruModel{ways: pairs, recs: map[int][]packet.Key128{}}
	var wantEvicts []packet.Key128
	for i := 0; i < 20000; i++ {
		k := keyN(rng.Intn(100))
		if ev := model.access(0, k); ev != nil {
			wantEvicts = append(wantEvicts, *ev)
		}
		c.Process(k, inputN(i))
	}
	if len(gotEvicts) != len(wantEvicts) {
		t.Fatalf("eviction count: got %d, want %d", len(gotEvicts), len(wantEvicts))
	}
	for i := range gotEvicts {
		if gotEvicts[i] != wantEvicts[i] {
			t.Fatalf("eviction %d: got %v, want %v", i, gotEvicts[i], wantEvicts[i])
		}
	}
}

// TestCountConservation: across any access pattern, for every key the
// counts delivered via evictions plus the counts still resident must equal
// the number of accesses to that key. Checked for all geometries.
func TestCountConservation(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	accesses := make(map[packet.Key128]float64)
	keys := make([]packet.Key128, 500)
	for i := range keys {
		keys[i] = keyN(i)
	}

	for _, g := range geometries(128) {
		for k := range accesses {
			delete(accesses, k)
		}
		delivered := make(map[packet.Key128]float64)
		c := mustNew(t, Config{
			Geometry: g, Fold: fold.Count(),
			OnEvict: func(ev *Eviction) { delivered[ev.Key] += ev.State[0] },
		})
		for i := 0; i < 50000; i++ {
			// Zipf-ish skew: favor low indices.
			idx := int(rng.ExpFloat64() * 50)
			if idx >= len(keys) {
				idx = len(keys) - 1
			}
			k := keys[idx]
			accesses[k]++
			c.Process(k, inputN(i))
		}
		c.Flush()
		for k, want := range accesses {
			if delivered[k] != want {
				t.Errorf("%v: key count %v != accesses %v", g, delivered[k], want)
			}
		}
		st := c.Stats()
		if st.Accesses != 50000 {
			t.Errorf("%v: accesses = %d", g, st.Accesses)
		}
		if st.Hits+st.Inserts != st.Accesses {
			t.Errorf("%v: hits %d + inserts %d != accesses %d", g, st.Hits, st.Inserts, st.Accesses)
		}
	}
}

func TestEvictionRateOrdering(t *testing.T) {
	// Under a skewed reference stream, eviction rates must order
	// full ≤ 8-way ≤ hash-table (Figure 5's qualitative result).
	rng := rand.New(rand.NewSource(24))
	refs := make([]packet.Key128, 200000)
	for i := range refs {
		idx := int(rng.ExpFloat64() * 300)
		refs[i] = keyN(idx)
	}
	rates := map[string]float64{}
	for _, g := range geometries(256) {
		c := mustNew(t, Config{Geometry: g, Fold: fold.Count()})
		for i := range refs {
			c.Process(refs[i], inputN(i))
		}
		st := c.Stats()
		rates[g.String()] = float64(st.Evictions) / float64(st.Accesses)
	}
	full := rates[FullyAssociative(256).String()]
	way8 := rates[SetAssociative(256, 8).String()]
	hash := rates[HashTable(256).String()]
	if !(full <= way8+1e-9 && way8 <= hash+1e-9) {
		t.Errorf("eviction rates not ordered: full=%.4f 8way=%.4f hash=%.4f", full, way8, hash)
	}
	if full == 0 || hash == 0 {
		t.Error("degenerate test: no evictions at all")
	}
}

func TestDeterministicAcrossRuns(t *testing.T) {
	run := func() (uint64, string) {
		c := mustNew(t, Config{Geometry: SetAssociative(64, 8), Fold: fold.Count()})
		sig := ""
		rng := rand.New(rand.NewSource(25))
		for i := 0; i < 5000; i++ {
			c.Process(keyN(rng.Intn(200)), inputN(i))
		}
		sig = fmt.Sprintf("%+v", c.Stats())
		return c.Stats().Evictions, sig
	}
	e1, s1 := run()
	e2, s2 := run()
	if e1 != e2 || s1 != s2 {
		t.Errorf("non-deterministic cache: %s vs %s", s1, s2)
	}
}

// planFold compiles a query and returns its first store's (fused) fold.
func planFold(t *testing.T, src string) *fold.Func {
	t.Helper()
	chk, err := lang.Check(lang.MustParse(src))
	if err != nil {
		t.Fatal(err)
	}
	plan, err := compiler.Compile(chk)
	if err != nil {
		t.Fatal(err)
	}
	return plan.Programs[0].Fold
}

// coupledFold is a hand-built linear fold whose A is not diagonal:
// a' = a + b, b' = b + pkt_len.
func coupledFold() *fold.Func {
	pktLen := fold.FieldRef(trace.FieldPktLen)
	return &fold.Func{
		Prog: &fold.Program{Name: "coupled", NumState: 2, StateNames: []string{"a", "b"}, Body: []fold.Stmt{
			fold.Assign{Dst: 0, RHS: fold.Bin{Op: fold.OpAdd, L: fold.StateRef(0), R: fold.StateRef(1)}},
			fold.Assign{Dst: 1, RHS: fold.Bin{Op: fold.OpAdd, L: fold.StateRef(1), R: pktLen}},
		}},
		Merge: fold.MergeLinear,
		Linear: &fold.LinearSpec{
			A: [][]fold.Expr{{fold.Const(1), fold.Const(1)}, {nil, fold.Const(1)}},
			B: []fold.Expr{nil, pktLen},
		},
	}
}

// coefColumns evaluates ls's coefficient columns for a block of records
// the way the datapath's stateless stage does.
func coefColumns(ls *fold.LinearSpec, cols []float64, recs []trace.Record, blk *fold.InputBlock, regs *fold.BlockRegs) {
	for _, f := range fold.FieldIDs(ls.FieldMask()) {
		lane := blk.Lane(f)
		for l := range recs {
			lane[l] = float64(recs[l].Field(f))
		}
	}
	ls.EvalCoefBlock(blk, len(recs), regs, cols)
}

// TestProcessBlockMatchesProcess: a block probed through ProcessBlock —
// keys and the caller's hash column under a full, sparse or single-lane
// mask, with the fold's coefficient columns or with none — leaves every
// layout (word-packed 8-way, byte-array 16-way, full LRU) exactly where
// Process leaves it lane by lane: same inserted lanes, same event
// counters, and the same evictions in the same order with bit-identical
// state, m×m product and first record. The folds cover every row shape:
// no exact merge, m = 1, m = 2 and a fused guarded m = 4 store on the
// diagonal-P row, and a history fold and coupled state on the m×m row.
func TestProcessBlockMatchesProcess(t *testing.T) {
	lat := fold.Bin{Op: fold.OpSub, L: fold.FieldRef(trace.FieldTout), R: fold.FieldRef(trace.FieldTin)}
	folds := []struct {
		name         string
		f            *fold.Func
		exact, block bool
		slot         int // words per entry
	}{
		{"count, no merge", fold.Count(), false, false, 3},
		{"ewma", fold.Ewma(lat, 0.125), true, true, 4},
		{"count+sum", planFold(t, "SELECT COUNT, SUM(pkt_len) GROUPBY 5tuple\n"), true, true, 6},
		{"loss by queue", planFold(t, queries.LossByQueue), true, true, 10},
		{"out of sequence", planFold(t, queries.ByName("TCP out of sequence").Source), true, false, 8},
		{"coupled", coupledFold(), true, false, 8},
	}
	type evicted struct {
		key    packet.Key128
		row    string // State and P, as bits
		first  trace.Record
		reason EvictReason
	}
	for _, tc := range folds {
		for _, g := range []Geometry{SetAssociative(64, 8), SetAssociative(64, 16), FullyAssociative(48)} {
			var evs [3][]evicted
			var caches [3]Cache // Process; ProcessBlock with columns; ProcessBlock without
			for i := range caches {
				log := &evs[i]
				caches[i] = mustNew(t, Config{Geometry: g, Fold: tc.f, ExactMerge: tc.exact, OnEvictBatch: func(b *EvictBatch) {
					for l := 0; l < b.N; l++ {
						ev := evicted{key: b.Keys[l], reason: b.Reason, row: fmt.Sprintf("%x %x", b.State[l], b.P[l])}
						if m := tc.f.StateLen(); tc.exact && len(b.P[l]) != m*m {
							t.Fatalf("%s %v: eviction carries a %d-word product, want %d", tc.name, g, len(b.P[l]), m*m)
						}
						if b.First[l] != nil {
							ev.first = *b.First[l]
						}
						*log = append(*log, ev)
					}
				}})
			}
			if got := SlotWords(tc.f, tc.exact); got != tc.slot {
				t.Errorf("%s: slot is %d words, want %d", tc.name, got, tc.slot)
			}
			var cols []float64
			if ok, _ := tc.f.Linear.BlockEvaluable(); tc.exact && ok != tc.block {
				t.Fatalf("%s: block-evaluable = %v, want %v", tc.name, ok, tc.block)
			} else if tc.block {
				cols = tc.f.Linear.NewCoefBlock()
			}
			var blk fold.InputBlock
			var regs fold.BlockRegs
			rng := rand.New(rand.NewSource(19))
			keys, hashes := make([]packet.Key128, fold.BlockSize), make([]uint64, fold.BlockSize)
			recs := make([]trace.Record, fold.BlockSize)
			for b := 0; b < 200; b++ {
				n := 1 + rng.Intn(fold.BlockSize)
				mask := ^uint64(0) >> (fold.BlockSize - uint(n))
				switch b % 3 {
				case 1:
					mask &= rng.Uint64()
				case 2:
					mask = 1 << uint(rng.Intn(n))
				}
				var want uint64
				for l := 0; l < n; l++ {
					keys[l] = keyN(rng.Intn(200))
					hashes[l] = keys[l].Hash()
					recs[l] = trace.Record{PktLen: uint32(rng.Intn(1500)), TCPSeq: uint32(rng.Intn(50)), PayloadLen: uint32(rng.Intn(3)),
						Tin: int64(b), Tout: int64(b + rng.Intn(100))}
					if rng.Intn(4) == 0 {
						recs[l].Tout = trace.Infinity
					}
					if mask&(1<<uint(l)) != 0 && caches[0].Process(keys[l], &fold.Input{Rec: &recs[l]}) {
						want |= 1 << uint(l)
					}
				}
				if cols != nil {
					coefColumns(tc.f.Linear, cols, recs[:n], &blk, &regs)
				}
				if got := caches[1].ProcessBlock(keys, hashes, recs[:n], mask, cols); got != want {
					t.Fatalf("%s %v block %d: inserted lanes %064b, want %064b", tc.name, g, b, got, want)
				}
				if got := caches[2].ProcessBlock(keys, hashes, recs[:n], mask, nil); got != want {
					t.Fatalf("%s %v block %d without columns: inserted lanes %064b, want %064b", tc.name, g, b, got, want)
				}
			}
			for i, c := range caches {
				c.Flush()
				if c.Stats() != caches[0].Stats() || fmt.Sprint(evs[i]) != fmt.Sprint(evs[0]) {
					t.Fatalf("%s %v: ProcessBlock (cache %d) %+v with %d evictions, Process %+v with %d",
						tc.name, g, i, c.Stats(), len(evs[i]), caches[0].Stats(), len(evs[0]))
				}
			}
			if caches[0].Stats().Evictions == 0 {
				t.Fatalf("%s %v: no capacity evictions", tc.name, g)
			}
		}
	}
}

// TestProcessBlockZeroAllocs: a warm block over coefficient columns — the
// datapath's steady state — never touches the allocator, whichever the
// layout.
func TestProcessBlockZeroAllocs(t *testing.T) {
	f := planFold(t, queries.LossByQueue)
	keys, hashes := make([]packet.Key128, fold.BlockSize), make([]uint64, fold.BlockSize)
	recs := make([]trace.Record, fold.BlockSize)
	for l := range recs {
		keys[l] = keyN(l % 20)
		hashes[l] = keys[l].Hash()
		recs[l] = trace.Record{Tout: int64(l)}
	}
	cols := f.Linear.NewCoefBlock()
	coefColumns(f.Linear, cols, recs, new(fold.InputBlock), new(fold.BlockRegs))
	for _, g := range geometries(64) {
		c := mustNew(t, Config{Geometry: g, Fold: f, ExactMerge: true, OnEvictBatch: func(*EvictBatch) {}})
		if a := testing.AllocsPerRun(100, func() { c.ProcessBlock(keys, hashes, recs, ^uint64(0), cols) }); a != 0 {
			t.Errorf("%v: ProcessBlock with columns allocates %v per block", g, a)
		}
	}
}

func BenchmarkProcessHit8Way(b *testing.B) {
	c, _ := New(Config{Geometry: SetAssociative(1<<16, 8), Fold: fold.Count()})
	k := keyN(7)
	in := inputN(1)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		c.Process(k, in)
	}
}

func BenchmarkProcessChurn8Way(b *testing.B) {
	c, _ := New(Config{Geometry: SetAssociative(1<<12, 8), Fold: fold.Count()})
	keys := make([]packet.Key128, 1<<14) // 4x capacity: heavy eviction churn
	for i := range keys {
		keys[i] = keyN(i)
	}
	in := inputN(1)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		c.Process(keys[i&(1<<14-1)], in)
	}
}

func BenchmarkProcessChurnFullLRU(b *testing.B) {
	c, _ := New(Config{Geometry: FullyAssociative(1 << 12), Fold: fold.Count()})
	keys := make([]packet.Key128, 1<<14)
	for i := range keys {
		keys[i] = keyN(i)
	}
	in := inputN(1)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		c.Process(keys[i&(1<<14-1)], in)
	}
}

// TestGeometrySplit pins the shard-split contract: family preserved,
// per-shard buckets a power of two (so New's round-up cannot inflate the
// total above the configured operating point), and n ≥ buckets
// degenerating to one bucket per shard.
func TestGeometrySplit(t *testing.T) {
	cases := []struct {
		g    Geometry
		n    int
		want Geometry
	}{
		{SetAssociative(1<<18, 8), 1, Geometry{Buckets: 1 << 15, Ways: 8}},
		{SetAssociative(1<<18, 8), 8, Geometry{Buckets: 1 << 12, Ways: 8}},
		// Non-power-of-two shard counts round DOWN: 32768/3 = 10922 → 8192.
		{SetAssociative(1<<18, 8), 3, Geometry{Buckets: 1 << 13, Ways: 8}},
		{HashTable(1 << 10), 4, Geometry{Buckets: 1 << 8, Ways: 1}},
		{FullyAssociative(1 << 10), 4, Geometry{Buckets: 1, Ways: 1 << 8}},
		// n beyond the bucket count floors at one bucket per shard.
		{SetAssociative(64, 8), 100, Geometry{Buckets: 1, Ways: 8}},
	}
	for _, c := range cases {
		got := c.g.Split(c.n)
		if got != c.want {
			t.Errorf("%v.Split(%d) = %v, want %v", c.g, c.n, got, c.want)
		}
		// The one-bucket floor is the documented exception to the
		// no-inflation rule (capacity cannot drop below one bucket).
		if c.n > 1 && got.Buckets > 1 && got.Pairs()*c.n > c.g.Pairs() {
			t.Errorf("%v.Split(%d): total %d pairs exceeds configured %d", c.g, c.n, got.Pairs()*c.n, c.g.Pairs())
		}
		if _, err := New(Config{Geometry: got, Fold: fold.Count()}); err != nil {
			t.Errorf("split geometry %v rejected by New: %v", got, err)
		}
	}
}

// TestEvictionPayloadIsWholePerEviction: the payload struct is reused and
// its fields are set in place, so every delivery must still read as if it
// had been built from scratch — the key's own state, product and first
// packet, the reason of this eviction, and a span only when this key is
// sampled (not the span of the sampled key evicted before it).
func TestEvictionPayloadIsWholePerEviction(t *testing.T) {
	lat := fold.Bin{Op: fold.OpSub, L: fold.FieldRef(trace.FieldTout), R: fold.FieldRef(trace.FieldTin)}
	for _, exact := range []bool{false, true} {
		for _, g := range geometries(32) {
			tr := obs.NewTracer(2, 0) // one key in four is sampled
			flushing := false
			sampled, n := 0, 0
			c := mustNew(t, Config{
				Geometry: g, Fold: fold.Ewma(lat, 0.125), ExactMerge: exact, Trace: tr,
				OnEvict: func(ev *Eviction) {
					n++
					want := tr.Sampled(ev.Key.Hash())
					if want {
						sampled++
					}
					if ev.Span.Live() != want {
						t.Fatalf("%v exact=%v: eviction %d of a key sampled=%v carries a live span=%v", g, exact, n, want, ev.Span.Live())
					}
					if (ev.P != nil) != exact || (ev.Reason == EvictFlush) != flushing || len(ev.State) != 1 {
						t.Fatalf("%v exact=%v: eviction %d = %+v while flushing=%v", g, exact, n, *ev, flushing)
					}
					if ev.FirstRec != nil && ev.FirstRec.PktLen != binary.BigEndian.Uint32(ev.Key[0:4]) {
						t.Fatalf("%v: eviction %d of key %v carries the first packet of key %d", g, n, ev.Key, ev.FirstRec.PktLen)
					}
				},
			})
			for i := 0; i < 200; i++ { // 200 keys through 32 pairs: capacity evictions
				c.Process(keyN(i), inputN(i))
			}
			flushing = true
			c.Flush()
			if n != 200 || sampled == 0 || sampled == n {
				t.Fatalf("%v exact=%v: %d evictions, %d sampled; want 200, some", g, exact, n, sampled)
			}
		}
	}
}

// TestCapacityEvictionLanesOutliveSlotReuse: a block of 64 keys through a
// cache of a few pairs evicts nearly every one of them, each slot reused
// many times before the block's one batch is delivered — and every lane
// must still hold what its own key had when it was displaced, not what
// the slot holds now: state (the key's one record), product, and under a
// history-coefficient fold the first-record snapshot. A flush's lanes are
// views of the slots, which nothing reuses while the batch is out.
func TestCapacityEvictionLanesOutliveSlotReuse(t *testing.T) {
	chk, err := lang.Check(lang.MustParse(queries.ByName("TCP out of sequence").Source))
	if err != nil {
		t.Fatal(err)
	}
	plan, err := compiler.Compile(chk)
	if err != nil {
		t.Fatal(err)
	}
	outOfSeq := plan.Programs[0].Fold // state (lastseq, oos_count); merges by first-record replay
	seqOf := func(n int) uint32 { return uint32(1000 + 10*n) }
	for _, g := range []Geometry{HashTable(4), SetAssociative(16, 8), FullyAssociative(6)} {
		for _, tc := range []struct {
			f     *fold.Func
			exact bool
			first bool
		}{{fold.Sum(fold.FieldRef(trace.FieldTCPSeq)), false, false}, {fold.Sum(fold.FieldRef(trace.FieldTCPSeq)), true, false}, {outOfSeq, true, true}} {
			index := map[packet.Key128]int{}
			batches, lanes := 0, 0
			c := mustNew(t, Config{Geometry: g, Fold: tc.f, ExactMerge: tc.exact, OnEvictBatch: func(b *EvictBatch) {
				batches++
				for l := 0; l < b.N; l++ {
					lanes++
					n := index[b.Keys[l]]
					if got := b.State[l][0]; got != float64(seqOf(n)) {
						t.Fatalf("%v %s: lane %d of key %d holds state %v, want %d", g, tc.f.Name(), l, n, b.State[l], seqOf(n))
					}
					if (b.P[l] != nil) != tc.exact || (b.First[l] != nil) != tc.first {
						t.Fatalf("%v %s: lane %d has P %v, first record %v", g, tc.f.Name(), l, b.P[l], b.First[l])
					}
					if tc.first && b.First[l].TCPSeq != seqOf(n) {
						t.Fatalf("%v %s: lane %d of key %d carries the first record of seq %d", g, tc.f.Name(), l, n, b.First[l].TCPSeq)
					}
				}
			}})
			keys, hashes := make([]packet.Key128, fold.BlockSize), make([]uint64, fold.BlockSize)
			recs := make([]trace.Record, fold.BlockSize)
			for n := range keys {
				keys[n] = keyN(n)
				hashes[n] = keys[n].Hash()
				recs[n] = trace.Record{TCPSeq: seqOf(n)}
				index[keys[n]] = n
			}
			c.ProcessBlock(keys, hashes, recs, ^uint64(0), nil)
			if evicted := fold.BlockSize - c.Len(); batches != 1 || lanes != evicted || evicted < fold.BlockSize-g.Pairs() {
				t.Fatalf("%v %s: %d batches with %d lanes for %d evictions", g, tc.f.Name(), batches, lanes, evicted)
			}
			c.Flush()
			if batches != 2 || lanes != fold.BlockSize {
				t.Fatalf("%v %s: after the flush %d batches, %d lanes; want 2, %d", g, tc.f.Name(), batches, lanes, fold.BlockSize)
			}
		}
	}
}
