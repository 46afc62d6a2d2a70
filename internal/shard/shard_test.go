package shard

import (
	"encoding/binary"
	"reflect"
	"sync/atomic"
	"testing"

	"perfq/internal/packet"
	"perfq/internal/trace"
)

func keyN(i uint64) packet.Key128 {
	var k packet.Key128
	binary.LittleEndian.PutUint64(k[:8], i)
	return k
}

func TestIndexRangeAndDeterminism(t *testing.T) {
	for _, n := range []int{1, 2, 3, 7, 8, 64} {
		for i := uint64(0); i < 1000; i++ {
			s := Index(keyN(i), n)
			if s < 0 || s >= n {
				t.Fatalf("Index(key%d, %d) = %d out of range", i, n, s)
			}
			if s2 := Index(keyN(i), n); s2 != s {
				t.Fatalf("Index not deterministic: %d then %d", s, s2)
			}
		}
	}
}

func TestIndexBalance(t *testing.T) {
	const n, keys = 8, 100_000
	counts := make([]int, n)
	for i := uint64(0); i < keys; i++ {
		counts[Index(keyN(i), n)]++
	}
	for s, c := range counts {
		frac := float64(c) / keys
		if frac < 0.10 || frac > 0.15 {
			t.Errorf("shard %d holds %.3f of keys (want ~0.125)", s, frac)
		}
	}
}

// TestIndexIndependentOfBucketBits guards the correlation hazard: the
// cache indexes buckets with the LOW bits of Key128.Hash, so keys
// co-resident on one shard must still spread over all cache buckets.
func TestIndexIndependentOfBucketBits(t *testing.T) {
	const n = 8
	const buckets = 64 // tiny pow2 bucket count; mask = low 6 bits
	seen := map[uint64]bool{}
	for i := uint64(0); i < 50_000; i++ {
		k := keyN(i)
		if Index(k, n) != 3 {
			continue
		}
		seen[k.Hash()&(buckets-1)] = true
	}
	if len(seen) < buckets {
		t.Fatalf("shard 3's keys reach only %d/%d cache buckets", len(seen), buckets)
	}
}

// routeTrace builds records with two independent keys: the flow 5-tuple
// and the queue id.
func routeTrace(n int) []trace.Record {
	recs := make([]trace.Record, n)
	for i := range recs {
		recs[i] = trace.Record{
			SrcIP:   packet.Addr4{10, 0, byte(i >> 8), byte(i % 37)},
			DstIP:   packet.Addr4{10, 1, 0, byte(i % 11)},
			SrcPort: uint16(1000 + i%97),
			DstPort: 80,
			Proto:   packet.ProtoTCP,
			QID:     trace.MakeQueueID(uint16(i%5), uint16(i%3)),
			PktUniq: uint64(i),
		}
	}
	return recs
}

func flowKey(rec *trace.Record) packet.Key128 { return rec.FlowKey().Pack() }

func qidKey(rec *trace.Record) packet.Key128 {
	var k packet.Key128
	binary.LittleEndian.PutUint32(k[:4], uint32(rec.QID))
	return k
}

// hit is one delivery: which record, with which targets.
type hit struct{ uniq, mask uint64 }

// blockRuns is the run-length cycle the routing tests cut a stream into:
// one record, one short of / exactly / one past a block, a slot plus
// one, and two slots.
var blockRuns = []int{1, 63, 64, 65, 257, 512}

// reference is the per-record specification the block router must match:
// record i of partition p = partOf(rec) (skipped when p < 0) lands on
// worker p·n + Index(key, n) with the bits of every target keyed by key,
// and on the partition's round-robin shard with FreeMask, in arrival
// order. keys are the reference extractors, one per cfg.Keys entry.
func reference(cfg Config, keys []KeyFunc, recs []trace.Record) [][]hit {
	n, parts := max(cfg.Shards, 1), max(cfg.Partition.N, 1)
	want := make([][]hit, parts*n)
	rr := 0
	for i := range recs {
		rec, p := &recs[i], 0
		if cfg.Partition.Of != nil {
			if p = cfg.Partition.Of(rec); p < 0 {
				continue
			}
		}
		masks := make([]uint64, n)
		for t, kf := range keys {
			masks[Index(kf(rec), n)] |= 1 << uint(t)
		}
		if cfg.FreeMask != 0 {
			masks[rr] |= cfg.FreeMask
			rr = (rr + 1) % n
		}
		for s, m := range masks {
			if m != 0 {
				want[p*n+s] = append(want[p*n+s], hit{rec.PktUniq, m})
			}
		}
	}
	return want
}

// deliveries drives recs through a pool — runs of blockRuns lengths, by
// FeedRun, or alternately FeedRun and record-by-record Feed when
// interleave is set — and returns each worker's (record, mask) sequence.
func deliveries(cfg Config, ring, interleave bool, recs []trace.Record) ([][]hit, *Pool) {
	got := make([][]hit, max(cfg.Partition.N, 1)*max(cfg.Shards, 1)) // appended only by the owning worker
	pool := NewInline(cfg, ProcessFunc(func(w int, rec *trace.Record, mask uint64) {
		got[w] = append(got[w], hit{rec.PktUniq, mask})
	}).Blocks())
	if ring {
		pool.Start()
	}
	for lo, k := 0, 0; lo < len(recs); k++ {
		run := recs[lo:min(lo+blockRuns[k%len(blockRuns)], len(recs))]
		lo += len(run)
		if interleave && k%2 == 1 {
			for i := range run {
				pool.Feed(&run[i])
			}
			continue
		}
		pool.FeedRun(run)
	}
	pool.Barrier()
	pool.Close()
	return got, pool
}

// TestPoolRouting checks the full contract of the block entry against
// the per-record reference, for ring workers and the inline pool alike:
// every keyed target delivered exactly once, on the shard its key hashes
// to, in arrival order, the free target exactly once per record on the
// round-robin shard — over two key groups (the five-tuple packed inline
// through a nil KeyFunc, and a called one) plus a free target, and over
// the one-owner layouts whose slots carry no masks: one key group, called
// or the five-tuple, and a single shard.
func TestPoolRouting(t *testing.T) {
	recs := routeTrace(10_000)
	for name, tc := range map[string]struct {
		cfg  Config
		keys []KeyFunc
	}{
		"two-groups+free": {Config{Shards: 4, Keys: []KeyFunc{nil, qidKey}, FreeMask: 1 << 2}, []KeyFunc{flowKey, qidKey}},
		"shared-group":    {Config{Shards: 3, Keys: []KeyFunc{qidKey}, Targets: []int{0, 0}}, []KeyFunc{qidKey, qidKey}},
		"five-tuple":      {Config{Shards: 2, Keys: []KeyFunc{nil}}, []KeyFunc{flowKey}},
		"one-shard":       {Config{Shards: 1, Keys: []KeyFunc{flowKey, qidKey}, FreeMask: 1 << 2}, []KeyFunc{flowKey, qidKey}},
	} {
		want := reference(tc.cfg, tc.keys, recs)
		for _, ring := range []bool{true, false} {
			got, pool := deliveries(tc.cfg, ring, false, recs)
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("%s (ring=%v): per-worker sequences differ from the per-record reference", name, ring)
			}
			if pool.Fed() != uint64(len(recs)) || pool.Unrouted() != 0 {
				t.Fatalf("%s (ring=%v): Fed = %d, Unrouted = %d, want %d and 0", name, ring, pool.Fed(), pool.Unrouted(), len(recs))
			}
		}
	}
}

// TestPoolPartitionedRouting covers the level above the key hash: with K
// partitions of n shards a record lands on worker part·n + Index(key, n)
// of the partition Partition.Of names and on no other partition's
// workers, a record Of disowns (-1) goes nowhere and is counted unrouted,
// not fed, a one-shard partition gets every target bit without its key
// being asked for — and the inline pool delivers each worker exactly the
// sequence the ring pool does, with Feed and FeedRun interleaved.
func TestPoolPartitionedRouting(t *testing.T) {
	recs := routeTrace(5_000)
	partOf := func(rec *trace.Record) int { return int(rec.QID.Switch()) - 1 } // switches 0..4: -1, 0..3
	for _, n := range []int{1, 3} {
		const parts = 4
		keyCalls := 0
		cfg := Config{
			Shards: n, FreeMask: 1 << 1,
			Keys:      []KeyFunc{func(rec *trace.Record) packet.Key128 { keyCalls++; return flowKey(rec) }},
			Partition: Partition{N: parts, Of: partOf},
		}
		ring, pool := deliveries(cfg, true, true, recs)
		if n == 1 && keyCalls != 0 {
			t.Fatalf("one-shard partitions packed %d keys on the feeder", keyCalls)
		}
		if want := reference(cfg, []KeyFunc{flowKey}, recs); !reflect.DeepEqual(ring, want) {
			t.Fatalf("n=%d: ring pool's per-worker sequences differ from the per-record reference", n)
		}
		routed := make([]uint64, parts)
		var unrouted uint64
		for i := range recs {
			if p := partOf(&recs[i]); p >= 0 {
				routed[p]++
			} else {
				unrouted++
			}
		}
		if !reflect.DeepEqual(pool.Routed(), routed) || pool.Unrouted() != unrouted || pool.Fed() != uint64(len(recs))-unrouted {
			t.Fatalf("n=%d: Routed = %v, Unrouted = %d, Fed = %d, want %v, %d of %d", n, pool.Routed(), pool.Unrouted(), pool.Fed(), routed, unrouted, len(recs))
		}
		if unrouted != uint64(len(recs)/5) {
			t.Fatalf("n=%d: %d records unrouted, want %d", n, unrouted, len(recs)/5)
		}
		if inline, _ := deliveries(cfg, false, true, recs); !reflect.DeepEqual(inline, ring) {
			t.Fatalf("n=%d: inline pool delivered a different per-worker sequence than the ring pool", n)
		}
	}
}

// TestPoolPartialBatchFlush ensures records short of one block — pending
// in Feed, then in a partial slot — arrive at a Barrier, and what follows
// it at Close.
func TestPoolPartialBatchFlush(t *testing.T) {
	var processed atomic.Uint64
	pool := NewPool(Config{Shards: 3, Keys: []KeyFunc{flowKey}},
		func(s int, rec *trace.Record, mask uint64) { processed.Add(1) })
	recs := routeTrace(17)
	for i := range recs[:10] {
		pool.Feed(&recs[i])
	}
	pool.Barrier()
	if processed.Load() != 10 {
		t.Fatalf("processed %d of 10 records at the barrier", processed.Load())
	}
	pool.FeedRun(recs[10:])
	pool.Close()
	if processed.Load() != 17 {
		t.Fatalf("processed %d of 17 records", processed.Load())
	}
}

// TestSingleShardDegenerate pins the n=1 fast path: everything routes to
// shard 0 with all target bits.
func TestSingleShardDegenerate(t *testing.T) {
	recs := routeTrace(100)
	pool := NewPool(Config{Shards: 1, Keys: []KeyFunc{flowKey, qidKey}, FreeMask: 1 << 2},
		func(s int, rec *trace.Record, mask uint64) {
			if s != 0 {
				t.Errorf("record on shard %d", s)
			}
			if mask != 0b111 {
				t.Errorf("mask = %b, want 111", mask)
			}
		})
	for i := range recs {
		pool.Feed(&recs[i])
	}
	pool.Close()
}

// TestPoolBarrier covers the window-boundary synchronization: after
// Barrier every record fed so far must have been processed, the pool
// must remain usable for further feeding, and repeated barriers (with
// and without intervening records, including empty ones back-to-back)
// must not deadlock or double-count.
func TestPoolBarrier(t *testing.T) {
	var processed atomic.Uint64
	pool := NewPool(Config{Shards: 4, Keys: []KeyFunc{flowKey}},
		func(s int, rec *trace.Record, mask uint64) { processed.Add(1) })
	recs := routeTrace(5000)

	fed := 0
	for _, chunk := range []int{1700, 0, 1300, 2000} {
		for i := fed; i < fed+chunk; i++ {
			pool.Feed(&recs[i])
		}
		fed += chunk
		pool.Barrier()
		if got := processed.Load(); got != uint64(fed) {
			t.Fatalf("after barrier at %d fed: processed %d", fed, got)
		}
	}
	pool.Barrier() // idle barrier
	pool.Close()
	if processed.Load() != uint64(len(recs)) {
		t.Fatalf("processed %d of %d", processed.Load(), len(recs))
	}
}
