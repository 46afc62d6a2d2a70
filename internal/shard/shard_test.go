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

// TestPoolRouting checks the full contract: every keyed target processed
// exactly once, on the shard its key hashes to, in arrival order; the
// free target processed exactly once per record somewhere.
func TestPoolRouting(t *testing.T) {
	const n = 4
	recs := routeTrace(10_000)
	type hit struct {
		uniq   uint64
		target int
	}
	perShard := make([][]hit, n) // appended only by the owning worker
	cfg := Config{
		Shards:   n,
		Keys:     []KeyFunc{flowKey, qidKey},
		FreeMask: 1 << 2,
	}
	pool := NewPool(cfg, func(s int, rec *trace.Record, mask uint64) {
		for bit := 0; bit < 3; bit++ {
			if mask&(1<<uint(bit)) != 0 {
				perShard[s] = append(perShard[s], hit{rec.PktUniq, bit})
			}
		}
	})
	for i := range recs {
		pool.Feed(&recs[i])
	}
	pool.Close()
	if got := pool.Fed(); got != uint64(len(recs)) {
		t.Fatalf("Fed = %d, want %d", got, len(recs))
	}

	seen := map[hit]int{}
	for s := 0; s < n; s++ {
		lastUniq := make([]int64, 3)
		for i := range lastUniq {
			lastUniq[i] = -1
		}
		for _, h := range perShard[s] {
			seen[h]++
			if h.target < 2 {
				// Keyed targets land on the hash-owning shard.
				key := flowKey(&recs[h.uniq])
				if h.target == 1 {
					key = qidKey(&recs[h.uniq])
				}
				if want := Index(key, n); want != s {
					t.Fatalf("target %d of record %d on shard %d, want %d", h.target, h.uniq, s, want)
				}
			}
			// Arrival order preserved per (shard, target).
			if int64(h.uniq) <= lastUniq[h.target] {
				t.Fatalf("shard %d target %d out of order: %d after %d", s, h.target, h.uniq, lastUniq[h.target])
			}
			lastUniq[h.target] = int64(h.uniq)
		}
	}
	for i := range recs {
		for target := 0; target < 3; target++ {
			if c := seen[hit{uint64(i), target}]; c != 1 {
				t.Fatalf("record %d target %d processed %d times", i, target, c)
			}
		}
	}
}

// TestPoolPartitionedRouting covers the level above the key hash: with K
// partitions of n shards a record lands on worker part·n + Index(key, n)
// of the partition Partition.Of names and on no other partition's
// workers, Feed returns that partition, a record Of disowns (-1) goes
// nowhere and is not counted fed, a one-shard partition gets every target
// bit without its key being asked for — and the inline pool delivers each
// worker exactly the sequence the ring pool does.
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
		type hit struct{ uniq, mask uint64 }
		deliveries := func(build func(Config, ProcessFunc) *Pool) [][]hit {
			got := make([][]hit, parts*n) // appended only by the owning worker
			pool := build(cfg, func(w int, rec *trace.Record, mask uint64) {
				got[w] = append(got[w], hit{rec.PktUniq, mask})
			})
			routed := 0
			for i := range recs {
				want := partOf(&recs[i])
				if p := pool.Feed(&recs[i]); p != want {
					t.Fatalf("n=%d: Feed = partition %d, want %d", n, p, want)
				}
				if want >= 0 {
					routed++
				}
			}
			pool.Barrier()
			pool.Close()
			if pool.Fed() != uint64(routed) {
				t.Fatalf("n=%d: Fed = %d, want %d routed of %d", n, pool.Fed(), routed, len(recs))
			}
			return got
		}
		ring := deliveries(NewPool)
		if n == 1 && keyCalls != 0 {
			t.Fatalf("one-shard partitions packed %d keys on the feeder", keyCalls)
		}
		seen := 0
		for w, hits := range ring {
			for _, h := range hits {
				rec := &recs[h.uniq]
				if h.mask&1 != 0 { // the keyed target: its hash-owning shard of its partition
					seen++
					if want := partOf(rec)*n + Index(flowKey(rec), n); w != want {
						t.Fatalf("n=%d: record %d on worker %d, want %d", n, h.uniq, w, want)
					}
				} else if w/n != partOf(rec) {
					t.Fatalf("n=%d: record %d's free target on partition %d, want %d", n, h.uniq, w/n, partOf(rec))
				}
			}
		}
		if want := len(recs) - len(recs)/5; seen != want {
			t.Fatalf("n=%d: keyed target delivered %d times, want %d", n, seen, want)
		}
		if inline := deliveries(NewInline); !reflect.DeepEqual(inline, ring) {
			t.Fatalf("n=%d: inline pool delivered a different per-worker sequence than the ring pool", n)
		}
	}
}

// TestPoolPartialBatchFlush ensures records below one batch still arrive
// after Close.
func TestPoolPartialBatchFlush(t *testing.T) {
	var processed atomic.Uint64
	pool := NewPool(Config{Shards: 3, Keys: []KeyFunc{flowKey}},
		func(s int, rec *trace.Record, mask uint64) { processed.Add(1) })
	recs := routeTrace(10)
	for i := range recs {
		pool.Feed(&recs[i])
	}
	pool.Close()
	if processed.Load() != 10 {
		t.Fatalf("processed %d of 10 records", processed.Load())
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
