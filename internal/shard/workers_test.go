package shard

import (
	"fmt"
	"runtime"
	"sync/atomic"
	"testing"
)

// feedSeq feeds a transport test record: the sequence number rides in
// PktUniq, on a ring that carries no other column.
func feedSeq(w *Workers, worker, i int) {
	r := w.rings[worker]
	s, l := r.lane()
	s.recs[l].PktUniq = uint64(i)
	r.commit()
}

// TestWorkersRingWrapAround pushes many multiples of the ring's total
// capacity (depth × batch) through a single worker, with a slot smaller
// than a block, and checks every record arrives exactly once, in order —
// the wrap-around contract of the slot indices and the reuse of slot
// columns.
func TestWorkersRingWrapAround(t *testing.T) {
	const batch = 8
	const total = batch * ringDepth * 97 // many wraps, not slot-aligned
	var got []uint64
	w := NewWorkers(1, batch, columns{}, nil, func(worker int, s *slot) {
		if worker != 0 {
			t.Errorf("worker = %d, want 0", worker)
		}
		for i := range s.recs[:s.n] {
			got = append(got, s.recs[i].PktUniq)
		}
	})
	for i := 0; i < total; i++ {
		feedSeq(w, 0, i)
	}
	w.Close()
	if len(got) != total {
		t.Fatalf("received %d of %d items", len(got), total)
	}
	for i, v := range got {
		if v != uint64(i) {
			t.Fatalf("item %d = %d (out of order or duplicated)", i, v)
		}
	}
}

// TestWorkersBarrierPartialBatch feeds less than one batch, barriers,
// and checks the partial slot was flushed and processed — then keeps
// feeding across several more barriers to prove the rings stay usable
// with arbitrary partial fills in between.
func TestWorkersBarrierPartialBatch(t *testing.T) {
	const batch = 64
	var processed atomic.Int64
	w := NewWorkers(3, batch, columns{}, nil, func(worker int, s *slot) {
		processed.Add(int64(s.n))
	})
	fed := 0
	feed := func(n int) {
		for i := 0; i < n; i++ {
			feedSeq(w, fed%3, fed)
			fed++
		}
	}
	for _, chunk := range []int{batch / 4, 0, batch*5 + 3, 1, 0} {
		feed(chunk)
		w.Barrier()
		if got := processed.Load(); got != int64(fed) {
			t.Fatalf("after barrier at %d fed: processed %d", fed, got)
		}
	}
	w.Close()
	if got := processed.Load(); got != int64(fed) {
		t.Fatalf("after close: processed %d of %d", processed.Load(), fed)
	}
}

// TestWorkersCloseAfterBarrier covers the shutdown orderings around the
// sentinel slots: barrier → immediate close, and barrier → feed → close.
func TestWorkersCloseAfterBarrier(t *testing.T) {
	var processed atomic.Int64
	w := NewWorkers(2, 16, columns{}, nil, func(worker int, s *slot) {
		processed.Add(int64(s.n))
	})
	feedSeq(w, 0, 1)
	w.Barrier()
	w.Barrier() // idle barrier: no items since the last one
	w.Close()
	if processed.Load() != 1 {
		t.Fatalf("processed %d, want 1", processed.Load())
	}

	w = NewWorkers(2, 16, columns{}, nil, func(worker int, s *slot) {
		processed.Add(int64(s.n))
	})
	w.Barrier() // barrier before any feed
	feedSeq(w, 1, 2)
	feedSeq(w, 0, 3)
	w.Close()
	if processed.Load() != 3 {
		t.Fatalf("processed %d, want 3", processed.Load())
	}
}

// TestWorkersSteadyStateZeroAlloc pins the transport's allocation
// contract: once the rings exist, feeding (including publishes, barrier
// sentinels and slot reuse across wrap-around) allocates nothing. This
// is the regression test for the sync.Pool slice-header boxing the
// channel transport paid per batch.
func TestWorkersSteadyStateZeroAlloc(t *testing.T) {
	const batch = 32
	var sink atomic.Int64
	w := NewWorkers(2, batch, columns{groups: 1, masks: true}, nil, func(worker int, s *slot) {
		sink.Add(int64(s.n))
	})
	defer w.Close()
	// Warm every slot buffer through one full wrap first.
	for i := 0; i < batch*ringDepth*2; i++ {
		feedSeq(w, i%2, i)
	}
	w.Barrier()
	allocs := testing.AllocsPerRun(10, func() {
		for i := 0; i < batch*ringDepth*2; i++ {
			feedSeq(w, i%2, i)
		}
		w.Barrier()
	})
	if allocs != 0 {
		t.Fatalf("steady-state transport allocates %.1f per run, want 0", allocs)
	}
}

// TestWorkersInPlaceSlots is the race coverage of in-place consumption:
// a worker reads a slot's columns while the feeder fills the next slot of
// the same ring, so under the race detector (and at GOMAXPROCS ≥ 4, so
// the two really overlap) a small ring is wrapped many times with every
// column written, and the worker checks each lane's columns against its
// record and a running checksum per slot against the one the feeder left
// in the mask column. A slot recycled before its consumer was done, or a
// column published late, fails the checksum; an unordered access fails
// the detector.
func TestWorkersInPlaceSlots(t *testing.T) {
	prev := runtime.GOMAXPROCS(max(4, runtime.GOMAXPROCS(0)))
	defer runtime.GOMAXPROCS(prev)
	const batch, workers = 4, 2
	const total = batch*ringDepth*257 + 3
	var next [workers]uint64 // per worker: the sequence number expected next
	w := NewWorkers(workers, batch, columns{groups: 2, masks: true}, nil, func(worker int, s *slot) {
		var sum uint64
		for l := 0; l < s.n; l++ {
			seq := s.recs[l].PktUniq
			if seq != next[worker] {
				t.Errorf("worker %d: record %d where %d was due", worker, seq, next[worker])
			}
			next[worker]++
			for g := range s.keys {
				if want := keyN(seq + uint64(g)); s.keys[g][l] != want || s.hashes[g][l] != want.Hash() {
					t.Errorf("worker %d record %d: group %d key/hash column does not match the record", worker, seq, g)
				}
			}
			if sum += seq; s.masks[l] != sum {
				t.Errorf("worker %d record %d: slot checksum %d, want %d", worker, seq, s.masks[l], sum)
			}
		}
	})
	var sums [workers]uint64
	for i := 0; i < total; i++ {
		for wk := 0; wk < workers; wk++ {
			r := w.rings[wk]
			s, l := r.lane()
			if l == 0 {
				sums[wk] = 0
			}
			seq := uint64(i)
			s.recs[l].PktUniq = seq
			for g := range s.keys {
				s.keys[g][l] = keyN(seq + uint64(g))
				s.hashes[g][l] = s.keys[g][l].Hash()
			}
			sums[wk] += seq
			s.masks[l] = sums[wk]
			r.commit()
		}
		if i%1000 == 999 {
			w.Barrier() // partial slots in the middle of the stream too
		}
	}
	w.Close()
	for wk, n := range next {
		if n != total {
			t.Fatalf("worker %d consumed %d of %d records", wk, n, total)
		}
	}
}

// BenchmarkWorkersTransport measures the per-item cost of the ring
// transport at several batch sizes — the tuning data behind
// DefaultBatch. Run with GOMAXPROCS>1 to see the cross-core handoff
// cost; at 1 proc it measures pure overhead (publish + yield ping-pong).
func BenchmarkWorkersTransport(b *testing.B) {
	for _, batch := range []int{32, 64, 128, 256, 512} {
		b.Run(fmt.Sprintf("batch-%d", batch), func(b *testing.B) {
			var sink atomic.Int64
			w := NewWorkers(1, batch, columns{}, nil, func(worker int, s *slot) {
				sink.Add(int64(s.n))
			})
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				feedSeq(w, 0, i)
			}
			w.Close()
			if sink.Load() != int64(b.N) {
				b.Fatalf("processed %d of %d", sink.Load(), b.N)
			}
		})
	}
}
