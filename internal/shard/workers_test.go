package shard

import (
	"fmt"
	"sync/atomic"
	"testing"

	"perfq/internal/obs"
	"perfq/internal/trace"
)

// feedSeq feeds a transport test item: the sequence number rides in Mask.
func feedSeq(w *Workers, worker, i int) { w.Feed(worker, &trace.Record{}, uint64(i), obs.SpanRef{}) }

// TestWorkersRingWrapAround pushes many multiples of the ring's total
// capacity (depth × batch) through a single worker and checks every item
// arrives exactly once, in order — the wrap-around contract of the slot
// indices and the reuse of slot buffers.
func TestWorkersRingWrapAround(t *testing.T) {
	const batch = 8
	const total = batch * ringDepth * 97 // many wraps, not slot-aligned
	var got []uint64
	w := NewWorkers(1, batch, nil, func(worker int, items []Item) {
		if worker != 0 {
			t.Errorf("worker = %d, want 0", worker)
		}
		for i := range items {
			got = append(got, items[i].Mask)
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
	w := NewWorkers(3, batch, nil, func(worker int, items []Item) {
		processed.Add(int64(len(items)))
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
	w := NewWorkers(2, 16, nil, func(worker int, items []Item) {
		processed.Add(int64(len(items)))
	})
	feedSeq(w, 0, 1)
	w.Barrier()
	w.Barrier() // idle barrier: no items since the last one
	w.Close()
	if processed.Load() != 1 {
		t.Fatalf("processed %d, want 1", processed.Load())
	}

	w = NewWorkers(2, 16, nil, func(worker int, items []Item) {
		processed.Add(int64(len(items)))
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
	w := NewWorkers(2, batch, nil, func(worker int, items []Item) {
		sink.Add(int64(len(items)))
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

// BenchmarkWorkersTransport measures the per-item cost of the ring
// transport at several batch sizes — the tuning data behind
// DefaultBatch. Run with GOMAXPROCS>1 to see the cross-core handoff
// cost; at 1 proc it measures pure overhead (publish + yield ping-pong).
func BenchmarkWorkersTransport(b *testing.B) {
	for _, batch := range []int{32, 64, 128, 256, 512} {
		b.Run(fmt.Sprintf("batch-%d", batch), func(b *testing.B) {
			var sink atomic.Int64
			w := NewWorkers(1, batch, nil, func(worker int, items []Item) {
				sink.Add(int64(len(items)))
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
