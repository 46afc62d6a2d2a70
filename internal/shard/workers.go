package shard

import (
	"sync"

	"perfq/internal/obs"
	"perfq/internal/trace"
)

// Workers moves batched items from a single feeder to one goroutine per
// worker — the transport under Pool, which picks the worker for each
// item. Each worker drains its own bounded SPSC ring of batch slots (see
// ring.go for why this replaced batched channels). Feed, Barrier and
// Close must be called from one goroutine.
//
// A barrier sentinel slot plays the role the nil batch did on channels:
// a worker acknowledges it in ring order, so after Barrier every item
// fed so far has been processed — the epoch-boundary alignment of the
// windowed runtime.
type Workers struct {
	rings []*ring
	wg    sync.WaitGroup
	bar   sync.WaitGroup
}

// NewWorkers starts n worker goroutines, each draining its ring of item
// batches through process (called with the worker's index). A slot holds
// batch items (the pool's is DefaultBatch; tests pass small ones to wrap
// the ring); each ring holds ringDepth batch slots. tms, when non-nil,
// instruments the transport: the workers form len(tms) equal
// consecutive groups (the pool's partitions), each recording batch sizes
// and ring park/wake events into its own set, striped by the worker's
// position in the group. Instrumentation sits on the per-batch and park
// slow paths only — nil tms costs one predictable branch per batch,
// nothing per item.
func NewWorkers(n, batch int, tms []*obs.TransportMetrics, process func(worker int, items []Item)) *Workers {
	w := &Workers{rings: make([]*ring, n)}
	for i := 0; i < n; i++ {
		var tm *obs.TransportMetrics
		stripe := i
		if tms != nil {
			per := n / len(tms)
			tm, stripe = tms[i/per], i%per
		}
		r := newRing(ringDepth, batch, tm, stripe)
		w.rings[i] = r
		w.wg.Add(1)
		go func(i int, r *ring) {
			defer w.wg.Done()
			for {
				s := r.take()
				switch s.kind {
				case slotBatch:
					process(i, s.items)
					if tm != nil {
						tm.RecordBatch(stripe, len(s.items))
					}
					r.release()
				case slotBarrier:
					r.release()
					w.bar.Done()
				default: // slotClose
					r.release()
					return
				}
			}
		}(i, r)
	}
	return w
}

// Occupancy sums the published-but-unprocessed slots of workers
// [lo, hi) — a racy scrape-time backlog gauge in slot units.
func (w *Workers) Occupancy(lo, hi int) int {
	var n int
	for _, r := range w.rings[lo:hi] {
		n += r.occupancy()
	}
	return n
}

// Feed appends one routed record to worker's pending batch slot,
// publishing it when full. The record is copied once, straight into the
// slot; slot buffers are ring-owned and reused in place, so the steady
// state allocates nothing.
func (w *Workers) Feed(worker int, rec *trace.Record, mask uint64, span obs.SpanRef) {
	r := w.rings[worker]
	if r.buf == nil {
		r.acquire()
	}
	n := len(r.buf)
	r.buf = r.buf[:n+1]
	it := &r.buf[n]
	it.Rec, it.Mask, it.Span = *rec, mask, span
	if n+1 == cap(r.buf) {
		r.publish(slotBatch)
	}
}

// sentinel flushes every ring's pending partial batch and publishes one
// sentinel slot per ring — the single flush path of Barrier and Close.
func (w *Workers) sentinel(kind uint8) {
	for _, r := range w.rings {
		if len(r.buf) > 0 {
			r.publish(slotBatch)
		}
		r.acquire()
		r.publish(kind)
	}
}

// Barrier flushes pending batches and blocks until every item fed so
// far has been processed. The workers stay usable.
func (w *Workers) Barrier() {
	w.bar.Add(len(w.rings))
	w.sentinel(slotBarrier)
	w.bar.Wait()
}

// Close flushes, delivers a close sentinel and waits for the workers to
// exit. The Workers must not be fed afterwards.
func (w *Workers) Close() {
	w.sentinel(slotClose)
	w.wg.Wait()
}
