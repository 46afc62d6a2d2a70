package shard

import (
	"sync"

	"perfq/internal/obs"
)

// Workers moves column slots from a single feeder to one goroutine per
// worker — the transport under Pool, whose router picks the worker for
// each record and fills the slot's columns. Each worker drains its own
// bounded SPSC ring of slots (see ring.go for why this replaced batched
// channels) and is handed every slot to consume in place. lane/commit,
// Barrier and Close must be called from one goroutine.
//
// A barrier sentinel slot plays the role the nil batch did on channels:
// a worker acknowledges it in ring order, so after Barrier every record
// fed so far has been processed — the epoch-boundary alignment of the
// windowed runtime.
type Workers struct {
	rings []*ring
	wg    sync.WaitGroup
	bar   sync.WaitGroup
}

// NewWorkers starts n worker goroutines, each draining its ring of slots
// through consume (called with the worker's index; the slot is the
// worker's until consume returns). A slot holds batch records (the
// pool's is DefaultBatch; tests pass small ones to wrap the ring) and
// the columns cols names; each ring holds ringDepth slots. tms, when
// non-nil, instruments the transport: the workers form len(tms) equal
// consecutive groups (the pool's partitions), each recording batch sizes
// and ring park/wake events into its own set, striped by the worker's
// position in the group. Instrumentation sits on the per-batch and park
// slow paths only — nil tms costs one predictable branch per batch,
// nothing per record.
func NewWorkers(n, batch int, cols columns, tms []*obs.TransportMetrics, consume func(worker int, s *slot)) *Workers {
	w := &Workers{rings: make([]*ring, n)}
	for i := 0; i < n; i++ {
		var tm *obs.TransportMetrics
		stripe := i
		if tms != nil {
			per := n / len(tms)
			tm, stripe = tms[i/per], i%per
		}
		r := newRing(ringDepth, batch, cols, tm, stripe)
		w.rings[i] = r
		w.wg.Add(1)
		go func(i int, r *ring) {
			defer w.wg.Done()
			for {
				s := r.take()
				switch s.kind {
				case slotBatch:
					consume(i, s)
					if tm != nil {
						tm.RecordBatch(stripe, s.n)
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

// sentinel flushes every ring's pending partial slot and publishes one
// sentinel slot per ring — the single flush path of Barrier and Close.
func (w *Workers) sentinel(kind uint8) {
	for _, r := range w.rings {
		if r.fill > 0 {
			r.publish(slotBatch)
		}
		r.lane()
		r.publish(kind)
	}
}

// Barrier flushes pending slots and blocks until every record fed so
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
