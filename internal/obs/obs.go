// Package obs is the zero-allocation observability layer: counters,
// gauges, and power-of-two histograms cheap enough to live inside the
// datapath hot loop, plus a registry that renders them as
// Prometheus-text and JSON snapshots.
//
// The design splits instrumentation by write frequency:
//
//   - Slow-path events (ring parks, sync round-trips, health flips,
//     window closes) are recorded straight into atomics. They happen at
//     most a few thousand times per second, so an uncontended atomic
//     add is free.
//   - Per-packet state is NOT written through this package. The
//     datapath keeps its existing plain (non-atomic) counters and
//     mirrors them into per-shard atomic cells at batch boundaries —
//     one atomic store per ~16k records instead of one per record. The
//     scraper only ever reads the atomic mirrors, so the hot loop stays
//     untouched and the whole thing is race-clean.
//
// Counters are striped across cache-line-padded cells, one per writer
// (shard, worker, backend), so concurrent writers never share a line;
// reads sum the cells. Histograms bucket by bit length (bucket i holds
// values of bits.Len64(v) == i), which makes Record a single shift-free
// index plus three atomic adds and keeps the bucket array fixed-size.
package obs

import (
	"math/bits"
	"sync"
	"sync/atomic"
)

// cacheLine matches the padding used by the shard rings: 64 bytes on
// every deployment target we care about.
const cacheLine = 64

// cell is one cache-line-padded counter slot. The padding guarantees
// two writers on adjacent cells never false-share.
type cell struct {
	n atomic.Uint64
	_ [cacheLine - 8]byte
}

// Counter is a monotonically increasing counter striped across
// per-writer cells. Writer indices are fixed at construction (shard
// number, worker number, ...); Value sums the stripes.
type Counter struct {
	cells []cell
}

// NewCounter builds a counter with one padded cell per writer.
func NewCounter(writers int) *Counter {
	if writers < 1 {
		writers = 1
	}
	return &Counter{cells: make([]cell, writers)}
}

// Add adds n to writer w's stripe.
func (c *Counter) Add(w int, n uint64) { c.cells[w].n.Add(n) }

// Inc adds 1 to writer w's stripe.
func (c *Counter) Inc(w int) { c.cells[w].n.Add(1) }

// Store publishes an absolute value into writer w's stripe. This is
// the mirror path: the datapath keeps a plain counter and Stores it at
// batch boundaries, so Value reads sum the latest published view.
func (c *Counter) Store(w int, v uint64) { c.cells[w].n.Store(v) }

// Value sums the stripes.
func (c *Counter) Value() uint64 {
	var sum uint64
	for i := range c.cells {
		sum += c.cells[i].n.Load()
	}
	return sum
}

// HistBuckets is the fixed bucket count: bits.Len64 ranges 0..64, so
// 65 buckets cover every uint64 with power-of-two boundaries.
const HistBuckets = 65

// Hist is a fixed-bucket power-of-two histogram. Record is
// allocation-free: three atomic adds, no locks, no resizing. Bucket i
// holds values whose bit length is i — bucket 0 is exactly {0}, bucket
// i (i>0) is [2^(i-1), 2^i).
type Hist struct {
	count   atomic.Uint64
	sum     atomic.Uint64
	buckets [HistBuckets]atomic.Uint64
}

// Record folds one value in. Safe for concurrent writers; for
// contended hot paths prefer one Hist per writer merged at read time
// (HistSnap.Accumulate).
func (h *Hist) Record(v uint64) {
	h.buckets[bits.Len64(v)].Add(1)
	h.count.Add(1)
	h.sum.Add(v)
}

// Count returns how many values have been recorded.
func (h *Hist) Count() uint64 { return h.count.Load() }

// Snapshot copies the histogram into s (overwriting it) without
// allocating.
func (h *Hist) Snapshot(s *HistSnap) {
	s.Reset()
	s.Accumulate(h)
}

// BucketBound is the inclusive upper bound of bucket i: 0 for bucket
// 0, 2^i - 1 otherwise. Bucket HistBuckets-1 spans to the top of the
// uint64 range and renders as +Inf in Prometheus text.
func BucketBound(i int) uint64 {
	if i <= 0 {
		return 0
	}
	if i >= 64 {
		return ^uint64(0)
	}
	return 1<<uint(i) - 1
}

// HistSnap is a plain (non-atomic) histogram snapshot: the unit of
// merging and rendering.
type HistSnap struct {
	Count   uint64
	Sum     uint64
	Buckets [HistBuckets]uint64
}

// Reset zeroes the snapshot in place.
func (s *HistSnap) Reset() { *s = HistSnap{} }

// Accumulate folds a live histogram's current contents into s. This is
// how per-worker histograms merge at read time without a temporary:
// reset once, then Accumulate each worker's Hist.
func (s *HistSnap) Accumulate(h *Hist) {
	s.Count += h.count.Load()
	s.Sum += h.sum.Load()
	for i := range s.Buckets {
		s.Buckets[i] += h.buckets[i].Load()
	}
}

// Merge folds another snapshot into s.
func (s *HistSnap) Merge(o *HistSnap) {
	s.Count += o.Count
	s.Sum += o.Sum
	for i := range s.Buckets {
		s.Buckets[i] += o.Buckets[i]
	}
}

// Mean is Sum/Count, 0 when empty.
func (s *HistSnap) Mean() float64 {
	if s.Count == 0 {
		return 0
	}
	return float64(s.Sum) / float64(s.Count)
}

// Quantile estimates the q-th quantile (q in [0, 1]) by linear
// interpolation inside the power-of-two bucket holding the target rank.
// Bucket i > 0 spans [2^(i-1), 2^i); assuming ranks spread uniformly
// across a bucket's value range bounds the relative error by the
// bucket's width — a factor of 2 worst case, typically far less for the
// latency distributions these histograms hold. Returns 0 when empty.
func (s *HistSnap) Quantile(q float64) float64 {
	if s.Count == 0 {
		return 0
	}
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	target := q * float64(s.Count)
	var cum float64
	for i := range s.Buckets {
		c := float64(s.Buckets[i])
		if c == 0 {
			continue
		}
		if cum+c >= target {
			if i == 0 {
				return 0
			}
			lo := float64(uint64(1) << uint(i-1)) // bucket lower bound
			hi := float64(BucketBound(i))
			frac := (target - cum) / c
			return lo + frac*(hi-lo)
		}
		cum += c
	}
	return float64(BucketBound(HistBuckets - 1))
}

// Series is a bounded ring of float64 observations — the per-window
// stability series (valid-key fraction per closed window, after
// PASTRAMI's result-stability metric). Push is cheap but not hot-path:
// it fires once per window close.
type Series struct {
	mu    sync.Mutex
	vals  []float64
	next  int
	total uint64
}

// NewSeries keeps the last keep observations (min 1).
func NewSeries(keep int) *Series {
	if keep < 1 {
		keep = 1
	}
	return &Series{vals: make([]float64, 0, keep)}
}

// Push appends an observation, evicting the oldest when full.
func (s *Series) Push(v float64) {
	s.mu.Lock()
	if len(s.vals) < cap(s.vals) {
		s.vals = append(s.vals, v)
	} else {
		s.vals[s.next] = v
	}
	s.next = (s.next + 1) % cap(s.vals)
	s.total++
	s.mu.Unlock()
}

// Last is the most recent observation (0 when empty).
func (s *Series) Last() float64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	if len(s.vals) == 0 {
		return 0
	}
	i := s.next - 1
	if i < 0 {
		i = len(s.vals) - 1
	}
	return s.vals[i]
}

// Mean averages the retained window (0 when empty).
func (s *Series) Mean() float64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	if len(s.vals) == 0 {
		return 0
	}
	var sum float64
	for _, v := range s.vals {
		sum += v
	}
	return float64(sum) / float64(len(s.vals))
}

// Total is the number of observations ever pushed.
func (s *Series) Total() uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.total
}

// Values appends the retained observations, oldest first, to dst.
func (s *Series) Values(dst []float64) []float64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	if len(s.vals) < cap(s.vals) {
		return append(dst, s.vals...)
	}
	dst = append(dst, s.vals[s.next:]...)
	return append(dst, s.vals[:s.next]...)
}
