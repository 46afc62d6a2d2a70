package shard

import (
	"runtime"
	"sync/atomic"

	"perfq/internal/obs"
	"perfq/internal/packet"
	"perfq/internal/trace"
)

// This file is the transport under Workers: one bounded single-producer
// single-consumer ring per worker, carrying column slots instead of
// channel sends. Channels lost on three counts (see DESIGN.md "The
// transport" for measurements): every send/receive takes the channel's
// internal mutex and copies the slice header through hchan, a parked
// receiver pays a full scheduler wakeup on every batch, and recycling
// buffers through a sync.Pool boxes a slice header per Put. The ring
// replaces all three with two padded atomic counters: the producer owns
// `tail`, the consumer owns `head`, a slot's buffer is reused in place
// once the consumer has moved past it (steady-state zero allocation),
// and both sides spin briefly before parking so the common
// producer-and-consumer-both-hot case never enters the scheduler.
const (
	// ringDepth is the number of batch slots per ring (power of two).
	// Depth × batch bounds per-worker buffering, and at GOMAXPROCS=1 it
	// sets the handoff granularity: the producer fills the whole ring
	// before yielding, so larger depth means fewer scheduler round trips.
	ringDepth = 8

	// spinTight / spinYield bound the two waiting phases: a handful of
	// raw re-checks (the counterpart is mid-update on another core),
	// then cooperative yields (it is runnable but not scheduled — the
	// whole story at GOMAXPROCS=1), then a real park on a channel.
	spinTight = 16
	spinYield = 64
)

// Slot kinds. Barrier and close ride the ring as sentinel slots so they
// order with data exactly like the nil-batch token did on channels.
const (
	slotBatch uint8 = iota
	slotBarrier
	slotClose
)

// slot is one ring entry: up to batch routed records held as parallel
// columns the worker consumes in place, fold.BlockSize lanes at a time.
// The record column is always there; a ring whose worker is one of
// several shards of its partition also carries, per lane, each key
// group's packed key and its hash exactly as the router computed them,
// and (when a record can have several owners) the target mask this
// worker owns for it. A one-shard partition's ring carries none of the
// three: its worker owns every target and nothing was packed. Sampled
// records ride as a sparse side list of (lane, span), ascending.
//
// The columns are allocated once, at full length, and reused in place
// when the consumer has moved past the slot; n is written at publish and
// read after take, so the head/tail edges order every access.
type slot struct {
	recs   []trace.Record
	masks  []uint64          // nil: every lane owns every target
	keys   [][]packet.Key128 // per key group; nil on a one-shard partition's ring
	hashes [][]uint64        // keys[g][l].Hash()
	spans  []laneSpan
	n      int // lanes filled
	kind   uint8
}

// laneSpan is a sampled lane's trace span. The ring publish/consume edge
// orders the feeder's Begin before the worker's appends, so the ref rides
// the slot without extra synchronization.
type laneSpan struct {
	lane int
	ref  obs.SpanRef
}

// columns says which columns a ring's slots carry besides the records.
type columns struct {
	groups int  // key groups: a key and a hash column each
	masks  bool // per-lane target masks
}

// ring is a bounded SPSC ring of batch slots. The producer fills the
// unpublished slot at tail (cur, lane by lane) and publishes by advancing tail;
// the consumer processes the slot at head and releases by advancing
// head. head and tail sit on separate cache lines so the two sides never
// false-share, and each side parks on its own one-token channel after
// the spin phases fail (Dekker-style: waiter sets its flag, re-checks
// the condition, then blocks; waker swaps the flag and drops a token —
// a stale token only causes a spurious re-check).
type ring struct {
	slots []slot
	mask  uint64

	_    [64]byte
	head atomic.Uint64 // next slot to consume (consumer-owned)
	_    [56]byte
	tail atomic.Uint64 // next slot to publish (producer-owned)
	_    [56]byte

	prodWait atomic.Bool
	consWait atomic.Bool
	prodPark chan struct{}
	consPark chan struct{}
	_        [40]byte

	// cur is the unpublished slot the producer is filling (nil when none
	// is acquired) and fill its next free lane. Producer-only, and kept
	// here rather than in the slot so a per-record store never lands on
	// a line the consumer is reading slot headers from.
	cur  *slot
	fill int

	// tm/widx, when set, count park/wake events for this ring. All
	// recording sits on the park slow paths, never the fast publish /
	// release edges, so an instrumented ring costs one nil-check per
	// wake and nothing per batch.
	tm   *obs.TransportMetrics
	widx int
}

func newRing(depth, batch int, cols columns, tm *obs.TransportMetrics, widx int) *ring {
	r := &ring{
		slots:    make([]slot, depth),
		mask:     uint64(depth - 1),
		prodPark: make(chan struct{}, 1),
		consPark: make(chan struct{}, 1),
		tm:       tm,
		widx:     widx,
	}
	for i := range r.slots {
		s := &r.slots[i]
		s.recs = make([]trace.Record, batch)
		if cols.masks {
			s.masks = make([]uint64, batch)
		}
		if cols.groups > 0 {
			s.keys = make([][]packet.Key128, cols.groups)
			s.hashes = make([][]uint64, cols.groups)
			for g := range s.keys {
				s.keys[g] = make([]packet.Key128, batch)
				s.hashes[g] = make([]uint64, batch)
			}
		}
	}
	return r
}

// lane returns the slot being filled and its next free lane, first
// waiting until the slot at tail is reusable when none is acquired. The
// caller writes the lane's columns and then calls commit.
func (r *ring) lane() (*slot, int) {
	if r.cur == nil {
		t := r.tail.Load()
		if t-r.head.Load() >= uint64(len(r.slots)) {
			r.waitNotFull(t)
		}
		r.cur = &r.slots[t&r.mask]
		r.cur.spans = r.cur.spans[:0]
	}
	return r.cur, r.fill
}

// commit counts the lane just written and publishes the slot when full.
func (r *ring) commit() {
	if r.fill++; r.fill == len(r.cur.recs) {
		r.publish(slotBatch)
	}
}

// waitNotFull is lane's slow path: the ring is full, so spin, yield,
// then park until the consumer releases a slot.
func (r *ring) waitNotFull(t uint64) {
	for spin := 0; ; spin++ {
		if t-r.head.Load() < uint64(len(r.slots)) {
			return
		}
		switch {
		case spin < spinTight:
			// re-check
		case spin < spinYield:
			runtime.Gosched()
		default:
			r.prodWait.Store(true)
			if t-r.head.Load() < uint64(len(r.slots)) {
				r.prodWait.Store(false)
				return
			}
			if r.tm != nil {
				r.tm.ProdParks.Inc(r.widx)
			}
			<-r.prodPark
			spin = 0
		}
	}
}

// publish hands the acquired slot to the consumer with the given kind.
func (r *ring) publish(kind uint8) {
	r.cur.n, r.cur.kind = r.fill, kind
	r.cur, r.fill = nil, 0
	r.tail.Store(r.tail.Load() + 1)
	if r.consWait.Swap(false) {
		if r.tm != nil {
			r.tm.ConsWakes.Inc(r.widx)
		}
		select {
		case r.consPark <- struct{}{}:
		default:
		}
	}
}

// take blocks until a slot is published and returns it. The caller must
// release() when done with the slot's buffer.
func (r *ring) take() *slot {
	h := r.head.Load()
	if r.tail.Load() == h {
		r.waitNotEmpty(h)
	}
	return &r.slots[h&r.mask]
}

// waitNotEmpty is take's slow path, symmetric to waitNotFull.
func (r *ring) waitNotEmpty(h uint64) {
	for spin := 0; ; spin++ {
		if r.tail.Load() != h {
			return
		}
		switch {
		case spin < spinTight:
			// re-check
		case spin < spinYield:
			runtime.Gosched()
		default:
			r.consWait.Store(true)
			if r.tail.Load() != h {
				r.consWait.Store(false)
				return
			}
			if r.tm != nil {
				r.tm.ConsParks.Inc(r.widx)
			}
			<-r.consPark
			spin = 0
		}
	}
}

// release returns the consumed slot to the producer.
func (r *ring) release() {
	r.head.Store(r.head.Load() + 1)
	if r.prodWait.Swap(false) {
		if r.tm != nil {
			r.tm.ProdWakes.Inc(r.widx)
		}
		select {
		case r.prodPark <- struct{}{}:
		default:
		}
	}
}

// occupancy is the number of published-but-unreleased slots, sampled
// racily (scrape-time gauge, exactness not required).
func (r *ring) occupancy() int {
	return int(r.tail.Load() - r.head.Load())
}
