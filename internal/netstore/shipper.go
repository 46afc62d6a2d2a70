package netstore

import (
	"math/bits"
	"sync"
	"sync/atomic"

	"perfq/internal/fold"
	"perfq/internal/kvstore"
	"perfq/internal/obs"
)

// This file is the bounded async eviction path of the backing pool: a
// per-backend drop-oldest queue between the datapath (producers) and one
// shipper goroutine (consumer) that owns the backend's data connection.
// The datapath side never blocks and never touches the network — an
// offer is an encode into the backend's open chunk under a short lock;
// all dialing and deadlines happen on the shipper goroutine, and while
// the backend is marked down the shipper drops what reaches it.
//
// The unit that crosses every boundary is the chunk: a run of whole wire
// frames in one buffer. Producers encode straight into the open chunk
// and publish it when it holds SyncBatch frames; the shipper pops a
// chunk under one lock, writes it and an opSync marker with one
// deadline and one write, and reads the marker's reply later, while the
// server is already applying the next chunk. A partial chunk leaves the
// producers only when the shipper has nothing else to do — it steals
// it — so nothing waits on a timer and an idle pool ships every eviction
// at once. Buffers circulate between the open chunk, the ring, the
// shipper's spare and a LIFO free list that only an empty list makes
// allocate, so steady state allocates nothing and a queue holds no more
// buffers than its peak occupancy — a ring slot owns none.

// DefaultQueueDepth bounds a backend's eviction queue, in evictions; on
// overflow the OLDEST queued chunk is dropped (newest data wins, the
// usual telemetry-channel policy) and its evictions counted.
const DefaultQueueDepth = 1024

// DefaultSyncBatch is how many eviction frames fill a chunk, and so how
// many ride behind one opSync marker. With maxMarkers chunks in flight
// it bounds the at-most-once uncertainty window: a connection that dies
// loses at most maxMarkers × SyncBatch frames.
const DefaultSyncBatch = 64

// chunk is a run of whole eviction frames, the bytes a pre-chunk client
// wrote one frame at a time. Its buffer has room for every frame a
// chunk can hold plus the trailing opSync marker.
type chunk struct {
	buf    []byte
	frames int
}

// barrier is a Sync's token: it comes due once every chunk numbered
// below seq has left the queue, shipped or dropped.
type barrier struct {
	seq  uint64
	done chan<- int
	id   int
}

// chunkQueue is the bounded drop-oldest queue. A mutex, not the shard
// ring's atomics: drop-oldest makes head multi-writer and several
// datapaths may offer at once; the lock is per backend and the consumer
// takes it once per chunk.
type chunkQueue struct {
	mu       sync.Mutex
	m        int
	merge    fold.MergeKind
	perChunk int // frames in a full chunk
	chunkCap int // bytes: perChunk largest frames and the marker

	open chunk    // the producers' chunk, never full
	ring []chunk  // published full chunks, numbered [head, tail)
	free [][]byte // buffers no chunk holds, most recently freed last
	head uint64
	tail uint64

	queued   int    // evictions in the ring and the open chunk
	offered  uint64 // evictions ever offered
	overflow uint64 // evictions dropped with the oldest chunk
	barriers []barrier
	closed   bool

	consWait bool
	consPark chan struct{}
}

// newChunkQueue sizes the ring so that depth evictions always fit: only
// full chunks are ever published, so ceil(depth/perChunk) slots hold at
// least depth.
func newChunkQueue(f *fold.Func, depth, perChunk int) *chunkQueue {
	if depth <= 0 {
		depth = DefaultQueueDepth
	}
	if perChunk <= 0 {
		perChunk = DefaultSyncBatch
	}
	m := f.StateLen()
	q := &chunkQueue{
		m: m, merge: f.Merge,
		perChunk: perChunk,
		chunkCap: perChunk*maxEvictionFrame(m) + frameHeader,
		ring:     make([]chunk, (depth+perChunk-1)/perChunk),
		consPark: make(chan struct{}, 1),
	}
	q.open.buf = q.take()
	return q
}

// take hands out the most recently freed buffer for the next open
// chunk, and allocates one only when none is free.
func (q *chunkQueue) take() []byte {
	if n := len(q.free); n > 0 {
		buf := q.free[n-1]
		q.free = q.free[:n-1]
		return buf[:0]
	}
	return make([]byte, 0, q.chunkCap)
}

// offerBatch encodes the lanes of b set in lanes into the open chunk,
// in lane order, and publishes each chunk they fill. queued is false once
// the queue is closed; dropped is how many evictions left with the oldest
// chunks to make room. Never blocks; wakes the consumer only if parked.
func (q *chunkQueue) offerBatch(b *kvstore.EvictBatch, lanes uint64) (queued bool, dropped int) {
	q.mu.Lock()
	q.offered += uint64(bits.OnesCount64(lanes))
	if q.closed {
		q.mu.Unlock()
		return false, 0
	}
	q.queued += bits.OnesCount64(lanes)
	for n := uint64(len(q.ring)); lanes != 0; lanes &= lanes - 1 {
		l := bits.TrailingZeros64(lanes)
		q.open.buf = appendLaneFrame(q.open.buf, q.m, b.Keys[l], b.State[l], b.P[l], b.First[l], q.merge)
		if q.open.frames++; q.open.frames < q.perChunk {
			continue
		}
		if q.tail-q.head == n {
			dropped += q.ring[q.head%n].frames
			q.release(q.ring[q.head%n].buf)
			q.head++
		}
		q.ring[q.tail%n], q.open = q.open, chunk{buf: q.take()}
		q.tail++
	}
	q.queued -= dropped
	q.overflow += uint64(dropped)
	wake := q.consWait
	q.consWait = false
	q.mu.Unlock()
	if wake {
		q.wake()
	}
	return true, dropped
}

// release puts a buffer no chunk holds any more on the free list.
func (q *chunkQueue) release(buf []byte) {
	if buf != nil {
		q.free = append(q.free, buf)
	}
}

func (q *chunkQueue) wake() {
	select {
	case q.consPark <- struct{}{}:
	default:
	}
}

// work is what the consumer does next: ship a chunk (frames > 0),
// complete a barrier (done != nil), stop (closed), or — none of those —
// read a reply, because nothing can be shipped right now.
type work struct {
	chunk
	barrier
	closed bool
}

// next hands the consumer its next piece of work; handing out a chunk
// takes spare, the buffer of the chunk before (nil at first), back onto
// the free list. A due barrier comes before the chunks behind it. When
// idle — the consumer has nothing in flight — an empty ring gives up the
// open partial chunk, and an empty queue parks the consumer until an
// offer, a barrier or close arrives; when not idle it returns at once so
// the consumer can read the replies it is owed. (A yield phase before
// parking, as on the shard rings, measured no different here: a busy
// consumer waits in a reply read, not in park.)
func (q *chunkQueue) next(spare []byte, idle bool) work {
	for {
		q.mu.Lock()
		switch {
		case len(q.barriers) > 0 && q.barriers[0].seq <= q.head:
			w := work{barrier: q.barriers[0]}
			q.barriers = q.barriers[:copy(q.barriers, q.barriers[1:])]
			q.mu.Unlock()
			return w
		case q.head != q.tail:
			slot := &q.ring[q.head%uint64(len(q.ring))]
			w := work{chunk: *slot}
			*slot = chunk{}
			q.release(spare)
			q.head++
			q.queued -= w.frames
			q.mu.Unlock()
			return w
		case idle && q.open.frames > 0:
			w := work{chunk: q.open}
			q.release(spare)
			q.open = chunk{buf: q.take()}
			q.head++
			q.tail++
			q.queued -= w.frames
			q.mu.Unlock()
			return w
		case q.closed && q.open.frames == 0:
			q.mu.Unlock()
			return work{closed: true}
		case !idle:
			q.mu.Unlock()
			return work{}
		}
		q.consWait = true
		q.mu.Unlock()
		<-q.consPark
	}
}

// postBarrier asks for id on done once everything offered so far has
// left the queue. The open chunk is not published for it: the consumer
// steals it as soon as the ring ahead of it is empty.
func (q *chunkQueue) postBarrier(done chan<- int, id int) {
	q.mu.Lock()
	if q.closed {
		// The consumer is draining or gone, and Close settles the books.
		q.mu.Unlock()
		done <- id
		return
	}
	seq := q.tail
	if q.open.frames > 0 {
		seq++
	}
	q.barriers = append(q.barriers, barrier{seq: seq, done: done, id: id})
	q.consWait = false
	q.mu.Unlock()
	q.wake()
}

// counts snapshots the producer-side books.
func (q *chunkQueue) counts() (offered, overflow uint64, queued int) {
	q.mu.Lock()
	defer q.mu.Unlock()
	return q.offered, q.overflow, q.queued
}

// close stops offers and wakes the consumer; what is queued, the open
// chunk included, is still handed out before next reports closed.
func (q *chunkQueue) close() {
	q.mu.Lock()
	q.closed = true
	q.consWait = false
	q.mu.Unlock()
	q.wake()
}

// ShipperStats is a point-in-time snapshot of one backend shipper.
type ShipperStats struct {
	Addr     string
	Offered  uint64 // evictions handed to this shipper
	Acked    uint64 // confirmed applied by a sync barrier
	Shipped  uint64 // frames written to a connection
	Dropped  uint64 // total not delivered = Overflow + Refused + Lost
	Overflow uint64 // dropped with the oldest chunk on queue overflow
	Refused  uint64 // dropped unwritten: backend down, failed redial or closed shipper
	Lost     uint64 // written to a connection that died before a sync

	Queued     int // currently queued (not yet shipped)
	Reconnects uint64
}

// Shipper owns one backend's bounded async eviction path: the queue,
// the goroutine, and the data-plane Client underneath.
type Shipper struct {
	cl *Client
	q  *chunkQueue

	refused     atomic.Uint64 // evictions dropped unwritten (see ShipperStats.Refused)
	faults      atomic.Uint64 // refused or failed ships + failed syncs
	writeFrames obs.Hist      // eviction frames per socket write

	wg sync.WaitGroup
}

// newShipper builds and starts a shipper over its own client. depth and
// batch of 0 select the defaults.
func newShipper(cl *Client, depth, batch int) *Shipper {
	s := &Shipper{cl: cl, q: newChunkQueue(cl.f, depth, batch)}
	s.wg.Add(1)
	go s.run()
	return s
}

// offerBatch hands the shipper the lanes of b set in lanes, journaling
// an overflow once per call. Safe for concurrent producers. It reports
// whether THESE evictions were queued: false only once the shipper is
// closed, as an overflow drops the oldest chunks, not these.
func (s *Shipper) offerBatch(b *kvstore.EvictBatch, lanes uint64) bool {
	queued, dropped := s.q.offerBatch(b, lanes)
	if !queued {
		s.refused.Add(uint64(bits.OnesCount64(lanes))) // closed shipper: nothing will deliver them
		return false
	}
	if dropped > 0 {
		_, _, depth := s.q.counts()
		h := s.cl.health
		h.journal.Append(obs.EvQueueOverflow, int64(depth), int64(dropped), h.addr)
	}
	return true
}

// run is the consumer loop. Chunks go out back to back behind their
// markers while any are queued; replies are read when maxMarkers are
// unanswered (inside shipChunk) or when the queue has nothing to ship,
// so at most maxMarkers chunks are ever unaccounted (neither acked nor
// dropped).
func (s *Shipper) run() {
	defer s.wg.Done()
	var spare []byte
	for {
		w := s.q.next(spare, s.cl.nmarks == 0)
		switch {
		case w.frames > 0:
			written, err := s.cl.shipChunk(w.buf, w.frames)
			if !written {
				// Backend down or redial failed: the chunk is dropped,
				// never silently retried.
				s.refused.Add(uint64(w.frames))
			} else {
				s.writeFrames.Record(uint64(w.frames))
			}
			if err != nil {
				s.faults.Add(1)
			}
			spare = w.buf
		case w.done != nil:
			s.settle()
			w.done <- w.id
		case w.closed:
			s.settle()
			return
		default:
			s.readReply()
		}
	}
}

// readReply reads one owed reply: a success acks that marker's frames,
// a failure counts everything in flight lost (Client.fail) — either way
// they are accounted afterwards.
func (s *Shipper) readReply() {
	if err := s.cl.readAck(); err != nil {
		s.faults.Add(1)
	}
}

// settle reads every owed reply.
func (s *Shipper) settle() {
	for s.cl.nmarks > 0 {
		s.readReply()
	}
}

// Stats snapshots the shipper's accounting. Offered is always equal to
// Acked + Dropped + Queued + (at most maxMarkers chunks in flight, which
// the next replies settle).
func (s *Shipper) Stats() ShipperStats {
	offered, overflow, queued := s.q.counts()
	st := ShipperStats{
		Addr:       s.cl.health.addr,
		Offered:    offered,
		Acked:      s.cl.Acked(),
		Shipped:    s.cl.Evictions(),
		Overflow:   overflow,
		Refused:    s.refused.Load(),
		Lost:       s.cl.Lost(),
		Queued:     queued,
		Reconnects: s.cl.Reconnects(),
	}
	st.Dropped = st.Overflow + st.Refused + st.Lost
	return st
}

// DrainTimeoutError reports a barrier that did not complete in time.
type DrainTimeoutError struct {
	Addr              string
	Accounted, Target uint64
}

func (e *DrainTimeoutError) Error() string {
	return "netstore: drain timeout on " + e.Addr
}

// Close ships what is queued, settles it, stops the goroutine and
// closes the client.
func (s *Shipper) Close() error {
	s.q.close()
	s.wg.Wait()
	return s.cl.Close()
}
