package kvstore

import (
	"perfq/internal/fold"
	"perfq/internal/obs"
	"perfq/internal/packet"
	"perfq/internal/trace"
)

// fullLRU is the n=1 geometry: one bucket whose slots form a single LRU
// over the whole capacity. A hash map locates entries and an intrusive
// doubly-linked list over slot indices maintains recency, so Process is
// O(1) regardless of capacity. The paper notes a full LRU is impractical
// in silicon; it is simulated here as Figure 5's lower bound.
type fullLRU struct {
	rowOps
	geom Geometry

	index map[packet.Key128]int32 // key -> slot

	keys []packet.Key128
	// rows holds one row per slot (see rowOps).
	rows []float64

	// Intrusive list over slots. head = MRU, tail = LRU, -1 = none.
	next []int32
	prev []int32
	head int32
	tail int32

	free []int32 // free slot stack

	stats Stats

	// Sampled tracing (see setAssoc). The map-indexed LRU computes no
	// hash of its own, so sampled-access checks hash on demand — gated
	// on trMask so the untraced path pays one field compare.
	tr     *obs.Tracer
	trMask uint64
	trSlot *obs.SpanSlot
	trW    int

	out evictOut // last: the batch is kilobytes, and the fields above are the per-packet ones
}

func newFullLRU(cfg Config) *fullLRU {
	capacity := cfg.Geometry.Ways
	c := &fullLRU{
		geom:   cfg.Geometry,
		index:  make(map[packet.Key128]int32, capacity),
		keys:   make([]packet.Key128, capacity),
		next:   make([]int32, capacity),
		prev:   make([]int32, capacity),
		head:   -1,
		tail:   -1,
		free:   make([]int32, 0, capacity),
		tr:     cfg.Trace,
		trMask: cfg.Trace.HashMask(),
		trSlot: cfg.TraceSpan,
		trW:    cfg.TraceWriter,
	}
	for i := capacity - 1; i >= 0; i-- {
		c.free = append(c.free, int32(i))
	}
	c.rowOps.init(&cfg, capacity)
	c.out.init(&cfg, &c.rowOps)
	c.rows = make([]float64, capacity*c.w)
	return c
}

func (c *fullLRU) Geometry() Geometry { return c.geom }
func (c *fullLRU) Len() int           { return len(c.index) }
func (c *fullLRU) Stats() Stats       { return c.stats }

func (c *fullLRU) row(slot int32) []float64 {
	off := int(slot) * c.w
	return c.rows[off : off+c.w]
}

// unlink removes slot from the recency list.
func (c *fullLRU) unlink(slot int32) {
	p, n := c.prev[slot], c.next[slot]
	if p >= 0 {
		c.next[p] = n
	} else {
		c.head = n
	}
	if n >= 0 {
		c.prev[n] = p
	} else {
		c.tail = p
	}
}

// pushFront makes slot the MRU.
func (c *fullLRU) pushFront(slot int32) {
	c.prev[slot] = -1
	c.next[slot] = c.head
	if c.head >= 0 {
		c.prev[c.head] = slot
	}
	c.head = slot
	if c.tail < 0 {
		c.tail = slot
	}
}

// Process implements Cache.
func (c *fullLRU) Process(key packet.Key128, in *fold.Input) bool {
	var h uint64
	if c.trMask != obs.NoSample {
		h = key.Hash()
	}
	inserted := c.process(key, h, in, nil)
	c.out.deliver()
	return inserted
}

// process is Process with the key's hash and the record's coefficients
// (see rowOps.update) supplied by the caller; the map index hashes for
// itself, so h only drives the sampling test.
func (c *fullLRU) process(key packet.Key128, h uint64, in *fold.Input, coefs []float64) bool {
	c.stats.Accesses++
	if slot, ok := c.index[key]; ok {
		c.stats.Hits++
		c.update(c.row(slot), in, coefs)
		if c.head != slot {
			c.unlink(slot)
			c.pushFront(slot)
		}
		if c.trMask != obs.NoSample && h&c.trMask == 0 {
			traceCacheHop(c.tr, c.trSlot, c.trW, key, false)
		}
		return false
	}

	var slot int32
	if len(c.free) > 0 {
		slot = c.free[len(c.free)-1]
		c.free = c.free[:len(c.free)-1]
	} else {
		slot = c.tail
		c.evict(slot, EvictCapacity)
		c.stats.Evictions++
		delete(c.index, c.keys[slot])
		c.unlink(slot)
	}

	c.keys[slot] = key
	c.index[key] = slot
	c.insert(c.row(slot), int(slot), in, coefs)
	c.pushFront(slot)
	c.stats.Inserts++
	if c.trMask != obs.NoSample && h&c.trMask == 0 {
		traceCacheHop(c.tr, c.trSlot, c.trW, key, true)
	}
	return true
}

// ProcessBlock implements Cache: one dispatch for a block of packets.
func (c *fullLRU) ProcessBlock(keys []packet.Key128, hashes []uint64, recs []trace.Record, mask uint64, coefs []float64) uint64 {
	var inserted uint64
	in := &c.in
	for m := mask; m != 0; m &= m - 1 {
		l := tz64(m)
		in.Rec = &recs[l]
		var lane []float64
		if coefs != nil {
			lane = coefs[l:]
		}
		if c.process(keys[l], hashes[l], in, lane) {
			inserted |= 1 << l
		}
	}
	c.out.deliver()
	return inserted
}

// evict appends slot's entry to the outgoing batch.
func (c *fullLRU) evict(slot int32, reason EvictReason) {
	if !c.out.on {
		return
	}
	lo, hi := c.keys[slot].Words()
	c.out.add(lo, hi, c.row(slot), c.firstRec(int(slot)), reason)
}

// Flush implements Cache: drains entries MRU-first.
func (c *fullLRU) Flush() {
	for slot := c.head; slot >= 0; slot = c.next[slot] {
		c.evict(slot, EvictFlush)
		c.stats.Flushed++
		delete(c.index, c.keys[slot])
		c.free = append(c.free, slot)
	}
	c.head, c.tail = -1, -1
	c.out.deliver()
}
