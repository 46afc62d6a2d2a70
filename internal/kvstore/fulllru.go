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
	cfg       Config
	geom      Geometry
	cap       int
	m         int
	exact     bool
	needFirst bool // exact merge with history coefficients: snapshot pkt 1

	index map[packet.Key128]int32 // key -> slot

	keys  []packet.Key128
	state []float64
	prod  []float64
	first []trace.Record

	// Intrusive list over slots. head = MRU, tail = LRU, -1 = none.
	next []int32
	prev []int32
	head int32
	tail int32

	free []int32 // free slot stack

	stats    Stats
	aScratch []float64
	mScratch []float64
	ev       Eviction   // reused eviction payload (fields are borrowed anyway)
	blockIn  fold.Input // reused ProcessBlock input (a local would escape per call)

	// Sampled tracing (see setAssoc). The map-indexed LRU computes no
	// hash of its own, so sampled-access checks hash on demand — gated
	// on trMask so the untraced path pays one field compare.
	tr     *obs.Tracer
	trMask uint64
	trSlot *obs.SpanSlot
	trW    int
}

func newFullLRU(cfg Config) *fullLRU {
	capacity := cfg.Geometry.Ways
	m := cfg.Fold.StateLen()
	c := &fullLRU{
		cfg:    cfg,
		geom:   cfg.Geometry,
		cap:    capacity,
		m:      m,
		exact:  cfg.ExactMerge,
		index:  make(map[packet.Key128]int32, capacity),
		keys:   make([]packet.Key128, capacity),
		state:  make([]float64, capacity*m),
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
	if cfg.ExactMerge {
		c.needFirst = cfg.Fold.Linear.NeedsFirstPacket
		c.prod = make([]float64, capacity*m*m)
		if c.needFirst {
			c.first = make([]trace.Record, capacity)
		}
		c.aScratch = make([]float64, m*m)
		c.mScratch = make([]float64, m*m)
	}
	return c
}

func (c *fullLRU) Geometry() Geometry { return c.geom }
func (c *fullLRU) Len() int           { return len(c.index) }
func (c *fullLRU) Stats() Stats       { return c.stats }

func (c *fullLRU) slotState(slot int32) []float64 {
	return c.state[int(slot)*c.m : int(slot)*c.m+c.m]
}

func (c *fullLRU) slotProd(slot int32) []float64 {
	mm := c.m * c.m
	return c.prod[int(slot)*mm : int(slot)*mm+mm]
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
	return c.process(key, h, in)
}

// process is Process with the key's hash supplied by the caller; the map
// index hashes for itself, so h only drives the sampling test.
func (c *fullLRU) process(key packet.Key128, h uint64, in *fold.Input) bool {
	c.stats.Accesses++
	if slot, ok := c.index[key]; ok {
		c.stats.Hits++
		st := c.slotState(slot)
		if c.exact {
			c.cfg.Fold.Linear.UpdateLinear(st, c.slotProd(slot), in, c.aScratch, c.mScratch)
		} else {
			c.cfg.Fold.Update(st, in)
		}
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
		c.emit(slot, EvictCapacity)
		c.stats.Evictions++
		delete(c.index, c.keys[slot])
		c.unlink(slot)
	}

	c.keys[slot] = key
	c.index[key] = slot
	st := c.slotState(slot)
	c.cfg.Fold.Init(st)
	if c.exact {
		if c.needFirst {
			fold.IdentityP(c.slotProd(slot), c.m)
			c.first[slot] = *in.Rec
		} else {
			c.cfg.Fold.Linear.InitP(c.slotProd(slot), in, st)
		}
	}
	c.cfg.Fold.Update(st, in)
	c.pushFront(slot)
	c.stats.Inserts++
	if c.trMask != obs.NoSample && h&c.trMask == 0 {
		traceCacheHop(c.tr, c.trSlot, c.trW, key, true)
	}
	return true
}

// ProcessBlock implements Cache: one dispatch for a block of packets.
func (c *fullLRU) ProcessBlock(keys []packet.Key128, hashes []uint64, recs []trace.Record, mask uint64) uint64 {
	var inserted uint64
	in := &c.blockIn
	for m := mask; m != 0; m &= m - 1 {
		l := tz64(m)
		in.Rec = &recs[l]
		if c.process(keys[l], hashes[l], in) {
			inserted |= 1 << l
		}
	}
	return inserted
}

// emit delivers an eviction callback for slot, reusing the cache's
// scratch Eviction (the payload's slices are borrowed anyway).
func (c *fullLRU) emit(slot int32, reason EvictReason) {
	if c.cfg.OnEvict == nil {
		if c.trMask != obs.NoSample {
			if key := c.keys[slot]; key.Hash()&c.trMask == 0 {
				traceEvictSpan(c.tr, c.trW, key, reason)
			}
		}
		return
	}
	ev := &c.ev // set in place, see setAssoc.evict
	ev.Key = c.keys[slot]
	ev.State = c.slotState(slot)
	ev.Reason = reason
	if c.exact {
		ev.P = c.slotProd(slot)
		if c.needFirst {
			ev.FirstRec = &c.first[slot]
		}
	}
	ev.Span = obs.SpanRef{}
	if c.trMask != obs.NoSample && ev.Key.Hash()&c.trMask == 0 {
		ev.Span = traceEvictSpan(c.tr, c.trW, ev.Key, reason)
	}
	c.cfg.OnEvict(&c.ev)
}

// Flush implements Cache: drains entries MRU-first.
func (c *fullLRU) Flush() {
	for slot := c.head; slot >= 0; slot = c.next[slot] {
		c.emit(slot, EvictFlush)
		c.stats.Flushed++
		delete(c.index, c.keys[slot])
		c.free = append(c.free, slot)
	}
	c.head, c.tail = -1, -1
}
