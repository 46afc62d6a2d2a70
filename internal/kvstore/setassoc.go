package kvstore

import (
	"encoding/binary"
	"math"

	"perfq/internal/fold"
	"perfq/internal/obs"
	"perfq/internal/packet"
	"perfq/internal/trace"
)

// setAssoc is the array-layout cache for n ≥ 2 buckets (Figure 4): slot
// storage is fixed; LRU order within a bucket is a tiny per-bucket
// permutation of slot indices, so promoting an entry moves one byte, not
// the state vectors.
type setAssoc struct {
	rowOps
	geom Geometry
	mask uint64
	ways int

	// tags hold the top hash byte per slot (the bucket index consumes
	// low bits), so a probe rejects non-matching slots on a one-byte
	// compare instead of a 16-byte key compare. Used when ways > 8.
	tags []uint8
	// vals is the slot storage, indexed by bucket*ways+slot: each slot
	// interleaves its key (two bit-cast words) and its row (see rowOps) —
	// stride = 2 + w words per slot. Key, state and product are always
	// touched together on a hit, so colocating them keeps the per-packet
	// probe and update on one cache line for small m.
	vals   []float64
	stride int

	// order[bucket*ways+i] = slot index of the i-th most recently used
	// entry of the bucket; only the first fill(bucket) entries are live.
	// Used when ways > 8.
	order []uint8
	fill  []uint8

	// Word-packed bucket metadata, used when ways ≤ 8 (the practical
	// geometries): byte i of metaOrd[b] is the slot id of the bucket's
	// i-th most recently used entry, byte s of metaTags[b] is slot s's
	// tag. A probe then touches two words and the one matching key
	// instead of walking three byte arrays, and an LRU promotion is a
	// shift-and-mask instead of a byte-slice rotate.
	packed8  bool
	metaOrd  []uint64
	metaTags []uint64

	stats Stats

	// Sampled tracing. trMask is obs.NoSample when tracing is off, so
	// the per-access guard (h&trMask == 0) needs no nil branch and costs
	// both the traced and untraced builds the same AND+compare.
	tr     *obs.Tracer
	trMask uint64
	trSlot *obs.SpanSlot
	trW    int

	resident int

	out evictOut // last: the batch is kilobytes, and the fields above are the per-packet ones
}

func newSetAssoc(cfg Config, g Geometry) *setAssoc {
	c := &setAssoc{
		geom:   g,
		mask:   uint64(g.Buckets - 1),
		ways:   g.Ways,
		fill:   make([]uint8, g.Buckets),
		tr:     cfg.Trace,
		trMask: cfg.Trace.HashMask(),
		trSlot: cfg.TraceSpan,
		trW:    cfg.TraceWriter,
	}
	c.rowOps.init(&cfg, g.Buckets*g.Ways)
	c.out.init(&cfg, &c.rowOps)
	c.stride = 2 + c.w
	c.vals = make([]float64, g.Buckets*g.Ways*c.stride)
	if g.Ways <= 8 {
		c.packed8 = true
		c.metaOrd = make([]uint64, g.Buckets)
		c.metaTags = make([]uint64, g.Buckets)
	} else {
		c.tags = make([]uint8, g.Buckets*g.Ways)
		c.order = make([]uint8, g.Buckets*g.Ways)
	}
	return c
}

func (c *setAssoc) Geometry() Geometry { return c.geom }
func (c *setAssoc) Len() int           { return c.resident }
func (c *setAssoc) Stats() Stats       { return c.stats }

// keyWords splits a key into the two bit-cast lanes of a slot record.
func keyWords(key packet.Key128) (k0, k1 float64) {
	return math.Float64frombits(binary.LittleEndian.Uint64(key[0:8])),
		math.Float64frombits(binary.LittleEndian.Uint64(key[8:16]))
}

// Process implements Cache.
func (c *setAssoc) Process(key packet.Key128, in *fold.Input) bool {
	inserted := c.process(key, key.Hash(), in, nil)
	c.out.deliver()
	return inserted
}

// process is Process with the key's hash and the record's coefficients
// (see rowOps.update) supplied by the caller.
func (c *setAssoc) process(key packet.Key128, h uint64, in *fold.Input, coefs []float64) bool {
	if c.packed8 {
		return c.process8(key, h, in, coefs)
	}
	c.stats.Accesses++
	b := int(h & c.mask)
	tag := uint8(h >> 56)
	base := b * c.ways
	n := int(c.fill[b])
	ord := c.order[base : base+c.ways]

	k0 := binary.LittleEndian.Uint64(key[0:8])
	k1 := binary.LittleEndian.Uint64(key[8:16])

	// Hit path: scan the bucket in recency order. Key lanes compare as
	// bit patterns — float == would treat NaN lanes as unequal and ±0
	// lanes as equal.
	for i := 0; i < n; i++ {
		slot := base + int(ord[i])
		off := slot * c.stride
		if c.tags[slot] == tag &&
			math.Float64bits(c.vals[off]) == k0 &&
			math.Float64bits(c.vals[off+1]) == k1 {
			c.stats.Hits++
			c.update(c.vals[off+2:off+c.stride], in, coefs)
			// Promote to MRU: rotate ord[0..i] right by one. An explicit
			// byte loop rather than copy(): the span is at most ways-1
			// bytes and this runs once per packet, so the memmove call
			// overhead dominates the move itself.
			mru := ord[i]
			for j := i; j > 0; j-- {
				ord[j] = ord[j-1]
			}
			ord[0] = mru
			if h&c.trMask == 0 {
				traceCacheHop(c.tr, c.trSlot, c.trW, key, false)
			}
			return false
		}
	}

	// Miss path: pick a slot — a free one, else the bucket's LRU victim.
	var slotIdx uint8
	if n < c.ways {
		// Free slots are exactly the order entries beyond fill; slot ids
		// 0..ways-1 each appear once in ord by invariant, so take the one
		// at position n (initialized lazily below).
		slotIdx = c.freeSlot(b, n)
		c.fill[b]++
		c.resident++
	} else {
		slotIdx = ord[n-1]
		c.evict(base+int(slotIdx), EvictCapacity)
		c.stats.Evictions++
	}
	c.insertSlot(base+int(slotIdx), key, tag, in, coefs)
	c.stats.Inserts++
	// Promote the new entry to MRU.
	if n >= c.ways {
		n = c.ways - 1
	}
	copy(ord[1:n+1], ord[0:n])
	ord[0] = slotIdx
	if h&c.trMask == 0 {
		traceCacheHop(c.tr, c.trSlot, c.trW, key, true)
	}
	return true
}

// ProcessBlock implements Cache: one dispatch for a block of packets.
func (c *setAssoc) ProcessBlock(keys []packet.Key128, hashes []uint64, recs []trace.Record, mask uint64, coefs []float64) uint64 {
	var inserted uint64
	in := &c.in
	for m := mask; m != 0; m &= m - 1 {
		l := tz64(m)
		in.Rec = &recs[l]
		var lane []float64
		if coefs != nil {
			lane = coefs[l:]
		}
		var miss bool
		if c.packed8 {
			miss = c.process8(keys[l], hashes[l], in, lane)
		} else {
			miss = c.process(keys[l], hashes[l], in, lane)
		}
		if miss {
			inserted |= 1 << l
		}
	}
	c.out.deliver()
	return inserted
}

// process8 is process for the word-packed metadata layout (ways ≤ 8).
// Identical cache behavior — same probe order, same LRU discipline —
// with the bucket's recency permutation and tag bytes each held in one
// uint64.
func (c *setAssoc) process8(key packet.Key128, h uint64, in *fold.Input, coefs []float64) bool {
	c.stats.Accesses++
	b := int(h & c.mask)
	tag := uint8(h >> 56)
	base := b * c.ways
	n := int(c.fill[b])
	ordW := c.metaOrd[b]
	tagW := c.metaTags[b]

	k0 := binary.LittleEndian.Uint64(key[0:8])
	k1 := binary.LittleEndian.Uint64(key[8:16])

	// Hit path: probe in recency order; a probe compares one tag byte
	// and touches the full key (as bit patterns) only on a tag match.
	for i := 0; i < n; i++ {
		slotIdx := uint8(ordW >> (8 * uint(i)))
		if uint8(tagW>>(8*slotIdx)) != tag {
			continue
		}
		slot := base + int(slotIdx)
		off := slot * c.stride
		if math.Float64bits(c.vals[off]) != k0 || math.Float64bits(c.vals[off+1]) != k1 {
			continue
		}
		c.stats.Hits++
		c.update(c.vals[off+2:off+c.stride], in, coefs)
		if i > 0 {
			// Promote to MRU: shift recency bytes 0..i-1 up one lane and
			// drop this slot's byte into lane 0.
			low := ordW & (uint64(1)<<(8*uint(i)) - 1)
			high := ordW &^ (uint64(1)<<(8*uint(i+1)) - 1)
			c.metaOrd[b] = high | low<<8 | uint64(slotIdx)
		}
		if h&c.trMask == 0 {
			traceCacheHop(c.tr, c.trSlot, c.trW, key, false)
		}
		return false
	}

	// Miss path: pick a slot — a free one, else the bucket's LRU victim.
	var slotIdx uint8
	pos := n // recency lane the chosen slot currently occupies
	if n < c.ways {
		if n == 0 {
			ordW = 0x0706050403020100 // identity permutation
		}
		slotIdx = uint8(ordW >> (8 * uint(n)))
		c.fill[b]++
		c.resident++
	} else {
		pos = n - 1
		slotIdx = uint8(ordW >> (8 * uint(pos)))
		c.evict(base+int(slotIdx), EvictCapacity)
		c.stats.Evictions++
	}
	low := ordW & (uint64(1)<<(8*uint(pos)) - 1)
	high := ordW &^ (uint64(1)<<(8*uint(pos+1)) - 1)
	c.metaOrd[b] = high | low<<8 | uint64(slotIdx)
	sh := 8 * uint(slotIdx)
	c.metaTags[b] = tagW&^(uint64(0xff)<<sh) | uint64(tag)<<sh
	c.insertSlot(base+int(slotIdx), key, tag, in, coefs)
	c.stats.Inserts++
	if h&c.trMask == 0 {
		traceCacheHop(c.tr, c.trSlot, c.trW, key, true)
	}
	return true
}

// freeSlot returns a slot id not currently used by the bucket. Order
// entries are maintained as a permutation of 0..ways-1 once initialized;
// before first fill they are zero, so initialize on demand.
func (c *setAssoc) freeSlot(b, n int) uint8 {
	base := b * c.ways
	ord := c.order[base : base+c.ways]
	if n == 0 {
		// Lazily establish the identity permutation.
		for i := range ord {
			ord[i] = uint8(i)
		}
		return 0
	}
	return ord[n]
}

// insertSlot claims a slot for a new key and applies its first packet.
func (c *setAssoc) insertSlot(slot int, key packet.Key128, tag uint8, in *fold.Input, coefs []float64) {
	off := slot * c.stride
	c.vals[off], c.vals[off+1] = keyWords(key)
	if c.tags != nil {
		c.tags[slot] = tag // packed8 keeps tags in metaTags instead
	}
	c.insert(c.vals[off+2:off+c.stride], slot, in, coefs)
}

// evict appends slot's entry to the outgoing batch. Key lanes leave as
// the bit patterns they were stored as (Go does not canonicalize NaNs on
// float64 moves), so the key is exact.
func (c *setAssoc) evict(slot int, reason EvictReason) {
	if !c.out.on {
		return
	}
	off := slot * c.stride
	c.out.add(math.Float64bits(c.vals[off]), math.Float64bits(c.vals[off+1]),
		c.vals[off+2:off+c.stride], c.firstRec(slot), reason)
}

// Flush implements Cache: evicts every resident entry bucket by bucket in
// recency order, as views of slot memory — nothing is inserted while the
// batches are out, so the slots hold.
func (c *setAssoc) Flush() {
	for b := 0; b < c.geom.Buckets; b++ {
		base := b * c.ways
		n := int(c.fill[b])
		for i := 0; i < n; i++ {
			var slotIdx uint8
			if c.packed8 {
				slotIdx = uint8(c.metaOrd[b] >> (8 * uint(i)))
			} else {
				slotIdx = c.order[base+i]
			}
			c.evict(base+int(slotIdx), EvictFlush)
			c.stats.Flushed++
		}
		c.fill[b] = 0
	}
	c.resident = 0
	c.out.deliver()
}
