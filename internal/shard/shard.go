// Package shard implements the partitioned parallel transport under the
// datapath: it hash-partitions a record stream by grouping key across N
// workers, each of which owns an independent slice of per-program state
// (cache + backing store). Because every record of a given key is routed
// to the same worker, per-shard result tables are disjoint and the merged
// output is a plain concatenation — sharding is invisible in the final
// sorted tables. One level above the key hash sits an optional partition
// (Config.Partition; the fabric's record → switch map): each partition is
// its own routing domain of N shards, so K partitions are one flat array
// of K·N workers behind one feeder.
//
// A plan can hold several switch programs with different GROUPBY keys, so
// one record may belong to different shards for different programs. The
// router therefore computes one shard index per key group and delivers
// the record to each chosen shard tagged with a bitmask of the targets
// that shard owns for it. Order-insensitive targets (plain SELECTs over
// T, whose output is a multiset that is sorted at materialization) carry
// no key and are spread round-robin for load balance.
//
// The unit of routing is the block: a run of up to fold.BlockSize records
// for which the router resolves the partition per lane, packs and hashes
// each distinct key group once, and appends record, key(s), hash(es) and
// target mask straight into the destination worker's ring slot as
// parallel columns. The worker runs the datapath's block loop on that
// slot memory in place, so between the feeder's one copy into the slot
// and the cache probe nothing is copied, packed or hashed again. Slots
// move through bounded per-worker SPSC rings (DefaultBatch records per
// slot), which keeps the synchronization cost per record a fraction of
// two atomic counter updates. A single feeder preserves arrival order
// within each shard, which keeps per-key update order — and therefore
// every fold's state trajectory — identical to the serial datapath.
package shard

import (
	"math/bits"
	"sync/atomic"

	"perfq/internal/fold"
	"perfq/internal/obs"
	"perfq/internal/packet"
	"perfq/internal/trace"
)

// DefaultBatch is the number of records per ring slot: four blocks. A
// slot is 20 KiB of records plus, on a multi-shard ring, 24 bytes of key
// and hash per key group and lane (26 KiB for one group), so a ring's
// eight slots stay within a core's L2 while a slot is consumed in place;
// 256 lanes amortize the publish/park synchronization to well under a
// nanosecond per record. BenchmarkWorkersTransport sweeps it.
const DefaultBatch = 256

// MaxTargets bounds the number of routing targets (bits in a lane's mask).
const MaxTargets = 64

// KeyFunc extracts the partition key one target groups records by.
type KeyFunc func(*trace.Record) packet.Key128

// ProcessFunc consumes one routed record on its shard's goroutine (the
// feeder's, for an inline pool) — the per-record form of BlockFunc, which
// NewPool adapts with a lane loop. shard is the flat worker index
// (partition × Shards + shard within the partition); mask has bit t set
// when this shard owns target t for this record. It is called from
// exactly one goroutine per shard value.
type ProcessFunc func(shard int, rec *trace.Record, mask uint64)

// Block is a run of routed records as one shard consumes it. Its memory
// belongs to the pool (a ring slot, the router's scratch, or the caller's
// own slice on the inline path) and is valid only during the call.
type Block struct {
	// Recs holds the block's 1..fold.BlockSize records in arrival order.
	Recs []trace.Record
	// Lanes has bit l set when the shard applies Recs[l]; the other lanes
	// belong to other shards (inline pool) or to a neighbouring call (a
	// sampled record is split off as a block of one).
	Lanes uint64
	// Masks, per lane, has bit t set when the shard owns target t for the
	// record. nil means every target of every lane in Lanes.
	Masks []uint64
	// Keys and Hashes hold, per key group (Config.Keys order) and lane,
	// the packed key the router routed by and its Hash(). nil when the
	// router packed nothing: a one-shard partition.
	Keys   [][]packet.Key128
	Hashes [][]uint64
	// Holder and Seq identify the block of records across its deliveries
	// (one per shard that owns lanes of it, a sampled lane on its own), so a
	// consumer can prepare something once per block: Holder is the ring
	// worker's flat index, or the worker count for the block the feeder
	// applies inline, and Seq changes whenever Recs is re-pointed.
	Holder int
	Seq    uint64

	all uint64 // Mask's answer when Masks is nil
}

// Mask returns the targets the shard owns for lane l.
func (b *Block) Mask(l int) uint64 {
	if b.Masks == nil {
		return b.all
	}
	return b.Masks[l]
}

// BlockFunc consumes one routed block on its shard's goroutine (the
// feeder's, for an inline pool). shard is the flat worker index. It is
// called from exactly one goroutine per shard value, blocks of one shard
// in arrival order.
type BlockFunc func(shard int, b *Block)

// Blocks adapts a per-record consumer to the block entry: a lane loop.
func (f ProcessFunc) Blocks() BlockFunc {
	return func(shard int, b *Block) {
		for m := b.Lanes; m != 0; m &= m - 1 {
			l := bits.TrailingZeros64(m)
			f(shard, &b.Recs[l], b.Mask(l))
		}
	}
}

// Partition is the routing level above the key hash: N independent
// routing domains and the map from a record to its domain.
type Partition struct {
	// N is the number of partitions; values < 1 mean 1.
	N int
	// Of returns the record's partition in [0, N), or -1 for a record
	// that belongs to none (the router counts it; nothing processes it).
	// nil places every record in partition 0.
	Of func(*trace.Record) int
}

// Config describes a routing domain.
type Config struct {
	// Shards is the worker count of each partition; values < 1 mean 1.
	Shards int
	// Keys lists the distinct partition-key extractors. Targets that
	// group by the same key share one entry, so each record's key (and
	// its hash) is computed once per distinct key, not once per target.
	// A nil entry is the flow five-tuple (Record.FiveTupleKey), which the
	// router packs inline instead of through a call per record.
	Keys []KeyFunc
	// Targets maps each key-partitioned target t (mask bit t) to its
	// entry in Keys. nil means the identity mapping: target t partitions
	// by Keys[t].
	Targets []int
	// FreeMask is OR-ed into one round-robin-chosen shard's mask for
	// every record — the bits of order-insensitive targets.
	FreeMask uint64
	// Partition splits the stream above the key hash; the zero value is
	// one partition holding every record.
	Partition Partition

	// Obs, when non-nil, instruments the ring transport with one set per
	// partition, each sized for Shards workers: batch-size histogram,
	// park/wake counts. Nil means fully uninstrumented (one nil branch
	// per batch).
	Obs []*obs.TransportMetrics
	// AfterBatch, when non-nil, runs on the worker goroutine after each
	// consumed slot — the datapath's hook for publishing its plain
	// per-shard counters into atomic mirrors at batch granularity.
	AfterBatch func(worker int)

	// Trace, when non-nil, samples records at the router: a record
	// whose partition-key hash is selected begins a span (HopRoute) that
	// rides its slot through the transport. The router already hashes
	// every key, so the sampling test is one AND+compare per key group.
	Trace *obs.Tracer
	// SpanSlots, when tracing, are the per-worker mailboxes the pool
	// parks the in-flight record's span in so downstream consumers on the
	// same goroutine (the shard's caches) can append to it. Sized for
	// every worker (Partition.N × Shards); nil disables tracing.
	SpanSlots []*obs.SpanSlot
}

// Index maps a partition key to a shard in [0, n). The key's Hash is
// re-avalanched with a distinct finalizer so the shard index stays
// independent of the cache's bucket index, which consumes the low bits
// of the same hash (correlated bits would confine each shard's keys to
// 1/n of its cache buckets).
func Index(key packet.Key128, n int) int {
	return indexHash(key.Hash(), n)
}

// indexHash is Index's finalizer on an already-computed key hash. The
// re-avalanched hash is scaled into [0, n) by the high word of a 64×64
// multiply — no divide on the feeder's per-key path.
func indexHash(h uint64, n int) int {
	if n <= 1 {
		return 0
	}
	h ^= h >> 31
	h *= 0x94d049bb133111eb
	h ^= h >> 28
	hi, _ := bits.Mul64(h, uint64(n))
	return int(hi)
}

// router resolves, a block at a time, each record's partition and that
// partition's per-shard target masks — the one routing algorithm under
// Pool, ring workers or inline. Not goroutine-safe: it belongs to the
// pool's feeder.
type router struct {
	n     int // shards per partition
	part  func(*trace.Record) int
	keys  []KeyFunc
	gbits []uint64 // per key group: the bits of the targets that partition by it
	all   uint64   // every target's bit: the mask of a one-shard partition
	free  uint64
	rr    int
	// single: n > 1 with one key group and no free targets — a record has
	// exactly one owner, which owns every target, so no masks are kept.
	single bool

	routed   []uint64 // records routed, per partition
	unrouted uint64

	// Sampling: trMask is obs.NoSample when no tracer is attached.
	tr     *obs.Tracer
	trMask uint64

	// The routed block, valid until the next one: per lane its partition
	// (partitioned pools), per key group and lane the packed key, its
	// hash and the shard it selects (n > 1), and the sampled lanes.
	lpart [fold.BlockSize]int32
	bkeys [][]packet.Key128
	bhash [][]uint64
	bidx  [][]int32
	spans []laneSpan
	m     []uint64 // the lane in hand: its target mask at each shard

	// Inline delivery gathers lanes per worker instead of appending them
	// to ring slots: the lanes each worker owns in this block, the workers
	// touched (in first-lane order), and per shard and lane the mask (nil
	// when a lane has one owner, which owns every target).
	wlanes  []uint64
	touched []int
	lmask   [][]uint64
}

func newRouter(cfg Config) *router {
	targets := cfg.Targets
	if targets == nil {
		targets = make([]int, len(cfg.Keys))
		for t := range targets {
			targets[t] = t
		}
	}
	k := max(cfg.Partition.N, 1)
	r := &router{
		n:      max(cfg.Shards, 1),
		part:   cfg.Partition.Of,
		keys:   cfg.Keys,
		gbits:  make([]uint64, len(cfg.Keys)),
		all:    cfg.FreeMask,
		free:   cfg.FreeMask,
		routed: make([]uint64, k),
		tr:     cfg.Trace,
		trMask: cfg.Trace.HashMask(),
	}
	for t, g := range targets {
		r.gbits[g] |= 1 << uint(t)
		r.all |= 1 << uint(t)
	}
	r.wlanes = make([]uint64, k*r.n)
	if r.n > 1 {
		r.single = len(r.keys) == 1 && r.free == 0
		r.m = make([]uint64, r.n)
		r.bkeys = make([][]packet.Key128, len(r.keys))
		r.bhash = make([][]uint64, len(r.keys))
		r.bidx = make([][]int32, len(r.keys))
		for g := range r.keys {
			r.bkeys[g] = make([]packet.Key128, fold.BlockSize)
			r.bhash[g] = make([]uint64, fold.BlockSize)
			r.bidx[g] = make([]int32, fold.BlockSize)
		}
		if !r.single {
			r.lmask = make([][]uint64, r.n)
			for s := range r.lmask {
				r.lmask[s] = make([]uint64, fold.BlockSize)
			}
		}
	}
	return r
}

// columns names what a ring slot carries for this router: nothing but
// records on a one-shard partition, a key and hash column per group
// otherwise, and masks when a record can have more than one owner.
func (r *router) columns() columns {
	if r.n == 1 {
		return columns{}
	}
	return columns{groups: len(r.keys), masks: !r.single}
}

// resolve routes one block of 1..fold.BlockSize records as far as the
// columns: each lane's partition (counted; -1 lanes go nowhere), and for
// a partition of n > 1 shards every key group's packed key, hash and
// shard index — one extraction and one hash per distinct key and lane. A
// partition of one shard owns every target, so nothing is packed or
// hashed for it: per-record feeder work does not grow with the number of
// partitions.
//
// With a tracer attached resolve also begins the span of each sampled
// lane — sampled on the first selected group key, whose hash it computed
// anyway, or on the five-tuple when a one-shard partition packed none.
func (r *router) resolve(recs []trace.Record) {
	for l := range recs {
		r.lpart[l] = int32(r.claim(&recs[l]))
	}
	for g, keys := range r.bkeys {
		keys, hashes, idx := keys[:len(recs)], r.bhash[g][:len(recs)], r.bidx[g][:len(recs)]
		if of := r.keys[g]; of == nil {
			for l := range keys {
				lo, hi := recs[l].FiveTupleWords() // all three inline
				keys[l].SetWords(lo, hi)
				hashes[l] = packet.HashWords(lo, hi)
			}
		} else {
			for l := range keys {
				keys[l] = of(&recs[l])
				hashes[l] = keys[l].Hash()
			}
		}
		for l, h := range hashes {
			idx[l] = int32(indexHash(h, r.n))
		}
	}
	if r.tr != nil {
		r.sample(recs)
	}
}

// claim resolves and counts rec's partition: -1 for a record none owns.
func (r *router) claim(rec *trace.Record) (part int) {
	if r.part != nil {
		if part = r.part(rec); part < 0 {
			r.unrouted++
			return part
		}
	}
	r.routed[part]++
	return part
}

// begin starts the span of a sampled record: lane is where it sits in the
// block or slot it rides.
func (r *router) begin(lane, part int, key packet.Key128) laneSpan {
	return laneSpan{lane, r.tr.Begin(part, key, obs.HopRoute, obs.OutcomeOK)}
}

// sample begins the span of every sampled lane of the resolved block.
func (r *router) sample(recs []trace.Record) {
	r.spans = r.spans[:0]
	for l := range recs {
		part := int(r.lpart[l])
		if part < 0 {
			continue
		}
		if r.n == 1 {
			if key := recs[l].FiveTupleKey(); key.Hash()&r.trMask == 0 {
				r.spans = append(r.spans, r.begin(l, part, key))
			}
			continue
		}
		for g := range r.bhash {
			if r.bhash[g][l]&r.trMask == 0 {
				r.spans = append(r.spans, r.begin(l, part, r.bkeys[g][l]))
				break
			}
		}
	}
}

// base returns the first worker of lane l's partition, and ok = false for
// a lane no partition claims.
func (r *router) base(l int) (worker int, ok bool) {
	p := int(r.lpart[l])
	return p * r.n, p >= 0
}

// spread fills r.m with lane l's target mask at each of its partition's
// n > 1 shards. Free targets advance the round-robin cursor, so spread
// each lane exactly once.
func (r *router) spread(l int) {
	clear(r.m)
	for g, idx := range r.bidx {
		r.m[idx[l]] |= r.gbits[g]
	}
	if r.free != 0 {
		r.m[r.rr] |= r.free
		if r.rr++; r.rr == r.n {
			r.rr = 0
		}
	}
}

// Pool routes records from a single feeder to the shards that own them:
// through per-shard worker goroutines once started (NewPool, Start — a
// Workers transport the router fills), or straight onto the feeder's own
// goroutine (NewInline — same routing, same per-shard arrival order, no
// transport; what a host without a second processor should run). Feed,
// FeedRun, Start, Barrier and Close must be called from one goroutine.
type Pool struct {
	router  *router
	workers atomic.Pointer[Workers] // nil: inline
	cfg     Config
	run     BlockFunc
	blocks  []Block // per worker: the block its ring worker hands to run
	inl     Block   // the inline pool's

	// pend is Feed's pending block: the per-record entry stages here and
	// the block goes through the router when it fills.
	pend []trace.Record
}

// NewInline builds a pool with no workers: every block is applied on the
// calling goroutine, in place, once per shard that owns lanes of it.
func NewInline(cfg Config, run BlockFunc) *Pool {
	if cfg.SpanSlots == nil {
		cfg.Trace = nil
	}
	r := newRouter(cfg)
	p := &Pool{router: r, cfg: cfg, run: run, inl: Block{all: r.all, Holder: len(r.wlanes)}}
	if r.n > 1 {
		p.inl.Keys, p.inl.Hashes = r.bkeys, r.bhash
	}
	return p
}

// NewPool starts one worker goroutine per shard of every partition and
// hands each of its routed records to process — the per-record adapter
// over the block entry: Feed's pending block in, a lane loop out.
func NewPool(cfg Config, process ProcessFunc) *Pool {
	p := NewInline(cfg, process.Blocks())
	p.Start()
	return p
}

// Start moves the pool onto ring workers: one goroutine per shard of
// every partition, each consuming its ring's slots in place through the
// pool's BlockFunc. What Feed has pending is routed first, so per-shard
// arrival order carries across. No-op on a pool already started.
func (p *Pool) Start() {
	if p.workers.Load() != nil {
		return
	}
	p.flush()
	r := p.router
	cols := r.columns()
	if p.blocks == nil {
		p.blocks = make([]Block, len(r.wlanes))
		for w := range p.blocks {
			b := &p.blocks[w]
			b.all, b.Holder = r.all, w
			if cols.groups > 0 {
				b.Keys = make([][]packet.Key128, cols.groups)
				b.Hashes = make([][]uint64, cols.groups)
			}
		}
	}
	p.workers.Store(NewWorkers(len(r.wlanes), DefaultBatch, cols, p.cfg.Obs, p.consume))
}

// Running reports whether the pool is on ring workers.
func (p *Pool) Running() bool { return p.workers.Load() != nil }

// consume is the worker side of the transport: one slot, in ring order,
// fold.BlockSize lanes at a time, on the slot's own memory.
func (p *Pool) consume(worker int, s *slot) {
	b := &p.blocks[worker]
	spans := s.spans
	for base := 0; base < s.n; base += fold.BlockSize {
		end := min(base+fold.BlockSize, s.n)
		b.Recs = s.recs[base:end]
		b.Seq++
		b.Lanes = ^uint64(0) >> (fold.BlockSize - uint(end-base))
		if s.masks != nil {
			b.Masks = s.masks[base:end]
		}
		for g := range s.keys {
			b.Keys[g], b.Hashes[g] = s.keys[g][base:end], s.hashes[g][base:end]
		}
		k := 0
		for k < len(spans) && spans[k].lane < end {
			k++
		}
		p.deliver(worker, b, spans[:k], base, s.n)
		spans = spans[k:]
	}
	if p.cfg.AfterBatch != nil {
		p.cfg.AfterBatch(worker)
	}
}

// deliver applies one block on its shard — the one delivery step of ring
// workers and the inline pool alike. spans lists the block's sampled
// lanes (offset by base, ascending; lanes the shard does not own are
// skipped): each is split off as a block of one, behind the lanes before
// it, with its span given its transport hop (arg = the batch it
// travelled in, 1 inline) and parked in the shard's mailbox around the
// call — so the hops run records downstream land on it and on no other
// record.
func (p *Pool) deliver(worker int, b *Block, spans []laneSpan, base, batch int) {
	lanes := b.Lanes
	for _, sp := range spans {
		bit := uint64(1) << uint(sp.lane-base)
		if lanes&bit == 0 {
			continue
		}
		if b.Lanes = lanes & (bit - 1); b.Lanes != 0 {
			p.run(worker, b)
		}
		sp.ref.Hop(obs.HopTransport, obs.OutcomeOK, uint64(batch))
		p.cfg.SpanSlots[worker].Ref = sp.ref
		b.Lanes = bit
		p.run(worker, b)
		p.cfg.SpanSlots[worker].Ref = obs.SpanRef{}
		lanes &^= bit<<1 - 1
	}
	if b.Lanes = lanes; lanes != 0 {
		p.run(worker, b)
	}
}

// Occupancy is one partition's current ring backlog in slots (racy
// gauge; 0 for an inline pool). Safe from any goroutine.
func (p *Pool) Occupancy(part int) int {
	w := p.workers.Load()
	if w == nil {
		return 0
	}
	return w.Occupancy(part*p.router.n, (part+1)*p.router.n)
}

// Routed returns the per-partition counts of records routed so far. The
// slice is the router's own: read it on the feeder's goroutine.
func (p *Pool) Routed() []uint64 { return p.router.routed }

// Unrouted returns how many records no partition claimed.
func (p *Pool) Unrouted() uint64 { return p.router.unrouted }

// Fed returns how many records have been routed to a partition so far.
func (p *Pool) Fed() uint64 {
	var n uint64
	for _, c := range p.router.routed {
		n += c
	}
	return n
}

// Feed routes one record — the per-record entry, a thin adapter over
// FeedRun: the record is copied into a pending block, which is routed
// when it fills and at the next FeedRun, Start, Barrier or Close.
func (p *Pool) Feed(rec *trace.Record) {
	if p.pend == nil {
		p.pend = make([]trace.Record, 0, fold.BlockSize)
	}
	if p.pend = append(p.pend, *rec); len(p.pend) == cap(p.pend) {
		p.flush()
	}
}

// flush routes Feed's pending block.
func (p *Pool) flush() {
	if n := len(p.pend); n > 0 {
		p.pend = p.pend[:0]
		p.route(p.pend[:n])
	}
}

// FeedRun routes a run of records, a block at a time: each record is
// appended — with the keys, hashes and mask the router computed for it —
// to the ring slot of every shard of its partition that owns a target
// for it (inline: the block is applied there and then, in place, once
// per owning shard under that shard's lanes). A record no partition
// claims goes nowhere and is counted by Unrouted. The pool keeps nothing
// of recs after returning.
func (p *Pool) FeedRun(recs []trace.Record) {
	p.flush()
	for ; len(recs) > fold.BlockSize; recs = recs[fold.BlockSize:] {
		p.route(recs[:fold.BlockSize])
	}
	if len(recs) > 0 {
		p.route(recs)
	}
}

// route delivers one block of 1..fold.BlockSize records.
func (p *Pool) route(recs []trace.Record) {
	r := p.router
	w := p.workers.Load()
	if w != nil && (r.n == 1 || r.single) {
		p.fillOwned(w, recs)
		return
	}
	r.resolve(recs)
	if w != nil {
		p.fill(w, recs)
	} else {
		p.apply(recs)
	}
}

// fillOwned is the ring path of a pool whose every record has exactly one
// owner — a one-shard partition's only worker, or the shard one key group
// selects when there is no free target. The destination slot is known as
// soon as the key is hashed, so the lane goes there in one pass: partition,
// key words, hash, shard, then record, key and hash written straight into
// the slot's columns — no column scratch in between, and nothing packed
// at all for a one-shard partition.
func (p *Pool) fillOwned(w *Workers, recs []trace.Record) {
	r := p.router
	for l := range recs {
		rec := &recs[l]
		part := r.claim(rec)
		if part < 0 {
			continue
		}
		if !r.single {
			rg := w.rings[part]
			s, i := rg.lane()
			s.recs[i] = *rec
			if r.tr != nil {
				if key := rec.FiveTupleKey(); key.Hash()&r.trMask == 0 {
					s.spans = append(s.spans, r.begin(i, part, key))
				}
			}
			rg.commit()
			continue
		}
		var lo, hi uint64
		if of := r.keys[0]; of == nil {
			lo, hi = rec.FiveTupleWords() // inlines
		} else {
			key := of(rec)
			lo, hi = key.Words()
		}
		h := packet.HashWords(lo, hi)
		rg := w.rings[part*r.n+indexHash(h, r.n)]
		s, i := rg.lane()
		s.recs[i] = *rec
		s.keys[0][i].SetWords(lo, hi)
		s.hashes[0][i] = h
		if h&r.trMask == 0 && r.tr != nil {
			s.spans = append(s.spans, r.begin(i, part, s.keys[0][i]))
		}
		rg.commit()
	}
}

// fill appends the resolved block to the ring slots, lane by lane, each
// lane to every shard of its partition that owns a target for it.
func (p *Pool) fill(w *Workers, recs []trace.Record) {
	r := p.router
	spans := r.spans
	for l := range recs {
		base, ok := r.base(l)
		if !ok {
			continue
		}
		var span obs.SpanRef
		if len(spans) > 0 && spans[0].lane == l {
			span, spans = spans[0].ref, spans[1:]
		}
		r.spread(l)
		for s, m := range r.m {
			if m != 0 {
				r.put(w.rings[base+s], &recs[l], l, m, span)
			}
		}
	}
}

// put copies lane l of the resolved block into the next lane of a ring
// slot: the record, every group's key and hash, and the mask. Slot memory
// is ring-owned and reused in place, so the steady state allocates
// nothing.
func (r *router) put(rg *ring, rec *trace.Record, l int, mask uint64, span obs.SpanRef) {
	s, i := rg.lane()
	s.recs[i] = *rec
	for g := range s.keys {
		s.keys[g][i], s.hashes[g][i] = r.bkeys[g][l], r.bhash[g][l]
	}
	s.masks[i] = mask
	if span.Live() {
		s.spans = append(s.spans, laneSpan{i, span})
	}
	rg.commit()
}

// apply runs the resolved block on the feeder: it gathers each worker's
// lanes, then applies the caller's block in place once per worker under
// those lanes — a transport batch of 1.
func (p *Pool) apply(recs []trace.Record) {
	r := p.router
	for l := range recs {
		base, ok := r.base(l)
		if !ok {
			continue
		}
		switch {
		case r.n == 1:
			r.own(base, l)
		case r.single:
			r.own(base+int(r.bidx[0][l]), l)
		default:
			r.spread(l)
			for s, m := range r.m {
				if m != 0 {
					r.lmask[s][l] = m
					r.own(base+s, l)
				}
			}
		}
	}
	b := &p.inl
	b.Recs = recs
	b.Seq++
	for _, w := range r.touched {
		if r.lmask != nil {
			b.Masks = r.lmask[w%r.n][:len(recs)]
		}
		b.Lanes, r.wlanes[w] = r.wlanes[w], 0
		p.deliver(w, b, r.spans, 0, 1)
	}
	r.touched = r.touched[:0]
}

// own adds lane l to worker's lanes of the block being applied.
func (r *router) own(worker, l int) {
	if r.wlanes[worker] == 0 {
		r.touched = append(r.touched, worker)
	}
	r.wlanes[worker] |= 1 << uint(l)
}

// Barrier routes what Feed has pending, flushes every partial slot and
// blocks until all records fed so far have been processed by their
// workers. The pool stays usable — this is the window-boundary
// synchronization of the epoch runtime: every worker must have applied
// window k's records before the caller flushes caches and materializes
// window k's tables.
func (p *Pool) Barrier() {
	p.flush()
	if w := p.workers.Load(); w != nil {
		w.Barrier()
	}
}

// Close routes what Feed has pending, flushes every partial slot, closes
// the rings and waits for all workers to drain. The pool is inline
// afterwards, until the next Start.
func (p *Pool) Close() {
	p.flush()
	if w := p.workers.Load(); w != nil {
		w.Close()
		p.workers.Store(nil)
	}
}
