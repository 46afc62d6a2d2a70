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
// router therefore computes one shard index per keyed target and delivers
// the record to each chosen shard tagged with a bitmask of the targets
// that shard owns for it. Order-insensitive targets (plain SELECTs over
// T, whose output is a multiset that is sorted at materialization) carry
// no key and are spread round-robin for load balance.
//
// Records move through bounded per-shard SPSC rings of batch slots
// (DefaultBatch records per slot) so the synchronization cost per
// record is a fraction of two atomic counter updates. A single
// feeder preserves arrival order within each shard, which keeps per-key
// update order — and therefore every fold's state trajectory — identical
// to the serial datapath.
package shard

import (
	"perfq/internal/obs"
	"perfq/internal/packet"
	"perfq/internal/trace"
)

// DefaultBatch is the number of records per ring slot. 256 amortizes
// the publish/park synchronization to well under a nanosecond per
// record while keeping per-shard buffering (batch × ringDepth × record
// size) within the L2 working set; BenchmarkWorkersTransport sweeps it.
const DefaultBatch = 256

// MaxTargets bounds the number of routing targets (bits in Item.Mask).
const MaxTargets = 64

// KeyFunc extracts the partition key one target groups records by.
type KeyFunc func(*trace.Record) packet.Key128

// ProcessFunc consumes one routed record on its shard's goroutine (the
// feeder's, for an inline pool). shard is the flat worker index
// (partition × Shards + shard within the partition); mask has bit t set
// when this shard owns target t for this record. It is called from
// exactly one goroutine per shard value.
type ProcessFunc func(shard int, rec *trace.Record, mask uint64)

// Item is one routed record with the targets its shard owns for it.
// Span is the record's trace span when the router sampled it (zero
// otherwise): the ring publish/consume edge orders the feeder's Begin
// before the worker's appends, so the ref rides the item without extra
// synchronization.
type Item struct {
	Rec  trace.Record
	Mask uint64
	Span obs.SpanRef
}

// Partition is the routing level above the key hash: N independent
// routing domains and the map from a record to its domain.
type Partition struct {
	// N is the number of partitions; values < 1 mean 1.
	N int
	// Of returns the record's partition in [0, N), or -1 for a record
	// that belongs to none (the router's caller counts it; nothing
	// processes it). nil places every record in partition 0.
	Of func(*trace.Record) int
}

// Config describes a routing domain.
type Config struct {
	// Shards is the worker count of each partition; values < 1 mean 1.
	Shards int
	// Keys lists the distinct partition-key extractors. Targets that
	// group by the same key share one entry, so each record's key (and
	// its hash) is computed once per distinct key, not once per target.
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
	// consumed batch — the datapath's hook for publishing its plain
	// per-shard counters into atomic mirrors at batch granularity.
	AfterBatch func(worker int)

	// Trace, when non-nil, samples records at the router: a record
	// whose partition-key hash is selected begins a span (HopRoute) that
	// rides its Item through the transport. The router already hashes
	// every key, so the sampling test is one AND+compare per key group.
	Trace *obs.Tracer
	// SpanSlots, when tracing, are the per-worker mailboxes the pool
	// parks the in-flight item's span in so downstream consumers on the
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

// indexHash is Index's finalizer on an already-computed key hash.
func indexHash(h uint64, n int) int {
	if n <= 1 {
		return 0
	}
	h ^= h >> 31
	h *= 0x94d049bb133111eb
	h ^= h >> 28
	return int(h % uint64(n))
}

// router computes, per record, its partition and that partition's
// per-shard target masks — the one routing algorithm under Pool, ring
// workers or inline. Not goroutine-safe: it belongs to the pool's feeder.
type router struct {
	n       int // shards per partition
	part    func(*trace.Record) int
	keys    []KeyFunc
	targets []int
	idx     []int  // per-key shard index scratch
	all     uint64 // every target's bit: the mask of a one-shard partition
	free    uint64
	rr      int

	// Sampling: trMask is obs.NoSample when no tracer is attached.
	tr     *obs.Tracer
	trMask uint64
}

func newRouter(cfg Config) *router {
	targets := cfg.Targets
	if targets == nil {
		targets = make([]int, len(cfg.Keys))
		for t := range targets {
			targets[t] = t
		}
	}
	r := &router{
		n:       max(cfg.Shards, 1),
		part:    cfg.Partition.Of,
		keys:    cfg.Keys,
		targets: targets,
		idx:     make([]int, len(cfg.Keys)),
		all:     cfg.FreeMask,
		free:    cfg.FreeMask,
		tr:      cfg.Trace,
		trMask:  cfg.Trace.HashMask(),
	}
	for t := range targets {
		r.all |= 1 << uint(t)
	}
	return r
}

// route resolves the record's partition (-1: none; masks are then left
// alone) and fills masks, which has length n, with the target bits of
// each of that partition's shards. A partition of one shard owns every
// target, so nothing is packed or hashed for it — per-record feeder work
// does not grow with the number of partitions.
//
// With a tracer attached, route also begins the span of a sampled record
// — sampled on the first selected group key, whose hash spread computes
// anyway, or on the five-tuple when a one-shard partition packed none.
func (r *router) route(rec *trace.Record, masks []uint64) (part int, span obs.SpanRef) {
	if r.part != nil {
		if part = r.part(rec); part < 0 {
			return part, span
		}
	}
	if r.n > 1 {
		return part, r.spread(rec, masks, part)
	}
	masks[0] = r.all
	if r.tr != nil {
		if key := rec.FlowKey().Pack(); key.Hash()&r.trMask == 0 {
			span = r.tr.Begin(part, key, obs.HopRoute, obs.OutcomeOK)
		}
	}
	return part, span
}

// spread hash-partitions one record across a partition's n > 1 shards:
// one key extraction + hash per distinct key, then a mask update per
// target. Free targets advance the round-robin cursor, so spread each
// record exactly once.
func (r *router) spread(rec *trace.Record, masks []uint64, part int) (span obs.SpanRef) {
	clear(masks)
	for k, kf := range r.keys {
		key := kf(rec)
		h := key.Hash()
		r.idx[k] = indexHash(h, r.n)
		if h&r.trMask == 0 && r.tr != nil && !span.Live() {
			span = r.tr.Begin(part, key, obs.HopRoute, obs.OutcomeOK)
		}
	}
	for t, k := range r.targets {
		masks[r.idx[k]] |= 1 << uint(t)
	}
	if r.free != 0 {
		masks[r.rr] |= r.free
		r.rr++
		if r.rr == r.n {
			r.rr = 0
		}
	}
	return span
}

// Pool routes records from a single feeder to the shards that own them:
// through per-shard worker goroutines (NewPool — a Workers transport fed
// through the router), or straight onto the feeder's own goroutine
// (NewInline — same routing, same per-shard arrival order, no transport;
// what a host without a second processor should run). Feed, Barrier and
// Close must be called from one goroutine.
type Pool struct {
	router  *router
	workers *Workers // nil: inline
	process ProcessFunc
	after   func(worker int)
	slots   []*obs.SpanSlot
	masks   []uint64
	fed     uint64
}

// NewInline builds a pool with no workers: Feed applies each record on
// the calling goroutine, as a transport batch of one.
func NewInline(cfg Config, process ProcessFunc) *Pool {
	if cfg.SpanSlots == nil {
		cfg.Trace = nil
	}
	r := newRouter(cfg)
	return &Pool{
		router:  r,
		process: process,
		after:   cfg.AfterBatch,
		slots:   cfg.SpanSlots,
		masks:   make([]uint64, r.n),
	}
}

// NewPool starts one worker goroutine per shard of every partition, each
// draining its batch ring through process.
func NewPool(cfg Config, process ProcessFunc) *Pool {
	p := NewInline(cfg, process)
	p.workers = NewWorkers(max(cfg.Partition.N, 1)*p.router.n, DefaultBatch, cfg.Obs, p.consume)
	return p
}

// consume is the worker side of the transport: one batch, in ring order.
func (p *Pool) consume(worker int, items []Item) {
	for i := range items {
		p.land(worker, &items[i].Rec, items[i].Mask, items[i].Span, len(items))
	}
	if p.after != nil {
		p.after(worker)
	}
}

// land applies one routed record on its shard — the one delivery step of
// ring workers and the inline pool alike. A sampled record's span gets
// its transport hop (arg = the batch it travelled in, 1 inline) and is
// parked in the shard's mailbox around the call, so the hops process
// records downstream land on it and on no other record.
func (p *Pool) land(worker int, rec *trace.Record, mask uint64, span obs.SpanRef, batch int) {
	if !span.Live() {
		p.process(worker, rec, mask)
		return
	}
	span.Hop(obs.HopTransport, obs.OutcomeOK, uint64(batch))
	p.slots[worker].Ref = span
	p.process(worker, rec, mask)
	p.slots[worker].Ref = obs.SpanRef{}
}

// Occupancy is one partition's current ring backlog in slots (racy
// gauge; 0 for an inline pool).
func (p *Pool) Occupancy(part int) int {
	if p.workers == nil {
		return 0
	}
	return p.workers.Occupancy(part*p.router.n, (part+1)*p.router.n)
}

// Fed returns how many records have been routed to a partition so far.
func (p *Pool) Fed() uint64 { return p.fed }

// Feed routes one record: it is copied into the pending batch of every
// shard of its partition that owns at least one target for it (inline:
// applied there and then). Feed returns the record's partition, or -1
// for a record no partition claims, which goes nowhere.
func (p *Pool) Feed(rec *trace.Record) int {
	part, span := p.router.route(rec, p.masks)
	if part < 0 {
		return part
	}
	p.fed++
	base := part * len(p.masks)
	for s, m := range p.masks {
		switch {
		case m == 0:
		case p.workers != nil:
			p.workers.Feed(base+s, rec, m, span)
		default:
			p.land(base+s, rec, m, span, 1)
		}
	}
	return part
}

// Barrier flushes every pending batch and blocks until all records fed
// so far have been processed by their workers. The pool stays usable —
// this is the window-boundary synchronization of the epoch runtime:
// every worker must have applied window k's records before the caller
// flushes caches and materializes window k's tables.
func (p *Pool) Barrier() {
	if p.workers != nil {
		p.workers.Barrier()
	}
}

// Close flushes every pending batch, closes the rings and waits for all
// workers to drain. The pool must not be fed afterwards.
func (p *Pool) Close() {
	if p.workers != nil {
		p.workers.Close()
	}
}
