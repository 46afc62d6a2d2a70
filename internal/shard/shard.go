// Package shard implements the sharded parallel datapath fabric: it
// hash-partitions a record stream by grouping key across N workers, each
// of which owns an independent slice of per-program state (cache +
// backing store, or a ground-truth engine). Because every record of a
// given key is routed to the same worker, per-shard result tables are
// disjoint and the merged output is a plain concatenation — sharding is
// invisible in the final sorted tables.
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
// (Config.Batch records per slot, default 256) so the synchronization
// cost per record is a fraction of two atomic counter updates. A single
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
// size) within the L2 working set; see the transport batch sweep in
// EXPERIMENTS.md.
const DefaultBatch = 256

// MaxTargets bounds the number of routing targets (bits in Item.Mask).
const MaxTargets = 64

// KeyFunc extracts the partition key one target groups records by.
type KeyFunc func(*trace.Record) packet.Key128

// ProcessFunc consumes one routed record on a worker goroutine. mask has
// bit t set when this shard owns target t for this record. It is called
// from exactly one goroutine per shard value.
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

// Config describes a routing domain.
type Config struct {
	// Shards is the worker count; values < 1 mean 1.
	Shards int
	// Batch is the records-per-send granularity; 0 selects DefaultBatch.
	Batch int
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

	// Obs, when non-nil (sized for Shards workers), instruments the
	// ring transport: batch-size histogram, park/wake counts. Nil means
	// fully uninstrumented (one nil branch per batch).
	Obs *obs.TransportMetrics
	// AfterBatch, when non-nil, runs on the worker goroutine after each
	// consumed batch — the datapath's hook for publishing its plain
	// per-shard counters into atomic mirrors at batch granularity.
	AfterBatch func(worker int)

	// Trace, when non-nil, samples records at the router: a record
	// whose partition-key hash is selected begins a span (HopRoute) that
	// rides its Item through the transport. The router already hashes
	// every key, so the sampling test is one AND+compare per key group.
	Trace *obs.Tracer
	// SpanSlots, when tracing, are the per-shard mailboxes the worker
	// loop parks the in-flight item's span in so downstream consumers
	// on the same goroutine (the shard's caches) can append to it.
	// Sized for Shards; nil disables the handoff.
	SpanSlots []*obs.SpanSlot
}

// Index maps a partition key to a shard in [0, n). The key's Hash is
// re-avalanched with a distinct finalizer so the shard index stays
// independent of the cache's bucket index, which consumes the low bits
// of the same hash (correlated bits would confine each shard's keys to
// 1/n of its cache buckets).
func Index(key packet.Key128, n int) int {
	if n <= 1 {
		return 0
	}
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

// Router computes per-shard target masks for records — the one routing
// algorithm, shared by the batched Pool and inline (feederless) callers
// such as the datapath's single-record Process path. A Router is not
// goroutine-safe; give each serial caller its own.
type Router struct {
	n       int
	keys    []KeyFunc
	targets []int
	idx     []int // per-key shard index scratch
	free    uint64
	rr      int

	// Sampling state for the record routed last (valid until the next
	// Route call). trMask is obs.NoSample when no tracer is attached.
	trMask  uint64
	sampKey packet.Key128
	sampled bool
}

// NewRouter builds a router from the routing-relevant Config fields.
func NewRouter(cfg Config) *Router {
	n := cfg.Shards
	if n < 1 {
		n = 1
	}
	targets := cfg.Targets
	if targets == nil {
		targets = make([]int, len(cfg.Keys))
		for t := range targets {
			targets[t] = t
		}
	}
	return &Router{
		n:       n,
		keys:    cfg.Keys,
		targets: targets,
		idx:     make([]int, len(cfg.Keys)),
		free:    cfg.FreeMask,
		trMask:  cfg.Trace.HashMask(),
	}
}

// Shards returns the shard count records are routed across.
func (r *Router) Shards() int { return r.n }

// Route fills masks (which must have length Shards) with each shard's
// target bits for one record: one key extraction + hash per distinct
// key, then a mask update per target. Free targets advance the
// round-robin cursor, so route each record exactly once.
func (r *Router) Route(rec *trace.Record, masks []uint64) {
	for i := range masks {
		masks[i] = 0
	}
	if r.trMask == obs.NoSample {
		for k, kf := range r.keys {
			r.idx[k] = Index(kf(rec), r.n)
		}
	} else {
		// Tracing: reuse each key's hash for the sampling test — the
		// marked key (first sampled group) begins the record's span.
		r.sampled = false
		for k, kf := range r.keys {
			key := kf(rec)
			h := key.Hash()
			r.idx[k] = indexHash(h, r.n)
			if h&r.trMask == 0 && !r.sampled {
				r.sampled = true
				r.sampKey = key
			}
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
}

// SampledKey returns the key that marked the last routed record for
// tracing, if any. Valid until the next Route call.
func (r *Router) SampledKey() (packet.Key128, bool) {
	return r.sampKey, r.sampled
}

// Pool routes records from a single feeder to per-shard worker
// goroutines (a Workers transport fed through the Router). Feed,
// Barrier and Close must be called from one goroutine.
type Pool struct {
	router  *Router
	workers *Workers[Item]
	masks   []uint64
	fed     uint64
	tr      *obs.Tracer
}

// NewPool starts one worker goroutine per shard, each draining its batch
// channel through process.
func NewPool(cfg Config, process ProcessFunc) *Pool {
	router := NewRouter(cfg)
	n := router.Shards()
	p := &Pool{router: router, masks: make([]uint64, n)}
	after := cfg.AfterBatch
	consume := func(s int, items []Item) {
		for i := range items {
			process(s, &items[i].Rec, items[i].Mask)
		}
		if after != nil {
			after(s)
		}
	}
	if cfg.Trace != nil && cfg.SpanSlots != nil {
		// Traced variant: park each item's span in the shard's mailbox so
		// the caches process runs can append to it, and stamp the
		// transport hop (arg = batch length) on spans that have one.
		p.tr = cfg.Trace
		slots := cfg.SpanSlots
		consume = func(s int, items []Item) {
			slot := slots[s]
			for i := range items {
				if sp := items[i].Span; sp.Live() {
					sp.Hop(obs.HopTransport, obs.OutcomeOK, uint64(len(items)))
					slot.Ref = sp
				} else {
					slot.Ref = obs.SpanRef{}
				}
				process(s, &items[i].Rec, items[i].Mask)
			}
			slot.Ref = obs.SpanRef{}
			if after != nil {
				after(s)
			}
		}
	}
	p.workers = NewWorkersObs(n, cfg.Batch, cfg.Obs, consume)
	return p
}

// Transport returns the pool's transport metrics (nil when Config.Obs
// was nil).
func (p *Pool) Transport() *obs.TransportMetrics { return p.workers.Metrics() }

// Occupancy is the pool's current ring backlog in slots (racy gauge).
func (p *Pool) Occupancy() int { return p.workers.Occupancy() }

// Shards returns the worker count.
func (p *Pool) Shards() int { return p.router.Shards() }

// Fed returns how many records have been routed so far.
func (p *Pool) Fed() uint64 { return p.fed }

// Feed routes one record, copying it into the pending batch of every
// shard that owns at least one target for it.
func (p *Pool) Feed(rec *trace.Record) {
	p.fed++
	p.router.Route(rec, p.masks)
	var span obs.SpanRef
	if p.tr != nil {
		if key, ok := p.router.SampledKey(); ok {
			span = p.tr.Begin(0, key, obs.HopRoute, obs.OutcomeOK)
		}
	}
	for s, m := range p.masks {
		if m != 0 {
			p.workers.Feed(s, Item{Rec: *rec, Mask: m, Span: span})
		}
	}
}

// Barrier flushes every pending batch and blocks until all records fed
// so far have been processed by their workers. The pool stays usable —
// this is the window-boundary synchronization of the epoch runtime:
// every worker must have applied window k's records before the caller
// flushes caches and materializes window k's tables.
func (p *Pool) Barrier() { p.workers.Barrier() }

// Close flushes every pending batch, closes the channels and waits for
// all workers to drain. The pool must not be fed afterwards.
func (p *Pool) Close() { p.workers.Close() }

// Run streams an entire source through a fresh pool and waits for the
// workers to finish. It returns the number of records fed (every record
// read, when the source fails) and the source's error.
func Run(cfg Config, src trace.Source, process ProcessFunc) (uint64, error) {
	p := NewPool(cfg, process)
	err := trace.EachBatch(src, func(recs []trace.Record) error {
		for i := range recs {
			p.Feed(&recs[i])
		}
		return nil
	})
	p.Close()
	return p.fed, err
}
