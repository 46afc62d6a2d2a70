// Package kvstore implements the paper's programmable key-value store
// cache (§3.2, Figures 3 and 4): the on-chip SRAM half of the split
// design. The cache is a hash table of n buckets with an m-slot LRU per
// bucket; n=1 degenerates to a full LRU and m=1 to a plain
// collision-evicting hash table — the three geometries evaluated in
// Figure 5.
//
// Each cache entry holds the fold's state vector and, when exact merging
// is enabled for a linear-in-state fold, the running coefficient product P
// and a snapshot of the entry's first packet, which together let the
// backing store reconcile evictions exactly (see fold.MergeWithFirstRec).
//
// The cache performs one initialize-or-update per Process call, mirroring
// the single state operation per clock cycle the hardware supports.
package kvstore

import (
	"fmt"
	"math/bits"

	"perfq/internal/fold"
	"perfq/internal/obs"
	"perfq/internal/packet"
	"perfq/internal/trace"
)

// Geometry describes the cache layout: Buckets hash buckets of Ways slots
// each, for a total capacity of Buckets×Ways key-value pairs.
type Geometry struct {
	Buckets int
	Ways    int
}

// HashTable is the m=1 geometry: any hash collision evicts (Figure 5's
// "Hash table" series).
func HashTable(pairs int) Geometry { return Geometry{Buckets: pairs, Ways: 1} }

// SetAssociative is the general n×m geometry; the paper's preferred point
// is 8-way.
func SetAssociative(pairs, ways int) Geometry {
	if ways < 1 {
		ways = 1
	}
	b := pairs / ways
	if b < 1 {
		b = 1
	}
	return Geometry{Buckets: b, Ways: ways}
}

// FullyAssociative is the n=1 geometry: one bucket, full LRU over all
// pairs.
func FullyAssociative(pairs int) Geometry { return Geometry{Buckets: 1, Ways: pairs} }

// Pairs returns total capacity in key-value pairs.
func (g Geometry) Pairs() int { return g.Buckets * g.Ways }

// Split divides the geometry's capacity across n shards, preserving the
// layout family: set-associative and hash-table caches keep their
// associativity and split buckets; a fully-associative cache splits its
// ways. Per-shard buckets are rounded DOWN to a power of two — New
// rounds non-power-of-two bucket counts up, which for n not a power of
// two would silently inflate the total SRAM above the configured
// operating point and bias shard-count comparisons. Rounding down keeps
// total capacity ≤ the configured point (evictions can only increase —
// conservative for accuracy claims). Degenerate case: n ≥ Buckets
// leaves one bucket per shard, which New realizes as a full LRU over
// Ways pairs.
func (g Geometry) Split(n int) Geometry {
	if n <= 1 {
		return g
	}
	if g.Buckets == 1 {
		w := g.Ways / n
		if w < 1 {
			w = 1
		}
		return Geometry{Buckets: 1, Ways: w}
	}
	b := g.Buckets / n
	if b < 1 {
		b = 1
	}
	b = 1 << (bits.Len(uint(b)) - 1)
	return Geometry{Buckets: b, Ways: g.Ways}
}

// Bits returns the SRAM footprint in bits at the paper's provisioning of
// 128 bits per key-value pair (104-bit key + 24-bit value).
func (g Geometry) Bits() int64 { return int64(g.Pairs()) * PairBits }

// PairBits is the paper's SRAM budget per key-value pair.
const PairBits = 128

// String renders the geometry the way the figures label it.
func (g Geometry) String() string {
	switch {
	case g.Buckets == 1:
		return fmt.Sprintf("fully-associative(%d)", g.Ways)
	case g.Ways == 1:
		return fmt.Sprintf("hash-table(%d)", g.Buckets)
	default:
		return fmt.Sprintf("%d-way(%d)", g.Ways, g.Pairs())
	}
}

// EvictReason says why an entry left the cache.
type EvictReason uint8

// Eviction reasons.
const (
	// EvictCapacity: displaced by an insertion into a full bucket — the
	// evictions Figure 5 counts.
	EvictCapacity EvictReason = iota
	// EvictFlush: forced out by Flush (end of a measurement window, or the
	// paper's periodic eviction to keep the backing store fresh).
	EvictFlush
)

// Eviction is the payload delivered to the eviction handler. State, P and
// FirstRec are borrowed from cache-internal storage and are only valid for
// the duration of the callback.
type Eviction struct {
	Key      packet.Key128
	State    []float64
	P        []float64     // running coefficient product, nil unless exact merge
	FirstRec *trace.Record // first packet of this cache epoch, nil unless exact merge
	Reason   EvictReason
	// Span is the eviction's trace span, begun here when the evicted
	// key is sampled: the eviction starts the state's journey to the
	// backing tier, and downstream consumers (the netstore pool) append
	// their hops to it. Zero when tracing is off or the key unsampled.
	Span obs.SpanRef
}

// Config configures a cache.
type Config struct {
	Geometry Geometry
	// Fold is the aggregation the store runs.
	Fold *fold.Func
	// ExactMerge enables the linear-in-state merge machinery (P product +
	// first-packet snapshot) when Fold.Merge == MergeLinear. It is off for
	// pure eviction-rate studies (Fig. 5), where only the key-reference
	// stream matters.
	ExactMerge bool
	// OnEvict receives every eviction. May be nil.
	OnEvict func(*Eviction)

	// Trace, when non-nil, enables sampled packet tracing: accesses and
	// evictions of keys selected by the tracer's hash mask record cache
	// hops (outcome hit/miss) and begin eviction spans. The cache is
	// where per-record sampling lives because it already computes the
	// key hash for bucket indexing — the unsampled path pays one
	// AND+compare against a register it holds anyway.
	Trace *obs.Tracer
	// TraceSpan, when tracing under a sharded transport, is the
	// shard-local mailbox carrying the in-flight record's span from the
	// ring-transport worker (which owns this cache) into the cache, so
	// route/transport hops and cache hops land on one span. Nil means
	// sampled accesses begin their own spans (the serial path).
	TraceSpan *obs.SpanSlot
	// TraceWriter selects the tracer's span ring stripe (the shard
	// index under the sharded datapath).
	TraceWriter int
}

// Stats counts cache events.
type Stats struct {
	Accesses  uint64
	Hits      uint64
	Inserts   uint64
	Evictions uint64 // capacity evictions only
	Flushed   uint64
}

// Add returns the event-wise sum of two counters — the aggregation the
// sharded datapath reports per program across its shard-local caches.
func (s Stats) Add(o Stats) Stats {
	return Stats{
		Accesses:  s.Accesses + o.Accesses,
		Hits:      s.Hits + o.Hits,
		Inserts:   s.Inserts + o.Inserts,
		Evictions: s.Evictions + o.Evictions,
		Flushed:   s.Flushed + o.Flushed,
	}
}

// EvictionRate is capacity evictions as a fraction of accesses — the
// quantity on Figure 5's y-axis.
func (s Stats) EvictionRate() float64 {
	if s.Accesses == 0 {
		return 0
	}
	return float64(s.Evictions) / float64(s.Accesses)
}

// Cache is the on-chip half of the split key-value store.
type Cache interface {
	// Process applies one packet: a hit updates the key's entry in place;
	// a miss initializes a fresh entry, evicting the bucket's LRU victim
	// if the bucket is full. It reports whether the packet initialized a
	// fresh entry (a miss), which lets the datapath do key-metadata
	// bookkeeping off the steady-state hit path.
	Process(key packet.Key128, in *fold.Input) (inserted bool)
	// ProcessBlock applies one packet per set bit of mask in ascending
	// lane order: lane l probes with keys[l], whose Hash() the caller
	// has already computed into hashes[l], and record recs[l] (mask has
	// no bit at or past len(recs), at most fold.BlockSize). It returns
	// the lanes that initialized fresh entries, as a mask. The per-lane
	// behavior (probe order, LRU discipline, eviction order) is exactly
	// Process's — this exists so the datapath's columnar hot loop pays
	// one interface dispatch per block instead of per packet, and so a
	// key hashed once by the shard router is not hashed again here.
	ProcessBlock(keys []packet.Key128, hashes []uint64, recs []trace.Record, mask uint64) (inserted uint64)
	// Flush evicts every resident entry (Reason = EvictFlush) in
	// deterministic order and empties the cache.
	Flush()
	// Len returns the number of resident entries.
	Len() int
	// Stats returns a copy of the event counters.
	Stats() Stats
	// Geometry returns the configured layout.
	Geometry() Geometry
}

// tz64 is the trailing-zero count of a nonzero lane mask.
func tz64(m uint64) int { return bits.TrailingZeros64(m) }

// traceCacheHop records a sampled access: when the shard's span slot
// holds the in-flight record's span (sharded transport), the cache hop
// is appended there; otherwise (serial path) the access begins its own
// span. Called only at the 1-in-2^k sampled rate.
func traceCacheHop(tr *obs.Tracer, slot *obs.SpanSlot, w int, key packet.Key128, inserted bool) {
	if tr == nil {
		return // all-zero hash slipped past a disabled NoSample mask
	}
	out := obs.OutcomeHit
	if inserted {
		out = obs.OutcomeMiss
	}
	if slot != nil && slot.Ref.Live() {
		slot.Ref.Hop(obs.HopCache, out, 0)
		return
	}
	tr.Begin(w, key, obs.HopCache, out)
}

// traceEvictSpan begins the "why did this key get evicted" span for a
// sampled evicted key. Called only on sampled evictions.
func traceEvictSpan(tr *obs.Tracer, w int, key packet.Key128, reason EvictReason) obs.SpanRef {
	if tr == nil {
		return obs.SpanRef{}
	}
	out := obs.OutcomeCapacity
	if reason == EvictFlush {
		out = obs.OutcomeFlush
	}
	return tr.Begin(w, key, obs.HopEvict, out)
}

// New builds a cache for the geometry: a set-associative array layout for
// multi-bucket configurations, or a map-backed full LRU for Buckets == 1.
func New(cfg Config) (Cache, error) {
	if cfg.Fold == nil {
		return nil, fmt.Errorf("kvstore: config requires a fold")
	}
	g := cfg.Geometry
	if g.Buckets < 1 || g.Ways < 1 {
		return nil, fmt.Errorf("kvstore: invalid geometry %+v", g)
	}
	if cfg.ExactMerge && (cfg.Fold.Merge != fold.MergeLinear || cfg.Fold.Linear == nil) {
		return nil, fmt.Errorf("kvstore: ExactMerge requires a linear-in-state fold (have %v)", cfg.Fold.Merge)
	}
	// Lower the fold (and its merge coefficients) to bytecode, the only
	// form Process can run. Plan-compiled folds arrive already lowered;
	// this covers folds constructed directly (tests, harnesses). New is
	// setup code, so the mutation is safe: caches are never built
	// concurrently with updates on a shared fold.
	if err := cfg.Fold.EnsureCompiled(); err != nil {
		return nil, fmt.Errorf("kvstore: %s: %w", cfg.Fold.Name(), err)
	}
	if g.Buckets == 1 {
		return newFullLRU(cfg), nil
	}
	if g.Ways > 255 {
		return nil, fmt.Errorf("kvstore: %d ways exceeds the 255-way set-associative limit; use FullyAssociative", g.Ways)
	}
	if g.Buckets&(g.Buckets-1) != 0 {
		// Round up to a power of two so bucket indexing is a mask; the
		// capacity sweep in the experiments only uses powers of two.
		g.Buckets = 1 << bits.Len(uint(g.Buckets))
	}
	return newSetAssoc(cfg, g), nil
}
