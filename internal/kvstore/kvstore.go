// Package kvstore implements the paper's programmable key-value store
// cache (§3.2, Figures 3 and 4): the on-chip SRAM half of the split
// design. The cache is a hash table of n buckets with an m-slot LRU per
// bucket; n=1 degenerates to a full LRU and m=1 to a plain
// collision-evicting hash table — the three geometries evaluated in
// Figure 5.
//
// Each cache entry holds the fold's state vector and, when exact merging
// is enabled for a linear-in-state fold, the running coefficient product P
// (see rowOps) and, for history folds, a snapshot of the entry's first
// packet, which together let the backing store reconcile evictions exactly
// (see fold.MergeWithFirstRec).
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

// Eviction is one eviction as a per-eviction handler (Config.OnEvict)
// sees it: a view of one lane of the batch that left the cache. State, P
// and FirstRec are borrowed — a capacity eviction's from the batch's own
// copy of the slot (the insert that displaced it has already reused the
// slot), a flush's from slot memory itself — and are valid until the
// handler that received the batch returns.
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

// EvictBatch is what leaves a cache: the evictions of one ProcessBlock
// call (a block evicts at most one entry per record, hence the capacity),
// of one Process call, or of a run of up to fold.BlockSize flushed
// entries, in eviction order — lanes 0..N-1 of every column. Keys is a
// plain key column so a consumer can hash and probe for all lanes before
// it merges any. A batch is uniform: P (and First) is set on every lane or
// on none, and every lane left for the same Reason. The batch and all it
// points to belong to the cache; they are valid until the handler
// returns.
type EvictBatch struct {
	N      int
	Reason EvictReason
	Keys   [fold.BlockSize]packet.Key128
	State  [fold.BlockSize][]float64
	P      [fold.BlockSize][]float64     // nil unless exact merge
	First  [fold.BlockSize]*trace.Record // nil unless exact merge over history coefficients
	// Sampled has bit l set when lane l's key is traced; only then is
	// Span[l] meaningful (see Eviction.Span).
	Sampled uint64
	Span    [fold.BlockSize]obs.SpanRef
}

// Lane fills ev with the view of lane l.
func (b *EvictBatch) Lane(l int, ev *Eviction) {
	ev.Key = b.Keys[l]
	ev.State, ev.P, ev.FirstRec = b.State[l], b.P[l], b.First[l]
	ev.Reason = b.Reason
	ev.Span = obs.SpanRef{}
	if b.Sampled>>uint(l)&1 != 0 {
		ev.Span = b.Span[l]
	}
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
	// OnEvictBatch receives every eviction, a batch at a time, before the
	// Process, ProcessBlock or Flush call that caused it returns. May be
	// nil.
	OnEvictBatch func(*EvictBatch)
	// OnEvict is the per-eviction form of the same delivery: New turns it
	// into an OnEvictBatch that walks the lanes in order. Set one or the
	// other.
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
	// no bit at or past len(recs), at most fold.BlockSize). coefs, when
	// non-nil, holds the columns the fold's LinearSpec.EvalCoefBlock filled
	// from these records: a hit is then one multiply-add per state word
	// over lane l of each column, no VM call (nil: the cache evaluates them
	// per lane; a cache not on the diagonal row, see rowOps, ignores them).
	// It returns the lanes that initialized fresh entries, as a mask. The
	// per-lane behavior (probe order, LRU discipline, eviction order, every
	// bit of state) is exactly Process's — this exists so the datapath's
	// columnar hot loop pays one interface dispatch per block, and neither
	// hashes a key nor computes a coefficient that was computed upstream.
	ProcessBlock(keys []packet.Key128, hashes []uint64, recs []trace.Record, mask uint64, coefs []float64) (inserted uint64)
	// Flush evicts every resident entry (Reason = EvictFlush) in
	// deterministic order and empties the cache. The entries leave in
	// batches of up to fold.BlockSize, each a view of slot memory, the
	// last delivered before Flush returns.
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

// rowOps is what both layouts do to a slot's row given a record: the one
// update and the one insert. A row is the state vector and, under exact
// merge, the running product P behind it. For a block-evaluable fold
// (fold.LinearSpec.BlockEvaluable) P stays diagonal, so the row keeps its
// m diagonal words and an update is state[i] = a[i]·state[i] + b[i],
// P[i][i] = a[i]·P[i][i] over coefficients computed ahead of the cache;
// evictOut expands P to m×m. History folds, coupled state and
// re-associated bodies keep m×m: the body updates the state and A, per
// record, advances P.
type rowOps struct {
	fold *fold.Func
	lin  *fold.LinearSpec // non-nil iff exact merge
	m    int              // state vector length
	w    int              // row words: m, 2m (diag) or m+m²
	diag bool             // exact merge over a block-evaluable fold

	first              []trace.Record // per slot's first packet, when coefficients read history
	coefs              []float64      // diag: the block update fills lane 0 of, given no columns
	aScratch, mScratch []float64
	in                 fold.Input // ProcessBlock's reused input (a local would escape per call)
}

func (r *rowOps) init(cfg *Config, slots int) {
	m := cfg.Fold.StateLen()
	r.fold, r.m, r.w = cfg.Fold, m, m
	if !cfg.ExactMerge {
		return
	}
	r.lin = cfg.Fold.Linear
	if r.lin.NeedsFirstPacket {
		r.first = make([]trace.Record, slots)
	}
	if r.diag, _ = r.lin.BlockEvaluable(); r.diag {
		r.w, r.coefs = 2*m, r.lin.NewCoefBlock()
		return
	}
	r.w = m + m*m
	r.aScratch, r.mScratch = make([]float64, m*m), make([]float64, m*m)
}

// SlotWords returns the 64-bit words of one cache entry: key and row.
func SlotWords(f *fold.Func, exactMerge bool) int {
	var r rowOps
	r.init(&Config{Fold: f, ExactMerge: exactMerge}, 0)
	return 2 + r.w
}

// update applies one record to a resident entry's row. coefs is the
// record's lane of the caller's coefficient columns (coefficient c at
// [c*fold.BlockSize]), or nil: a diag cache evaluates them here.
func (r *rowOps) update(row []float64, in *fold.Input, coefs []float64) {
	m := r.m
	switch {
	case r.diag:
		if coefs == nil {
			r.lin.EvalCoefs(in, r.coefs)
			coefs = r.coefs
		}
		for i := 0; i < m; i++ {
			a := coefs[i*fold.BlockSize]
			row[i] = a*row[i] + coefs[(m+i)*fold.BlockSize]
			row[m+i] = a * row[m+i]
		}
	case r.lin != nil:
		// The body advances the state, as in exec.Run (A·S + B may round
		// apart from it); A, against the pre-update state, advances P.
		r.lin.EvalA(in, row[:m], r.aScratch)
		r.fold.Update(row[:m], in)
		fold.StepP(row[m:], r.aScratch, r.mScratch, m)
	default:
		r.fold.Update(row[:m], in)
	}
}

// firstRec returns slot's first-packet snapshot; nil when none is kept.
func (r *rowOps) firstRec(slot int) *trace.Record {
	if r.first == nil {
		return nil
	}
	return &r.first[slot]
}

// insert initializes slot's row for a new key and applies its first record.
func (r *rowOps) insert(row []float64, slot int, in *fold.Input, coefs []float64) {
	m := r.m
	st := row[:m]
	r.fold.Init(st)
	switch {
	case r.diag:
		// The first record is an update like any other, from S0 and the
		// identity: P covers the whole epoch and merges by MergeLinearState.
		for i := 0; i < m; i++ {
			row[m+i] = 1
		}
		r.update(row, in, coefs)
		return
	case r.first != nil:
		// P starts at identity and excludes the first packet, which is
		// snapshotted instead (fold.MergeWithFirstRec replays it).
		fold.IdentityP(row[m:], m)
		r.first[slot] = *in.Rec
	case r.lin != nil:
		// Coupled, history-free: as diag, with the full matrix.
		r.lin.EvalA(in, st, row[m:])
	}
	r.fold.Update(st, in)
}

// evictOut is a cache's one way out: evictions are appended to its batch
// as they happen and the batch is handed to the sink when it fills and
// before the call that caused them returns.
type evictOut struct {
	batch EvictBatch
	sink  func(*EvictBatch)
	// on is false when nothing consumes evictions — no sink, no tracer —
	// so eviction-rate studies skip the batch altogether.
	on bool
	// A capacity eviction's slot is reused by the insert that displaced
	// it, so its lane points at a copy: row l of held (state, then
	// product) and heldFirst[l]. So does every lane of a diagonal-P cache
	// with m > 1 (diagP): held is where P is expanded to m×m, its
	// off-diagonal words zero since allocation.
	held      []float64
	heldFirst []trace.Record
	m, w      int // state length; held row width
	diagP     bool

	tr     *obs.Tracer
	trMask uint64
	trW    int
}

func (o *evictOut) init(cfg *Config, r *rowOps) {
	o.sink = cfg.OnEvictBatch
	o.tr, o.trMask, o.trW = cfg.Trace, cfg.Trace.HashMask(), cfg.TraceWriter
	o.on = o.sink != nil || o.trMask != obs.NoSample
	o.m, o.w = r.m, r.m
	if cfg.ExactMerge {
		o.w += r.m * r.m
		o.diagP = r.w != o.w
		if r.first != nil {
			o.heldFirst = make([]trace.Record, fold.BlockSize)
		}
	}
	o.held = make([]float64, fold.BlockSize*o.w)
}

// add appends one eviction: key (as its two words), the slot's row —
// state, then the product under exact merge — and its first-record
// snapshot, if the cache keeps one. A capacity eviction's row and snapshot
// are copied; a flush's are handed over as they lie, unless the product
// has to be expanded.
func (o *evictOut) add(lo, hi uint64, row []float64, first *trace.Record, reason EvictReason) {
	b := &o.batch
	l := b.N
	b.Keys[l].SetWords(lo, hi)
	if o.diagP {
		held := o.held[l*o.w : (l+1)*o.w]
		copy(held, row[:o.m])
		for i := 0; i < o.m; i++ {
			held[o.m+i*o.m+i] = row[o.m+i]
		}
		row = held
	} else if reason == EvictCapacity {
		held := o.held[l*o.w : (l+1)*o.w]
		copy(held, row)
		row = held
		if first != nil {
			o.heldFirst[l] = *first
			first = &o.heldFirst[l]
		}
	}
	b.State[l] = row[:o.m:o.m]
	if len(row) > o.m {
		b.P[l], b.First[l] = row[o.m:], first
	}
	if o.trMask != obs.NoSample && packet.HashWords(lo, hi)&o.trMask == 0 {
		// The eviction starts the sampled key's journey to the backing tier.
		out := obs.OutcomeCapacity
		if reason == EvictFlush {
			out = obs.OutcomeFlush
		}
		b.Span[l] = o.tr.Begin(o.trW, b.Keys[l], obs.HopEvict, out)
		b.Sampled |= 1 << uint(l)
	}
	b.Reason = reason
	if b.N = l + 1; b.N == fold.BlockSize {
		o.deliver()
	}
}

// deliver hands the pending batch, if any, to the sink and empties it.
func (o *evictOut) deliver() {
	b := &o.batch
	if b.N == 0 {
		return
	}
	if o.sink != nil {
		o.sink(b)
	}
	b.N, b.Sampled = 0, 0
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
	if cfg.OnEvict != nil {
		if cfg.OnEvictBatch != nil {
			return nil, fmt.Errorf("kvstore: config sets both OnEvict and OnEvictBatch")
		}
		ev := new(Eviction)
		cfg.OnEvictBatch = func(b *EvictBatch) {
			for l := 0; l < b.N; l++ {
				b.Lane(l, ev)
				cfg.OnEvict(ev)
			}
		}
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
