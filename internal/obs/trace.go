package obs

import (
	"encoding/hex"
	"sync"
	"sync/atomic"
	"time"

	"perfq/internal/packet"
)

// Sampled packet tracing: a deterministic power-of-two sampler selects
// keys by hash, and the layers a sampled record crosses append
// timestamped hops to a span — the shard router, the ring transport,
// cache hit/miss, eviction, netstore shipper. Spans live in
// preallocated fixed-size rings (no heap on the record path), so tracing
// follows the same contract as the metric mirrors: the unsampled hot
// path pays one mask test against a hash it already computed, and all
// real work happens at the 1-in-2^k sampled rate.
//
// Sampling is by key, not by coin flip: Key128.Hash is a fixed function
// of the key bytes, so the sampled key set is a pure function of the
// trace — identical across shard counts, fabric layouts and processes.
// That also means a sampled key is sampled at *every* layer it touches,
// which is what lets an eviction span tell the whole "why did this key
// get evicted, and did its state survive the trip to the backing store"
// story.

// Hop identifies a datapath stage a span crossed.
type Hop uint8

// Hops, in datapath order.
const (
	// HopRoute: the shard router marked the record.
	HopRoute Hop = iota
	// HopTransport: a worker dequeued the record from the ring transport.
	HopTransport
	// HopCache: the key-value cache applied the record (outcome hit/miss).
	HopCache
	// HopEvict: the key's entry left the cache (outcome capacity/flush).
	// Evict hops begin a fresh span for the evicted key: the eviction is
	// the start of the state's journey to the backing tier.
	HopEvict
	// HopShip: the netstore pool disposed of the eviction (outcome
	// queued/dropped/no-backend).
	HopShip

	// NumHops is the number of distinct hop kinds.
	NumHops = int(HopShip) + 1
)

var hopNames = [NumHops]string{"route", "transport", "cache", "evict", "ship"}

// String names the hop the way /debug/trace renders it.
func (h Hop) String() string {
	if int(h) < NumHops {
		return hopNames[h]
	}
	return "?"
}

// Outcome says what happened at a hop.
type Outcome uint8

// Outcomes.
const (
	OutcomeOK Outcome = iota
	OutcomeHit
	OutcomeMiss
	OutcomeCapacity // evicted: displaced by an insertion
	OutcomeFlush    // evicted: window close / forced flush
	OutcomeQueued   // eviction enqueued to a shipper
	OutcomeDropped  // eviction dropped (queue overflow or breaker)
	OutcomeNoBackend
)

var outcomeNames = [...]string{
	"ok", "hit", "miss", "capacity", "flush", "queued", "dropped", "no-backend",
}

// String names the outcome.
func (o Outcome) String() string {
	if int(o) < len(outcomeNames) {
		return outcomeNames[o]
	}
	return "?"
}

// NoSample is the hash mask of a disabled sampler: layers precompute
// `mask = NoSample` when no tracer is attached, so the per-record guard
// stays a single AND+compare with no nil test (h&NoSample == 0 only for
// the all-zero hash, and the slow path re-checks for a live tracer).
const NoSample = ^uint64(0)

// MaxSpanHops bounds the hops one span records; later hops mark the
// span truncated instead of growing it.
const MaxSpanHops = 8

// HopRec is one recorded hop: the stage, its outcome, the offset from
// the span's start, and a stage-defined argument (e.g. batch length at
// transport, queue depth at ship).
type HopRec struct {
	Hop     Hop
	Outcome Outcome
	T       int64 // ns since span start
	Arg     uint64
}

// Span is one sampled traversal: a key plus its timestamped hop log.
// Spans are ring slots — reused in place, never freed. The mutex makes
// slot reuse, cross-goroutine appends (feeder begins, worker appends)
// and scrape-time reads safe; it is uncontended in practice because only
// 1-in-2^k records ever touch a span.
type Span struct {
	mu    sync.Mutex
	tr    *Tracer
	seq   uint64 // 0 = slot never used
	key   packet.Key128
	start int64 // unixnano of the first hop
	last  int64 // unixnano of the latest hop
	n     int
	trunc bool
	hops  [MaxSpanHops]HopRec
}

// SpanRef is a handle on a span issued at Begin time. The seq makes it
// reuse-safe: once the ring recycles the slot for a newer traversal, a
// stale ref's appends are dropped instead of corrupting the new span.
// The zero SpanRef is valid and inert.
type SpanRef struct {
	s   *Span
	seq uint64
}

// Live reports whether the ref points at a span (possibly recycled —
// appends still check the seq).
func (r SpanRef) Live() bool { return r.s != nil }

// Hop appends one hop to the span, stamping the current time. Stale
// refs (slot recycled) and full spans are no-ops beyond bookkeeping.
func (r SpanRef) Hop(h Hop, out Outcome, arg uint64) {
	s := r.s
	if s == nil {
		return
	}
	now := time.Now().UnixNano()
	var d int64 = -1
	s.mu.Lock()
	if s.seq == r.seq {
		if s.n < MaxSpanHops {
			d = now - s.last
			s.hops[s.n] = HopRec{Hop: h, Outcome: out, T: now - s.start, Arg: arg}
			s.n++
			s.last = now
		} else {
			s.trunc = true
		}
	}
	s.mu.Unlock()
	if d >= 0 {
		s.tr.hopNs[h].Record(uint64(d))
	}
}

// SpanSlot is a one-deep mailbox handing the in-flight record's span
// from the transport worker to the caches it feeds. Exactly one
// goroutine owns both ends (the shard's worker), so access is plain.
type SpanSlot struct {
	Ref SpanRef
}

// spanRing is one preallocated span ring. Rings are striped by writer
// index so concurrent Begin callers (shard workers, the feeder) don't
// share an allocation cursor.
type spanRing struct {
	mu    sync.Mutex
	next  uint64
	spans []Span
	_     [24]byte // keep rings off each other's cache lines
}

// traceStripes is the span ring stripe count (power of two).
const traceStripes = 8

// DefaultSpanRing is the per-stripe span capacity when NewTracer is
// given none.
const DefaultSpanRing = 512

// Tracer owns the sampler and the span storage.
type Tracer struct {
	mask    uint64 // sample iff key.Hash()&mask == 0
	k       int
	seq     atomic.Uint64
	begun   atomic.Uint64 // spans started
	stale   atomic.Uint64 // appends dropped because the slot was recycled
	rings   [traceStripes]spanRing
	hopNs   [NumHops]Hist // per-hop latency (delta from the previous hop)
	started time.Time
}

// NewTracer builds a tracer sampling 1 in 2^k keys. perSpanRing is the
// span capacity of each of the internal ring stripes; <= 0 selects
// DefaultSpanRing. k is clamped to [0, 63]; k = 0 samples everything.
func NewTracer(k, perSpanRing int) *Tracer {
	if k < 0 {
		k = 0
	}
	if k > 63 {
		k = 63
	}
	if perSpanRing <= 0 {
		perSpanRing = DefaultSpanRing
	}
	t := &Tracer{mask: 1<<uint(k) - 1, k: k, started: time.Now()}
	for i := range t.rings {
		t.rings[i].spans = make([]Span, perSpanRing)
		for j := range t.rings[i].spans {
			t.rings[i].spans[j].tr = t
		}
	}
	return t
}

// HashMask returns the sampler mask: a key is sampled iff
// key.Hash()&HashMask() == 0. Layers hoist this into a local (or store
// NoSample when the tracer is nil) so the per-record test has no nil
// branch.
func (t *Tracer) HashMask() uint64 {
	if t == nil {
		return NoSample
	}
	return t.mask
}

// Rate returns the sampling denominator 2^k.
func (t *Tracer) Rate() uint64 { return t.mask + 1 }

// Sampled reports whether a key hash is selected by the sampler.
func (t *Tracer) Sampled(hash uint64) bool { return hash&t.mask == 0 }

// Begin starts a span for a sampled key with its first hop, drawing the
// slot from the writer's ring stripe. The returned ref is what travels
// with the record.
func (t *Tracer) Begin(writer int, key packet.Key128, h Hop, out Outcome) SpanRef {
	r := &t.rings[writer&(traceStripes-1)]
	r.mu.Lock()
	s := &r.spans[int(r.next)%len(r.spans)]
	r.next++
	r.mu.Unlock()
	seq := t.seq.Add(1)
	now := time.Now().UnixNano()
	s.mu.Lock()
	s.seq = seq
	s.key = key
	s.start, s.last = now, now
	s.n = 1
	s.trunc = false
	s.hops[0] = HopRec{Hop: h, Outcome: out}
	s.mu.Unlock()
	t.begun.Add(1)
	return SpanRef{s: s, seq: seq}
}

// Begun returns the number of spans started.
func (t *Tracer) Begun() uint64 { return t.begun.Load() }

// HopHist snapshots one hop's latency histogram.
func (t *Tracer) HopHist(h Hop, into *HistSnap) { t.hopNs[h].Snapshot(into) }

// SpanSnap is a copied-out span for the scrape surface.
type SpanSnap struct {
	Seq       uint64    `json:"seq"`
	Key       string    `json:"key"` // hex of the 16 key bytes
	Start     int64     `json:"start_unix_ns"`
	TotalNs   int64     `json:"total_ns"`
	Truncated bool      `json:"truncated,omitempty"`
	Hops      []HopSnap `json:"hops"`
}

// HopSnap is one hop of a SpanSnap.
type HopSnap struct {
	Hop     string `json:"hop"`
	Outcome string `json:"outcome"`
	T       int64  `json:"t_ns"` // offset from span start
	Arg     uint64 `json:"arg,omitempty"`
}

// Spans copies out every live span, ordered by begin sequence
// (oldest first). Scrape-side only: allocates freely.
func (t *Tracer) Spans() []SpanSnap {
	var out []SpanSnap
	for i := range t.rings {
		r := &t.rings[i]
		r.mu.Lock()
		n := len(r.spans)
		r.mu.Unlock()
		for j := 0; j < n; j++ {
			s := &r.spans[j]
			s.mu.Lock()
			if s.seq != 0 {
				snap := SpanSnap{
					Seq:       s.seq,
					Key:       hex.EncodeToString(s.key[:]),
					Start:     s.start,
					TotalNs:   s.last - s.start,
					Truncated: s.trunc,
					Hops:      make([]HopSnap, s.n),
				}
				for k := 0; k < s.n; k++ {
					h := s.hops[k]
					snap.Hops[k] = HopSnap{Hop: h.Hop.String(), Outcome: h.Outcome.String(), T: h.T, Arg: h.Arg}
				}
				out = append(out, snap)
			}
			s.mu.Unlock()
		}
	}
	sortSpans(out)
	return out
}

// sortSpans orders snapshots by sequence (insertion sort: snapshot
// sizes are bounded by the rings and this is scrape-side).
func sortSpans(s []SpanSnap) {
	for i := 1; i < len(s); i++ {
		for j := i; j > 0 && s[j-1].Seq > s[j].Seq; j-- {
			s[j-1], s[j] = s[j], s[j-1]
		}
	}
}
