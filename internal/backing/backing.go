// Package backing implements the off-chip half of the split key-value
// store (§3.2): a large table that absorbs cache evictions.
//
// Reconciliation depends on the fold's merge class:
//
//   - Linear-in-state folds merge exactly: either the eviction's running
//     product covers its whole epoch (history-free coefficients) and the
//     store applies fold.MergeLinearState, or the epoch's first packet
//     rides along and is replayed (fold.MergeWithFirstRec). Either way,
//     at any flush point the store holds precisely the value an infinite
//     cache would have.
//   - Associative folds (MAX/MIN) combine values directly.
//   - Everything else appends one value per eviction epoch; keys that
//     accumulate more than one epoch are marked invalid, and the fraction
//     of valid keys is Figure 6's accuracy metric. Each epoch value is
//     still correct over its own interval, which is why the paper reports
//     higher accuracy for shorter query windows.
//
// Evictions arrive a batch at a time (HandleBatch), so that the index
// probes of a whole batch are in flight together; one at a time
// (HandleEviction) is a batch of one. A flush's batches take HandleFlush,
// which holds back the lanes whose key the store has never seen as rows
// beside the index, settled into it only before something could present
// their key again — so a tumbling window close, whose Reset drops them,
// never indexes a key it is about to forget.
//
// Storage is allocation-free in steady state: an open-addressing Key128
// table (index.go) maps keys to entry ids, and entries, their state
// rows, per-eviction epoch values and held-back rows all live in chunked
// arenas (arena.go) that Reset retains. The eviction hot path touches the
// Go allocator only when the key space outgrows every previous window.
package backing

import (
	"fmt"
	"math"

	"perfq/internal/fold"
	"perfq/internal/kvstore"
	"perfq/internal/packet"
)

// Epoch is one eviction's worth of state for a non-mergeable fold.
type Epoch struct {
	State []float64
}

// entry is the store's per-key record. Merged values (linear/assoc
// folds) live in the state-row arena at the entry's own id; epoch values
// (non-mergeable folds) are rows of the epoch arena, the key's newest at
// head and each linked to the one recorded before it, with nep counting
// them — so recording an epoch writes the entry and the new row, never
// an old one. win is the last measurement window (BeginWindow counter)
// that touched the entry — the window-scoped accuracy bookkeeping of the
// epoch runtime.
type entry struct {
	key    packet.Key128
	head   int32 // newest epoch row; -1 = none
	nep    int32
	merged bool
	win    uint32
}

// Store is the backing key-value store.
type Store struct {
	f  *fold.Func
	m  int
	s0 []float64 // the fold's initial state, for P-only merges
	ix keyIndex

	ents  chunked[entry] // entry id = state row id in slab
	slab  rowArena       // one state row per entry (merged values)
	erows rowArena       // one state row per recorded epoch
	older chunked[int32] // per epoch row: the same key's previous one; -1 = none

	// The keys HandleFlush held back, in flush order, and their values
	// (key j's is hvals row j). They follow the entries in Len/At order and
	// join them at Settle, with the window stamp of the flush that held
	// them back and its reconciliation — an epoch (non-mergeable) or a
	// merged state. The keys held at once are one flush's (see HandleFlush).
	held      chunked[packet.Key128]
	hvals     rowArena
	heldWin   uint32
	heldEpoch bool

	invalid int // keys with >1 epoch (non-mergeable folds)
	merges  uint64
	appends uint64

	// Merge-path scratch, store-owned so replaying an epoch's first
	// packet through the fold's indirect Update call allocates nothing.
	firstIn fold.Input
	mscr    fold.MergeScratch

	// The batch entries' per-lane columns — hash, entry id (-1: held back),
	// the row a merge writes — and what their warming loads add up to,
	// stored so that the loads are not dead code.
	hash [fold.BlockSize]uint64
	ids  [fold.BlockSize]int32
	dst  [fold.BlockSize][]float64
	warm uint32
	one  *kvstore.EvictBatch // HandleEviction's one-lane batch

	// Window-scoped accounting (the epoch runtime's carry-over mode):
	// curWin counts BeginWindow calls, winTotal the keys touched since the
	// last boundary, winInvalid those of them whose full-history value is
	// untrustworthy.
	curWin     uint32
	winTotal   int
	winInvalid int
}

// New creates a store for the given fold. The fold's Merge kind selects
// reconciliation behaviour. First-packet merges replay the fold through
// Func.Update, so f must be compiled (fold.Func.EnsureCompiled) — as every
// fold that has been through plan compilation or kvstore.New is.
func New(f *fold.Func) *Store {
	m := f.StateLen()
	s0 := make([]float64, m)
	f.Init(s0)
	s := &Store{f: f, m: m, s0: s0, slab: rowArena{m: m}, erows: rowArena{m: m}, hvals: rowArena{m: m}}
	s.ix.init(indexMinSize)
	return s
}

// slot returns the id of key's entry, creating it on first sight; h is
// key's hash. Entry ids and state-row ids advance in lockstep, so an
// entry's merged state is always slab row id; a fold that never merges
// keeps no such rows.
func (s *Store) slot(key packet.Key128, h uint64) int32 {
	i, ok := s.ix.claim(key, h)
	if !ok {
		_, e := s.ents.alloc()
		*e = entry{key: key, head: -1}
		if s.f.Merge != fold.MergeNone {
			copy(s.slab.row(s.slab.alloc()), s.s0)
		}
	}
	return i
}

// state returns entry i's merged-state row.
func (s *Store) state(i int32) []float64 {
	return s.slab.row(i)
}

// HandleEviction reconciles one eviction: HandleBatch over a batch of one
// lane. It has the shape of the cache's per-eviction callback.
func (s *Store) HandleEviction(ev *kvstore.Eviction) {
	b := s.one
	if b == nil {
		b = &kvstore.EvictBatch{N: 1}
		s.one = b
	}
	b.Keys[0], b.State[0], b.P[0], b.First[0] = ev.Key, ev.State, ev.P, ev.FirstRec
	s.HandleBatch(b)
}

// HandleBatch reconciles a batch of evictions, in lane order — the
// cache's batch callback. Every lane walks index slot → entry → state
// row, each a random line of a table far larger than the CPU's caches
// once the key space is, and a lane at a time each of those misses waits
// for the one before. So the batch goes through in three passes: hash
// every key and load its home index slot (independent loads, whose misses
// overlap); claim the entries in order, loading each entry and state row;
// then merge in order. Claims and merges both keep lane order, so a key
// that appears twice in a batch — even one new to the store — reconciles
// exactly as it would one eviction at a time. Rows a flush held back are
// settled first: a capacity eviction may carry one of their keys.
func (s *Store) HandleBatch(b *kvstore.EvictBatch) {
	s.Settle()
	kind := s.kind(b)
	ids := s.probe(b, kind, true)
	if kind == fold.MergeNone {
		for l, i := range ids {
			s.appendEpoch(i, b.State[l])
		}
		s.appends += uint64(len(ids))
		return
	}
	for _, i := range ids {
		s.touchMerged(i)
	}
	s.merge(kind, b)
}

// HandleFlush reconciles a batch a cache's Flush delivered (Reason ==
// EvictFlush) to exactly the store HandleBatch would leave, without
// indexing what it does not have to. A lane whose key the store holds
// merges as in HandleBatch, its probes overlapped the same way — and not
// issued at all while the index is empty, as it is at every tumbling
// close that capacity evictions did not reach. A lane whose key it does
// not hold gets no index slot, entry or state row: its key is held back,
// and the same merge, from S0, writes its value beside it. Len, At,
// Accuracy, WindowAccuracy and Stats count a held key as the entry it
// stands for; Settle turns it into that entry, with the flush's window
// stamp — or Reset drops it, which is where a tumbling close saves the
// work.
//
// A flush evicts each resident key once, so HandleFlush never looks for a
// key among those it holds back: the calls between two settle points must
// be one flush's. HandleBatch, HandleEviction and the keyed reads settle
// by themselves; a caller that flushes a cache again — after only cache
// hits, the same keys come back — calls Settle before it does.
func (s *Store) HandleFlush(b *kvstore.EvictBatch) {
	kind := s.kind(b)
	epoch := kind == fold.MergeNone
	s.heldWin, s.heldEpoch = s.curWin+1, epoch
	if s.ix.used == 0 {
		// Nothing a probe could find: every lane is held back, a run of
		// lanes at a time that lies in one arena chunk.
		m := s.m
		for l := 0; l < b.N; {
			keys := s.held.run(b.N - l)
			rows := s.hvals.run(len(keys))
			copy(keys, b.Keys[l:])
			for k := range keys {
				s.hold(b, l+k, rows[k*m:(k+1)*m:(k+1)*m], epoch)
			}
			l += len(keys)
		}
	} else {
		for l, i := range s.probe(b, kind, false) {
			switch {
			case i < 0:
				_, key := s.held.alloc()
				*key = b.Keys[l]
				s.hold(b, l, s.hvals.row(s.hvals.alloc()), epoch)
			case epoch:
				s.appendEpoch(i, b.State[l])
			default:
				s.touchMerged(i)
			}
		}
	}
	if epoch {
		s.appends += uint64(b.N)
		return
	}
	s.merge(kind, b)
}

// hold fills st, the value row of held-back lane l: its epoch, or S0 with
// dst[l] pointing at it for the merge.
func (s *Store) hold(b *kvstore.EvictBatch, l int, st []float64, epoch bool) {
	if epoch {
		copy(st, b.State[l])
	} else {
		for k, v := range s.s0 { // not copy: m is a word or two, less than a memmove call costs
			st[k] = v
		}
		s.dst[l] = st
	}
	s.winTotal++
}

// kind is how b's lanes reconcile: the fold's merge class, except that a
// linear fold whose cache ran without the exact-merge machinery falls back
// to epoch semantics, so results are still usable per interval.
func (s *Store) kind(b *kvstore.EvictBatch) fold.MergeKind {
	if s.f.Merge == fold.MergeLinear && b.P[0] == nil {
		return fold.MergeNone
	}
	return s.f.Merge
}

// probe returns every lane's entry id — claiming the keys new to the store
// when claim is set, else -1 for them — after loading each lane's index
// slot, entry and (merging kinds) state row in loops of their own, so that
// nothing but loads sits between one lane's miss and the next lane's. It
// points dst at the state rows it loaded.
func (s *Store) probe(b *kvstore.EvictBatch, kind fold.MergeKind, claim bool) []int32 {
	keys, hash, ids := b.Keys[:b.N], s.hash[:b.N], s.ids[:b.N]
	warm := s.warm
	for l := range keys {
		h := keys[l].Hash()
		hash[l] = h
		sl := &s.ix.slots[h&s.ix.mask]
		warm += uint32(sl.key[0]) + sl.tag // both ends: a slot may straddle two lines
	}
	if claim {
		for l := range keys {
			ids[l] = s.slot(keys[l], hash[l])
		}
	} else {
		for l := range keys {
			i, ok := s.ix.id(s.ix.find(keys[l], hash[l]))
			if !ok {
				i = -1
			}
			ids[l] = i
		}
	}
	for _, i := range ids {
		if i >= 0 {
			warm += s.ents.at(i).win
		}
	}
	if kind != fold.MergeNone {
		for l, i := range ids {
			if i >= 0 {
				st := s.state(i)
				s.dst[l] = st
				warm += uint32(math.Float64bits(st[0]))
			}
		}
	}
	s.warm = warm
	return ids
}

// merge reconciles every lane l of b into row dst[l], in lane order, by a
// merging kind — one loop per kind, chosen once per batch.
func (s *Store) merge(kind fold.MergeKind, b *kvstore.EvictBatch) {
	dst := s.dst[:b.N]
	switch {
	case kind == fold.MergeAssoc:
		for l, st := range dst {
			s.f.Combine(st, b.State[l])
		}
	case b.First[0] != nil:
		// History coefficients: P excludes the epoch's first packet,
		// which is replayed from the snapshot.
		for l, st := range dst {
			s.firstIn = fold.Input{Rec: b.First[l]}
			fold.MergeWithFirstRec(s.f, st, b.State[l], b.P[l], st, &s.firstIn, &s.mscr)
		}
	default:
		// History-free coefficients, P covering the whole epoch.
		for l, st := range dst {
			fold.MergeLinearState(st, b.State[l], b.P[l], st, s.s0, s.m)
		}
	}
	s.merges += uint64(len(dst))
}

// Settle gives every key HandleFlush held back its index slot, entry and
// value row, in flush order — the entry HandleBatch would have created,
// with the window stamp of the flush that held it back, so a BeginWindow
// since then counts its next touch as fresh and nothing is counted twice.
// It is a no-op when nothing is held back.
func (s *Store) Settle() {
	for j := int32(0); j < int32(s.held.n); j++ {
		key, val := *s.held.at(j), s.hvals.row(j)
		i := s.slot(key, key.Hash()) // a new entry: only settle indexes a held key
		e := s.ents.at(i)
		e.win = s.heldWin
		if s.heldEpoch {
			row := s.erows.alloc()
			copy(s.erows.row(row), val)
			_, prev := s.older.alloc()
			*prev = -1
			e.head, e.nep = row, 1
		} else {
			e.merged = true
			copy(s.state(i), val)
		}
	}
	s.held.reset()
	s.hvals.reset()
}

// touchMerged records a window-scoped update of entry i whose merged value
// stays trustworthy (exact-merge and associative reconciliations).
func (s *Store) touchMerged(i int32) {
	e := s.ents.at(i)
	e.merged = true
	if e.win != s.curWin+1 {
		e.win = s.curWin + 1
		s.winTotal++
	}
}

// appendEpoch records state as entry i's newest epoch.
func (s *Store) appendEpoch(i int32, state []float64) {
	row := s.erows.alloc()
	copy(s.erows.row(row), state)
	e := s.ents.at(i)
	_, prev := s.older.alloc() // epoch row ids and link ids advance in lockstep
	*prev = e.head
	e.head = row
	e.nep++
	fresh := e.win != s.curWin+1
	if fresh {
		e.win = s.curWin + 1
		s.winTotal++
	}
	switch {
	case e.nep == 2:
		// This epoch flipped the key's full-history value untrustworthy.
		s.invalid++
		s.winInvalid++
	case e.nep > 2 && fresh:
		// Already invalid before this window; its first touch this window
		// still counts against window accuracy.
		s.winInvalid++
	}
}

// value returns entry i's trustworthy full-window value, if any.
func (s *Store) value(i int32) ([]float64, bool) {
	e := s.ents.at(i)
	switch {
	case e.merged:
		return s.state(i), true
	case e.nep == 1:
		return s.erows.row(e.head), true
	default:
		return nil, false
	}
}

// Get returns the merged value for key. For non-mergeable folds it returns
// the value only when the key is valid (exactly one epoch). Like every
// keyed read it settles held-back rows first.
func (s *Store) Get(key packet.Key128) ([]float64, bool) {
	s.Settle()
	i, ok := s.ix.get(key)
	if !ok {
		return nil, false
	}
	return s.value(i)
}

// Epochs returns every per-eviction value recorded for key (non-mergeable
// folds). Multi-epoch keys are invalid as totals but each epoch is correct
// over its own interval.
func (s *Store) Epochs(key packet.Key128) []Epoch {
	s.Settle()
	i, ok := s.ix.get(key)
	if !ok {
		return nil
	}
	e := s.ents.at(i)
	if e.nep == 0 {
		return nil
	}
	out := make([]Epoch, e.nep)
	for at, row := len(out)-1, e.head; row >= 0; at, row = at-1, *s.older.at(row) {
		out[at].State = s.erows.row(row) // links run newest to oldest
	}
	return out
}

// Valid reports whether key's value is trustworthy for the full window:
// always true for mergeable folds, one-epoch-only for the rest.
func (s *Store) Valid(key packet.Key128) bool {
	s.Settle()
	i, ok := s.ix.get(key)
	if !ok {
		return false
	}
	_, ok = s.value(i)
	return ok
}

// Len returns the number of keys present, held-back rows included.
func (s *Store) Len() int { return s.ents.n + s.held.n }

// Accuracy returns (valid, total) key counts — Figure 6's metric.
// Multi-epoch keys are counted as they form, so this is O(1). A held-back
// row is a one-epoch or merged key: always valid.
func (s *Store) Accuracy() (valid, total int) {
	total = s.Len()
	return total - s.invalid, total
}

// At returns key i (0 ≤ i < Len, in insertion order — entries, then the
// rows a flush held back, in flush order): its key and its full-window
// value, or a nil state and valid == false when that value is
// untrustworthy (a multi-epoch key of a non-mergeable fold) — the
// network-wide collector propagates such within-switch invalidity into
// its spatial accuracy accounting.
func (s *Store) At(i int) (key packet.Key128, state []float64, valid bool) {
	if j := i - s.ents.n; j >= 0 {
		return *s.held.at(int32(j)), s.hvals.row(int32(j)), true
	}
	state, valid = s.value(int32(i))
	return s.ents.at(int32(i)).key, state, valid
}

// BeginWindow opens a new window-scoped accounting interval: the keys
// WindowAccuracy counts are those touched (merged or appended) after this
// call. State is untouched — this is the carry-over half of the epoch
// runtime's window close, where the store keeps accumulating across the
// boundary and only the accounting restarts.
func (s *Store) BeginWindow() {
	s.curWin++
	s.winTotal, s.winInvalid = 0, 0
}

// WindowAccuracy returns (valid, total) key counts over the keys touched
// since the last BeginWindow: a touched key is window-valid when its
// full-history value is still trustworthy (always, for mergeable folds;
// single-epoch-only for the rest). Under tumbling windows — Reset at
// every boundary — this coincides with Accuracy; under carry-over it is
// the per-window stability metric: long-lived keys of a non-mergeable
// fold re-evicted across a boundary turn window-invalid, which is why
// shorter flush epochs lower whole-run accuracy (§3.2).
func (s *Store) WindowAccuracy() (valid, total int) {
	return s.winTotal - s.winInvalid, s.winTotal
}

// Reset drops all keys (the tumbling half of a window close), held-back
// rows without settling them. The window-scoped counters restart with the
// key space; index and arena memory is retained, so the next window's
// refill is allocation-free until the key space outgrows every previous
// one.
func (s *Store) Reset() {
	s.ix.reset()
	s.ents.reset()
	s.slab.reset()
	s.erows.reset()
	s.older.reset()
	s.held.reset()
	s.hvals.reset()
	s.invalid = 0
	s.merges, s.appends = 0, 0
	s.winTotal, s.winInvalid = 0, 0
}

// Stats describes reconciliation activity.
type Stats struct {
	Keys    int
	Merges  uint64
	Appends uint64
}

// Stats returns reconciliation counters.
func (s *Store) Stats() Stats {
	return Stats{Keys: s.Len(), Merges: s.merges, Appends: s.appends}
}

// Add returns the field-wise sum of two counters. Shard-local stores
// partition the key space, so summing Keys across shards is an exact
// count, not an over-count.
func (s Stats) Add(o Stats) Stats {
	return Stats{Keys: s.Keys + o.Keys, Merges: s.Merges + o.Merges, Appends: s.Appends + o.Appends}
}

// String summarizes the store.
func (s *Store) String() string {
	return fmt.Sprintf("backing{fold=%s keys=%d merges=%d appends=%d}",
		s.f.Name(), s.Len(), s.merges, s.appends)
}
