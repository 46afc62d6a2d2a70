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
// (HandleEviction) is a batch of one.
//
// Storage is allocation-free in steady state: an open-addressing Key128
// table (index.go) maps keys to entry ids, and entries, their state
// rows, and per-eviction epoch values all live in chunked arenas
// (arena.go) that Reset retains. The eviction hot path touches the Go
// allocator only when the key space outgrows every previous window.
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

	invalid int // keys with >1 epoch (non-mergeable folds)
	merges  uint64
	appends uint64

	// Merge-path scratch, store-owned so replaying an epoch's first
	// packet through the fold's indirect Update call allocates nothing.
	firstIn fold.Input
	mscr    fold.MergeScratch

	// HandleBatch's per-lane columns, and what its warming loads add up
	// to — stored so that the loads are not dead code.
	hash [fold.BlockSize]uint64
	ids  [fold.BlockSize]int32
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
	s := &Store{f: f, m: m, s0: s0, slab: rowArena{m: m}, erows: rowArena{m: m}}
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
// exactly as it would one eviction at a time.
func (s *Store) HandleBatch(b *kvstore.EvictBatch) {
	n := b.N
	// A linear fold whose cache ran without the exact-merge machinery falls
	// back to epoch semantics, so results are still usable per interval.
	kind := s.f.Merge
	if kind == fold.MergeLinear && b.P[0] == nil {
		kind = fold.MergeNone
	}
	keys, hash, ids := b.Keys[:n], s.hash[:n], s.ids[:n]
	warm := s.warm
	for l := range keys {
		h := keys[l].Hash()
		hash[l] = h
		sl := &s.ix.slots[h&s.ix.mask]
		warm += uint32(sl.key[0]) + sl.tag // both ends: a slot may straddle two lines
	}
	for l := range keys {
		ids[l] = s.slot(keys[l], hash[l])
	}
	// Loops of their own, so that nothing but loads sits between one
	// lane's miss and the next lane's.
	for _, i := range ids {
		warm += s.ents.at(i).win
	}
	if kind != fold.MergeNone {
		for _, i := range ids {
			warm += uint32(math.Float64bits(s.state(i)[0]))
		}
	}
	s.warm = warm

	switch {
	case kind == fold.MergeNone:
		for l, i := range ids {
			s.appendEpoch(i, b.State[l])
		}
		s.appends += uint64(n)
		return
	case kind == fold.MergeAssoc:
		for l, i := range ids {
			s.touchMerged(i)
			s.f.Combine(s.state(i), b.State[l])
		}
	case b.First[0] != nil:
		// History coefficients: P excludes the epoch's first packet,
		// which is replayed from the snapshot.
		for l, i := range ids {
			s.touchMerged(i)
			st := s.state(i)
			s.firstIn = fold.Input{Rec: b.First[l]}
			fold.MergeWithFirstRec(s.f, st, b.State[l], b.P[l], st, &s.firstIn, &s.mscr)
		}
	case s.m == 1:
		// History-free coefficients, P covering the whole epoch:
		// fold.MergeLinearState's scalar case, in line.
		s0 := s.s0[0]
		for l, i := range ids {
			s.touchMerged(i)
			st := s.state(i)
			st[0] = b.State[l][0] + b.P[l][0]*(st[0]-s0)
		}
	default:
		for l, i := range ids {
			s.touchMerged(i)
			st := s.state(i)
			fold.MergeLinearState(st, b.State[l], b.P[l], st, s.s0, s.m)
		}
	}
	s.merges += uint64(n)
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
// the value only when the key is valid (exactly one epoch).
func (s *Store) Get(key packet.Key128) ([]float64, bool) {
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
	i, ok := s.ix.get(key)
	if !ok {
		return false
	}
	_, ok = s.value(i)
	return ok
}

// Len returns the number of keys present.
func (s *Store) Len() int { return s.ents.n }

// Accuracy returns (valid, total) key counts — Figure 6's metric.
// Multi-epoch keys are counted as they form, so this is O(1).
func (s *Store) Accuracy() (valid, total int) {
	total = s.ents.n
	return total - s.invalid, total
}

// At returns entry i (0 ≤ i < Len, in insertion order): its key and its
// full-window value, or a nil state and valid == false when that value is
// untrustworthy (a multi-epoch key of a non-mergeable fold) — the
// network-wide collector propagates such within-switch invalidity into
// its spatial accuracy accounting.
func (s *Store) At(i int) (key packet.Key128, state []float64, valid bool) {
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

// Reset drops all keys (the tumbling half of a window close). The
// window-scoped counters restart with the key space; index and arena
// memory is retained, so the next window's refill is allocation-free
// until the key space outgrows every previous one.
func (s *Store) Reset() {
	s.ix.reset()
	s.ents.reset()
	s.slab.reset()
	s.erows.reset()
	s.older.reset()
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
	return Stats{Keys: s.ents.n, Merges: s.merges, Appends: s.appends}
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
		s.f.Name(), s.ents.n, s.merges, s.appends)
}
