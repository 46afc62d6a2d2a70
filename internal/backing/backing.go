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
// Storage is allocation-free in steady state: an open-addressing Key128
// table (index.go) maps keys to entry ids, and entries, their state
// rows, and per-eviction epoch values all live in chunked arenas
// (arena.go) that Reset retains. The eviction hot path touches the Go
// allocator only when the key space outgrows every previous window.
package backing

import (
	"fmt"

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
// (non-mergeable folds) form a linked list of arena nodes off head/tail
// with nep counting them. win is the last measurement window
// (BeginWindow counter) that touched the entry — the window-scoped
// accuracy bookkeeping of the epoch runtime.
type entry struct {
	key        packet.Key128
	head, tail int32 // epoch node list; -1 = none
	nep        int32
	merged     bool
	win        uint32
}

// epochNode is one recorded eviction epoch: a row in the epoch-row
// arena plus the next node in the entry's list.
type epochNode struct {
	row  int32
	next int32 // -1 = end
}

// Store is the backing key-value store.
type Store struct {
	f  *fold.Func
	m  int
	s0 []float64 // the fold's initial state, for P-only merges
	ix keyIndex

	ents  chunked[entry] // entry id = state row id in slab
	slab  rowArena       // one state row per entry (merged values)
	nodes chunked[epochNode]
	erows rowArena // one state row per recorded epoch

	invalid int // keys with >1 epoch (non-mergeable folds)
	merges  uint64
	appends uint64

	// Merge-path scratch, store-owned so replaying an epoch's first
	// packet through the fold's indirect Update call allocates nothing.
	firstIn fold.Input
	mscr    fold.MergeScratch

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
	return &Store{f: f, m: m, s0: s0, slab: rowArena{m: m}, erows: rowArena{m: m}}
}

// slot returns the entry's id, creating it on first sight. Entry ids and
// state-row ids advance in lockstep, so an entry's merged state is
// always slab row id.
func (s *Store) slot(key packet.Key128) int32 {
	i, ok := s.ix.claim(key, int32(s.ents.n))
	if !ok {
		_, e := s.ents.alloc()
		*e = entry{key: key, head: -1, tail: -1}
		copy(s.slab.row(s.slab.alloc()), s.s0)
	}
	return i
}

// state returns entry i's merged-state row.
func (s *Store) state(i int32) []float64 {
	return s.slab.row(i)
}

// HandleEviction implements the cache's eviction callback contract.
func (s *Store) HandleEviction(ev *kvstore.Eviction) {
	switch s.f.Merge {
	case fold.MergeLinear:
		if ev.P == nil {
			// The cache ran without exact-merge machinery; fall back to
			// epoch semantics so results are still usable per interval.
			s.appendEpoch(ev)
			return
		}
		i := s.slot(ev.Key)
		s.touchValid(i)
		s.ents.at(i).merged = true
		st := s.state(i)
		if ev.FirstRec != nil {
			// History coefficients: P excludes the epoch's first packet,
			// which is replayed from the snapshot.
			s.firstIn = fold.Input{Rec: ev.FirstRec}
			fold.MergeWithFirstRecScratch(s.f, st, ev.State, ev.P, st, &s.firstIn, &s.mscr)
		} else {
			// History-free coefficients: P covers the whole epoch.
			fold.MergeLinearState(st, ev.State, ev.P, st, s.s0, s.m)
		}
		s.merges++
	case fold.MergeAssoc:
		i := s.slot(ev.Key)
		s.touchValid(i)
		s.ents.at(i).merged = true
		s.f.Combine(s.state(i), ev.State)
		s.merges++
	default:
		s.appendEpoch(ev)
	}
}

// touchValid records a window-scoped update of entry i whose merged value
// stays trustworthy (exact-merge and associative reconciliations).
func (s *Store) touchValid(i int32) {
	if e := s.ents.at(i); e.win != s.curWin+1 {
		e.win = s.curWin + 1
		s.winTotal++
	}
}

func (s *Store) appendEpoch(ev *kvstore.Eviction) {
	i := s.slot(ev.Key)
	row := s.erows.alloc()
	copy(s.erows.row(row), ev.State)
	ni, n := s.nodes.alloc()
	*n = epochNode{row: row, next: -1}
	e := s.ents.at(i)
	if e.tail >= 0 {
		s.nodes.at(e.tail).next = ni
	} else {
		e.head = ni
	}
	e.tail = ni
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
	s.appends++
}

// value returns entry i's trustworthy full-window value, if any.
func (s *Store) value(i int32) ([]float64, bool) {
	e := s.ents.at(i)
	switch {
	case e.merged:
		return s.state(i), true
	case e.nep == 1:
		return s.erows.row(s.nodes.at(e.head).row), true
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
	out := make([]Epoch, 0, e.nep)
	for ni := e.head; ni >= 0; ni = s.nodes.at(ni).next {
		out = append(out, Epoch{State: s.erows.row(s.nodes.at(ni).row)})
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
	s.ix.reset(&s.ents)
	s.ents.reset()
	s.slab.reset()
	s.nodes.reset()
	s.erows.reset()
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
