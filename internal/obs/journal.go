package obs

import (
	"sync"
	"sync/atomic"
	"time"
)

// The control-plane flight recorder: a bounded lock-striped journal of
// structured events. Aggregate counters say *how much* degraded; the
// journal says *in what order* — a redial failed and the pool marked
// the backend down, then the queue overflowed, then the window closed
// late. Appends happen only on control-plane edges (window closes,
// barriers, health flips, markdowns, queue overflow, a datapath's first
// program-set split), so a
// mutexed ring append is far below the noise floor; the sequence number
// is allocated under the stripe lock so a reader that locks the stripes
// can never observe a published event whose predecessors are missing —
// the journal tail is gap-free up to ring overwrite.

// EventKind classifies a journal event.
type EventKind uint8

// Event kinds, roughly in datapath-degradation order.
const (
	EvWindowClose EventKind = iota
	EvWindowDrop
	EvBarrier
	EvHealthUp
	EvHealthDown
	EvMarkdown
	EvQueueOverflow
	EvProgramSets // a datapath first split an in-place run: A sets, B programs

	numEventKinds = int(EvProgramSets) + 1
)

var eventNames = [numEventKinds]string{
	"window-close", "window-drop", "barrier",
	"health-up", "health-down", "markdown", "queue-overflow", "program-sets",
}

// String names the kind the way /debug/events renders it.
func (k EventKind) String() string {
	if int(k) < numEventKinds {
		return eventNames[k]
	}
	return "?"
}

// EventKindByName resolves a rendered name back to its kind (for the
// /debug/events filter); ok is false for unknown names.
func EventKindByName(name string) (EventKind, bool) {
	for i, n := range eventNames {
		if n == name {
			return EventKind(i), true
		}
	}
	return 0, false
}

// Event is one journal entry. A and B are kind-defined numerics (e.g.
// window index + close ns for EvWindowClose, queue depth + evictions
// dropped with the oldest chunk for EvQueueOverflow); Msg carries the kind-defined identity (backend
// address, barrier site).
type Event struct {
	Seq  uint64    `json:"seq"`
	T    int64     `json:"t_unix_ns"`
	Kind EventKind `json:"-"`
	A    int64     `json:"a"`
	B    int64     `json:"b"`
	Msg  string    `json:"msg,omitempty"`
}

// journalStripes is the lock stripe count (power of two).
const journalStripes = 8

// jstripe is one mutexed bounded event ring.
type jstripe struct {
	mu     sync.Mutex
	events []Event
	next   uint64
	_      [16]byte // keep stripe headers off each other's lines
}

// Journal is the bounded lock-striped flight recorder.
type Journal struct {
	seq       atomic.Uint64
	overwrite atomic.Uint64 // events lost to ring reuse
	stripes   [journalStripes]jstripe
}

// DefaultJournal is the default total event capacity.
const DefaultJournal = 4096

// NewJournal builds a journal retaining about `size` events in total
// (split evenly across the stripes); size <= 0 selects DefaultJournal.
func NewJournal(size int) *Journal {
	if size <= 0 {
		size = DefaultJournal
	}
	per := size / journalStripes
	if per < 1 {
		per = 1
	}
	j := &Journal{}
	for i := range j.stripes {
		j.stripes[i].events = make([]Event, 0, per)
	}
	return j
}

// Append records one event. Safe for any number of concurrent
// appenders; nil journals are inert so call sites need no guard.
func (j *Journal) Append(kind EventKind, a, b int64, msg string) {
	if j == nil {
		return
	}
	st := &j.stripes[int(kind)&(journalStripes-1)]
	now := time.Now().UnixNano()
	st.mu.Lock()
	seq := j.seq.Add(1)
	ev := Event{Seq: seq, T: now, Kind: kind, A: a, B: b, Msg: msg}
	if len(st.events) < cap(st.events) {
		st.events = append(st.events, ev)
	} else {
		st.events[int(st.next)%cap(st.events)] = ev
		j.overwrite.Add(1)
	}
	st.next++
	st.mu.Unlock()
}

// Seq returns the latest allocated sequence number.
func (j *Journal) Seq() uint64 {
	if j == nil {
		return 0
	}
	return j.seq.Load()
}

// Overwritten returns how many events were lost to ring reuse.
func (j *Journal) Overwritten() uint64 {
	if j == nil {
		return 0
	}
	return j.overwrite.Load()
}

// Tail returns up to n retained events ordered by sequence (oldest
// first), filtered to the given kinds (no kinds = all). Scrape-side
// only: allocates freely.
func (j *Journal) Tail(n int, kinds ...EventKind) []Event {
	if j == nil {
		return nil
	}
	var keep func(EventKind) bool
	if len(kinds) == 0 {
		keep = func(EventKind) bool { return true }
	} else {
		var mask uint64
		for _, k := range kinds {
			mask |= 1 << uint(k)
		}
		keep = func(k EventKind) bool { return mask&(1<<uint(k)) != 0 }
	}
	// Hold every stripe lock at once while copying: with a sequence
	// allocated under its stripe's lock, a whole-journal lock means the
	// copied set is a prefix-closed cut of the sequence — no event can
	// appear without its lower-sequence predecessors (modulo overwrite).
	var out []Event
	for i := range j.stripes {
		j.stripes[i].mu.Lock()
	}
	for i := range j.stripes {
		for _, ev := range j.stripes[i].events {
			if keep(ev.Kind) {
				out = append(out, ev)
			}
		}
	}
	for i := range j.stripes {
		j.stripes[i].mu.Unlock()
	}
	sortEvents(out)
	if n > 0 && len(out) > n {
		out = out[len(out)-n:]
	}
	return out
}

// sortEvents orders events by sequence using a binary-insertion sort
// (scrape-side; event counts are journal-bounded).
func sortEvents(ev []Event) {
	for i := 1; i < len(ev); i++ {
		for j := i; j > 0 && ev[j-1].Seq > ev[j].Seq; j-- {
			ev[j-1], ev[j] = ev[j], ev[j-1]
		}
	}
}
