// Package window is the epoch runtime: it slices a record stream into
// measurement windows — by record count or by virtual timestamp — and
// drives a datapath through them, closing every window with a flush +
// materialize + reset-or-carry cycle and handing the per-window tables
// to the caller as they complete.
//
// The paper's evaluation (§3.2, Figure 6) treats the query window as a
// first-class knob: every aggregation is exact *within* a window, and
// non-linear aggregations lose accuracy exactly when a key's state is
// split across window (epoch) boundaries. This package turns that knob
// into a runtime: a continuous query is just the same plan closed over
// and over, with two boundary semantics —
//
//   - Tumbling (Spec.Carry == false): every store resets at the
//     boundary, so window k's tables are bit-equivalent to running the
//     whole pipeline over window k's record slice alone. This is "run
//     the query over a shorter interval": per-window accuracy of
//     non-linear folds *rises* as windows shrink (fewer evictions per
//     key per window — Figure 6's per-interval view).
//   - Carry-over (Spec.Carry == true): caches flush at the boundary (the
//     paper's periodic SRAM refresh) but backing stores keep
//     accumulating, so window k's tables cover records 0..k. Linear
//     folds stay exact across boundaries — each post-boundary cache
//     epoch snapshots its own first packet, so the §3.2 merge replays
//     history folds correctly — while every boundary crossing appends
//     one more epoch to a non-mergeable key: whole-run accuracy *falls*
//     as the flush epoch shrinks. That opposing pair is the SRAM-churn
//     vs accuracy trade the epoch length controls.
//
// The scheduler drives any Runner — the single-switch datapath, the
// network-wide fabric (whose per-switch workers are barriered at every
// boundary so epochs align across the network in record order), or the
// unbounded ground truth used by the equivalence suites.
package window

import (
	"fmt"
	"time"

	"perfq/internal/exec"
	"perfq/internal/obs"
	"perfq/internal/switchsim"
	"perfq/internal/trace"
)

// Spec describes the window schedule. Exactly one of Count/IntervalNs
// must be positive.
type Spec struct {
	// Count > 0 closes a window after every Count records.
	Count int64
	// IntervalNs > 0 closes windows at virtual-time boundaries of the
	// record stream (Record.Tin), anchored at the first record's Tin.
	// Gaps longer than one interval yield empty windows, so window
	// indices stay aligned to wall time.
	IntervalNs int64
	// Carry selects carry-over boundaries (state persists, windows are
	// cumulative) instead of the default tumbling reset.
	Carry bool
	// Obs, when non-nil, instruments the schedule: close latency
	// histogram, closed/empty window counts. Recording happens once per
	// window close, never per record.
	Obs *obs.WindowMetrics
	// Journal, when non-nil, receives one window-close event per closed
	// window (a = window index, b = records fed; reused empty windows
	// included). Appended once per close, never per record.
	Journal *obs.Journal
}

// Validate rejects unusable specs.
func (s Spec) Validate() error {
	switch {
	case s.Count > 0 && s.IntervalNs > 0:
		return fmt.Errorf("window: spec sets both Count and IntervalNs")
	case s.Count <= 0 && s.IntervalNs <= 0:
		return fmt.Errorf("window: spec needs Count or IntervalNs > 0")
	}
	return nil
}

// String renders the schedule for reports.
func (s Spec) String() string {
	mode := "tumbling"
	if s.Carry {
		mode = "carry"
	}
	if s.Count > 0 {
		return fmt.Sprintf("every %d records (%s)", s.Count, mode)
	}
	return fmt.Sprintf("every %dns (%s)", s.IntervalNs, mode)
}

// cutter assigns a window index to every record of a stream, in order.
// Both the live scheduler and the ground-truth slicer run the same
// cutter, which is what makes their window schedules — including the
// clamping of slightly late records into the open window — identical.
type cutter struct {
	spec    Spec
	started bool
	origin  int64 // first record's Tin (ByTime anchor)
	count   int64 // records assigned so far
	cur     int64 // current (open) window index
}

// next returns the window index rec belongs to. Indices never decrease:
// a record whose timestamp falls before the open window's start is
// counted into the open window (the stream is time-ordered by contract;
// this makes minor reordering harmless rather than fatal).
func (c *cutter) next(rec *trace.Record) int64 {
	if !c.started {
		c.started = true
		c.origin = rec.Tin
	}
	var w int64
	if c.spec.Count > 0 {
		w = c.count / c.spec.Count
	} else {
		w = (rec.Tin - c.origin) / c.spec.IntervalNs
		if w < c.cur {
			w = c.cur
		}
	}
	c.count++
	return w
}

// Result is one closed window's output.
type Result struct {
	// Index is the window's position in the schedule, from 0.
	Index int64
	// Records is how many records the window received (0 for the empty
	// windows a time gap produces).
	Records int64
	// StartNs/EndNs bound the window in virtual time (IntervalNs
	// schedules only; zero for count-based windows).
	StartNs, EndNs int64
	// Tables holds every plan stage's table for the window (cumulative
	// under carry-over).
	Tables map[string]*exec.Table
	// Acc is the per-program (valid, total) backing-store accuracy at the
	// close; for fabric runners it is the network-wide spatial accuracy.
	Acc []switchsim.Acc
}

// Runner is the windowed runtime's view of an execution engine —
// implemented by *switchsim.Datapath, *fabric.Fabric and the
// ground-truth replayers. Feed must copy any records it retains past
// return; CloseWindow must barrier outstanding fed records, flush,
// materialize all plan tables, and reset or carry per-store state. The
// acc slice CloseWindow returns may be borrowed from the runner (valid
// only until its next close); Stream snapshots it into each Result.
type Runner interface {
	Feed(recs []trace.Record)
	CloseWindow(carry bool) (map[string]*exec.Table, []switchsim.Acc, error)
}

// Finisher is implemented by runners with worker goroutines to release
// (the datapath's worker pool). Stream
// calls it once the stream ends.
type Finisher interface {
	EndFeed()
}

// Stream drives src through r under the spec's window schedule, calling
// emit after every window close (including the final partial window and
// any empty windows a time gap produces). It returns the number of
// windows closed. An emit error aborts the stream and is returned
// verbatim; a source error is returned after closing nothing further
// (records already fed stay fed, but no partial window is emitted for
// them). A drained source with zero records closes zero windows.
func Stream(src trace.Source, spec Spec, r Runner, emit func(*Result) error) (int64, error) {
	if err := spec.Validate(); err != nil {
		return 0, err
	}
	s := &scheduler{spec: spec, c: cutter{spec: spec}, r: r, emit: emit}
	defer func() {
		if f, ok := r.(Finisher); ok {
			f.EndFeed()
		}
	}()
	if err := trace.EachBatch(src, s.feed); err != nil {
		return s.closed, err
	}
	if s.c.started {
		if err := s.closeTo(s.c.cur + 1); err != nil {
			return s.closed, err
		}
	}
	return s.closed, nil
}

// scheduler is Stream's per-invocation state.
type scheduler struct {
	spec    Spec
	c       cutter
	r       Runner
	emit    func(*Result) error
	closed  int64   // windows closed so far
	winRecs int64   // records fed into the open window
	prev    *Result // last closed window (reused by empty windows)
}

// closeTo closes windows closed..target-1 (all but the last necessarily
// empty — they exist only when a time gap spans whole intervals).
func (s *scheduler) closeTo(target int64) error {
	for s.closed < target {
		var (
			tables map[string]*exec.Table
			acc    []switchsim.Acc
			err    error
		)
		if s.winRecs == 0 && s.prev != nil && (s.spec.Carry || s.prev.Records == 0) {
			// Empty window after a close that left the stores as this one
			// would: carry-over stores were fed nothing since, and tumbling
			// ones were reset and fed nothing twice over. The tables and
			// accuracy are unchanged; skip the redundant flush + collector
			// merge. Only the window-scoped counts differ: nothing was
			// touched, so they are zero.
			tables = s.prev.Tables
			acc = make([]switchsim.Acc, len(s.prev.Acc))
			for i, a := range s.prev.Acc {
				a.WinValid, a.WinTotal = 0, 0
				acc[i] = a
			}
		} else {
			var t0 time.Time
			if s.spec.Obs != nil {
				t0 = time.Now()
			}
			tables, acc, err = s.r.CloseWindow(s.spec.Carry)
			if err != nil {
				return err
			}
			if s.spec.Obs != nil {
				s.spec.Obs.CloseNs.Record(uint64(time.Since(t0)))
			}
			// The runner's acc is borrowed until its next close; the Result
			// outlives that (emit retains it, and prev feeds empty
			// carry-over windows), so snapshot it here.
			acc = append([]switchsim.Acc(nil), acc...)
		}
		res := &Result{
			Index:   s.closed,
			Records: s.winRecs,
			Tables:  tables,
			Acc:     acc,
		}
		if s.spec.IntervalNs > 0 {
			res.StartNs = s.c.origin + s.closed*s.spec.IntervalNs
			res.EndNs = res.StartNs + s.spec.IntervalNs
		}
		if m := s.spec.Obs; m != nil {
			m.Closed.Inc(0)
			if s.winRecs == 0 {
				m.Empty.Inc(0)
			}
		}
		s.spec.Journal.Append(obs.EvWindowClose, s.closed, s.winRecs, "")
		s.winRecs = 0
		s.closed++
		s.prev = res
		if s.emit != nil {
			if err := s.emit(res); err != nil {
				return err
			}
		}
	}
	return nil
}

// feed cuts one pulled batch at the window boundaries inside it and
// hands the runner each window-aligned piece in place, closing the
// windows between them — records never straddle a close, whatever the
// source's batch length.
func (s *scheduler) feed(recs []trace.Record) error {
	lo := 0
	for i := range recs {
		w := s.c.next(&recs[i])
		if w > s.c.cur {
			s.feedWindow(recs[lo:i])
			lo = i
			if err := s.closeTo(w); err != nil {
				return err
			}
			s.c.cur = w
		}
	}
	s.feedWindow(recs[lo:])
	return nil
}

// feedWindow feeds a piece of the open window (empty when a boundary
// falls on a batch edge).
func (s *scheduler) feedWindow(recs []trace.Record) {
	if len(recs) > 0 {
		s.r.Feed(recs)
		s.winRecs += int64(len(recs))
	}
}

// Slices returns each window's [start, end) record-index range over recs
// under the spec's schedule — the exact slicing Stream applies, empty
// middle windows included. The equivalence suites replay ground truth
// over these slices (tumbling) or prefixes recs[:end] (carry-over).
func (s Spec) Slices(recs []trace.Record) [][2]int {
	if s.Validate() != nil || len(recs) == 0 {
		return nil
	}
	c := cutter{spec: s}
	var out [][2]int
	lo := 0
	for i := range recs {
		w := c.next(&recs[i])
		for w > c.cur {
			out = append(out, [2]int{lo, i})
			lo = i
			c.cur++
		}
	}
	out = append(out, [2]int{lo, len(recs)})
	return out
}
