package obs

import (
	"sync"
	"testing"
)

// TestJournalGapFree pins the sequencing contract on a quiet journal:
// sequences start at 1, a full tail is exactly {1..N} in order, and the
// kind filter keeps ordering while dropping other kinds.
func TestJournalGapFree(t *testing.T) {
	j := NewJournal(1 << 10)
	const n = 100
	kinds := []EventKind{EvWindowClose, EvBarrier, EvMarkdown, EvHealthDown, EvQueueOverflow}
	for i := 0; i < n; i++ {
		j.Append(kinds[i%len(kinds)], int64(i), int64(i*2), "site")
	}
	if j.Seq() != n {
		t.Fatalf("Seq = %d, want %d", j.Seq(), n)
	}
	if j.Overwritten() != 0 {
		t.Fatalf("Overwritten = %d, want 0", j.Overwritten())
	}
	tail := j.Tail(0)
	if len(tail) != n {
		t.Fatalf("Tail returned %d events, want %d", len(tail), n)
	}
	for i, ev := range tail {
		if ev.Seq != uint64(i+1) {
			t.Fatalf("event %d has seq %d, want %d — tail has a gap", i, ev.Seq, i+1)
		}
		if ev.A != int64(i) {
			t.Fatalf("event %d payload A = %d, want %d", i, ev.A, i)
		}
	}

	// n=5 keeps the five most recent, still in order.
	last := j.Tail(5)
	if len(last) != 5 || last[0].Seq != n-4 || last[4].Seq != n {
		t.Fatalf("Tail(5) = seqs %d..%d (%d events), want %d..%d",
			last[0].Seq, last[len(last)-1].Seq, len(last), n-4, n)
	}

	// Kind filter: only barriers, still sequence-ordered.
	barriers := j.Tail(0, EvBarrier)
	if len(barriers) != n/len(kinds) {
		t.Fatalf("barrier filter returned %d events, want %d", len(barriers), n/len(kinds))
	}
	for i := 1; i < len(barriers); i++ {
		if barriers[i].Kind != EvBarrier || barriers[i].Seq <= barriers[i-1].Seq {
			t.Fatalf("filtered tail out of order or wrong kind at %d", i)
		}
	}
}

// TestJournalOverwrite: past capacity the ring drops oldest per stripe
// and counts it; the tail stays sequence-ordered and duplicate-free.
func TestJournalOverwrite(t *testing.T) {
	j := NewJournal(journalStripes) // one event per stripe
	const n = 64
	for i := 0; i < n; i++ {
		j.Append(EvWindowClose, int64(i), 0, "")
	}
	if j.Overwritten() == 0 {
		t.Fatal("no overwrites counted past capacity")
	}
	tail := j.Tail(0)
	if len(tail) != 1 {
		t.Fatalf("single-slot stripe retains %d events, want 1", len(tail))
	}
	if tail[0].Seq != n {
		t.Fatalf("retained seq %d, want the newest (%d)", tail[0].Seq, n)
	}
}

// TestJournalNil: a nil journal is inert everywhere, so call sites need
// no guard.
func TestJournalNil(t *testing.T) {
	var j *Journal
	j.Append(EvBarrier, 1, 2, "x")
	if j.Seq() != 0 || j.Overwritten() != 0 || j.Tail(10) != nil {
		t.Fatal("nil journal is not inert")
	}
}

// TestJournalConcurrent is the race test: hammer Append from many
// goroutines across every kind while readers Tail mid-flight, then
// assert every mid-flight snapshot was a prefix-closed cut — sorted,
// duplicate-free, gap-free — and the final tail is exactly {1..N}.
// Run it under -race; the suite's race pattern picks it up by name.
func TestJournalConcurrent(t *testing.T) {
	const (
		writers   = 8
		perWriter = 500
	)
	// 2x capacity so no stripe overwrites: kinds stripe by kind&7 and ten
	// kinds over eight stripes load stripes 0-1 doubly.
	j := NewJournal(2 * writers * perWriter)
	var writeWg, readWg sync.WaitGroup
	stop := make(chan struct{})

	// Readers: every snapshot must be gap-free from seq 1.
	snapErr := make(chan string, 4)
	for r := 0; r < 2; r++ {
		readWg.Add(1)
		go func() {
			defer readWg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				tail := j.Tail(0)
				for i, ev := range tail {
					if ev.Seq != uint64(i+1) {
						select {
						case snapErr <- "mid-flight tail has a gap or duplicate":
						default:
						}
						return
					}
				}
			}
		}()
	}

	for w := 0; w < writers; w++ {
		writeWg.Add(1)
		go func(w int) {
			defer writeWg.Done()
			for i := 0; i < perWriter; i++ {
				j.Append(EventKind(i%numEventKinds), int64(w), int64(i), "addr")
			}
		}(w)
	}
	writeWg.Wait()
	close(stop)
	readWg.Wait()
	select {
	case msg := <-snapErr:
		t.Fatal(msg)
	default:
	}

	const n = writers * perWriter
	if j.Seq() != n {
		t.Fatalf("Seq = %d, want %d", j.Seq(), n)
	}
	if j.Overwritten() != 0 {
		t.Fatalf("Overwritten = %d, want 0 at this capacity", j.Overwritten())
	}
	tail := j.Tail(0)
	if len(tail) != n {
		t.Fatalf("final tail has %d events, want %d", len(tail), n)
	}
	for i, ev := range tail {
		if ev.Seq != uint64(i+1) {
			t.Fatalf("final tail gap at %d: seq %d", i, ev.Seq)
		}
	}
}
