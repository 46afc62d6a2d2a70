package trace

import (
	"bytes"
	"errors"
	"io"
	"testing"
)

// nextOnly hides everything but Next, and ends with err after its
// records.
type nextOnly struct {
	recs []Record
	err  error
}

func (s *nextOnly) Next(rec *Record) error {
	if len(s.recs) == 0 {
		return s.err
	}
	*rec = s.recs[0]
	s.recs = s.recs[1:]
	return nil
}

func sampleRecords(n int) []Record {
	recs := make([]Record, n)
	for i := range recs {
		recs[i] = sampleRecord(i)
	}
	return recs
}

// pqtBytes encodes recs as a pqt file.
func pqtBytes(t testing.TB, recs []Record) []byte {
	t.Helper()
	var buf bytes.Buffer
	w, err := NewWriter(&buf)
	if err != nil {
		t.Fatal(err)
	}
	for i := range recs {
		if err := w.Write(&recs[i]); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// drain pulls bs dry, checking the run contract: non-empty, at most max
// records, every run a view of one reused buffer. It returns a copy of
// the records and the error that ended the stream.
func drain(t testing.TB, bs BatchSource, max int) ([]Record, error) {
	t.Helper()
	var (
		out   []Record
		first *Record
	)
	for {
		recs, err := bs.NextBatch()
		if err != nil {
			if len(recs) != 0 {
				t.Fatalf("%d records alongside error %v", len(recs), err)
			}
			return out, err
		}
		if len(recs) == 0 || len(recs) > max {
			t.Fatalf("run of %d records, want 1..%d", len(recs), max)
		}
		if first == nil {
			first = &recs[0]
		} else if first != &recs[0] {
			t.Fatal("run is not a view of the reused batch buffer")
		}
		out = append(out, recs...)
	}
}

// TestBatchesAdaptor: a Next-only source comes out of the adaptor whole
// and in order at any buffer length, and the error that ended it —
// io.EOF or the source's own — arrives verbatim on the call after the
// short run, and again on every later call.
func TestBatchesAdaptor(t *testing.T) {
	want := sampleRecords(10)
	boom := errors.New("boom")
	for _, end := range []error{io.EOF, boom} {
		for _, size := range []int{1, 3, 5, 10, 16} {
			src := &nextOnly{recs: append([]Record(nil), want...), err: end}
			bs := &batcher{src: src, buf: make([]Record, size)}
			got, err := drain(t, bs, size)
			if err != end {
				t.Fatalf("size %d: ended with %v, want %v", size, err, end)
			}
			if len(got) != len(want) {
				t.Fatalf("size %d: %d records, want %d", size, len(got), len(want))
			}
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("size %d: record %d differs", size, i)
				}
			}
			if _, err := bs.NextBatch(); err != end {
				t.Fatalf("size %d: error not repeated: %v", size, err)
			}
		}
	}
	if _, ok := Batches(&nextOnly{err: io.EOF}).(*batcher); !ok {
		t.Error("Batches did not adapt a Next-only source")
	}
}

// TestSliceSourceBatch: a slice is its own batch pull — the unconsumed
// remainder, in place, once.
func TestSliceSourceBatch(t *testing.T) {
	recs := sampleRecords(5)
	src := &SliceSource{Records: recs}
	if Batches(src) != BatchSource(src) {
		t.Fatal("Batches wrapped a source that already batches")
	}
	var r Record
	if err := src.Next(&r); err != nil {
		t.Fatal(err)
	}
	rest, err := src.NextBatch()
	if err != nil || len(rest) != 4 || &rest[0] != &recs[1] {
		t.Fatalf("NextBatch = %d records, %v; want the 4-record remainder in place", len(rest), err)
	}
	if _, err := src.NextBatch(); err != io.EOF {
		t.Fatalf("drained slice: %v, want io.EOF", err)
	}
	src.Reset()
	if rest, _ := src.NextBatch(); len(rest) != 5 {
		t.Fatalf("after Reset: %d records, want 5", len(rest))
	}
}

// TestReaderBatchSteadyStateAllocs: past the first pull (which makes the
// run) a file replay allocates nothing, and both pulls can be mixed on
// one Reader without losing or repeating a record.
func TestReaderBatchSteadyStateAllocs(t *testing.T) {
	want := sampleRecords(20 * batchLen)
	r, err := NewReader(bytes.NewReader(pqtBytes(t, want)))
	if err != nil {
		t.Fatal(err)
	}
	var rec Record
	if err := r.Next(&rec); err != nil || rec != want[0] {
		t.Fatalf("Next = %+v, %v", rec, err)
	}
	n := 1
	pull := func() {
		recs, err := r.NextBatch()
		if err != nil {
			t.Fatal(err)
		}
		for i := range recs {
			if recs[i] != want[n+i] {
				t.Fatalf("record %d differs", n+i)
			}
		}
		n += len(recs)
	}
	pull()
	if allocs := testing.AllocsPerRun(8, pull); allocs != 0 {
		t.Errorf("steady-state NextBatch: %.1f allocs per pull, want 0", allocs)
	}
	if err := r.Next(&rec); err != nil || rec != want[n] {
		t.Fatalf("Next after batches: record %d = %+v, %v", n, rec, err)
	}
}

// FuzzReader holds the capture-file boundary to its contract on
// arbitrary bytes: no panic, no run beyond the one batch buffer, and the
// batch pull agrees with Next record for record and error for error —
// the same header verdict, ErrTruncated wherever the file is cut inside
// a record, a clean io.EOF otherwise, each repeated if asked again.
func FuzzReader(f *testing.F) {
	whole := pqtBytes(f, sampleRecords(3))
	f.Add(whole)
	for cut := len(whole) - recordSize; cut < len(whole); cut += 7 {
		f.Add(whole[:cut]) // every seventh cut inside the last record
	}
	f.Add(whole[:headerSize])
	f.Add(whole[:headerSize-1])
	f.Add([]byte("not a pqt file at all"))
	f.Add([]byte{})
	badSize := append([]byte(nil), whole...)
	badSize[6] = 32
	f.Add(badSize)

	f.Fuzz(func(t *testing.T, data []byte) {
		byNext, errNext := NewReader(bytes.NewReader(data))
		byBatch, errBatch := NewReader(bytes.NewReader(data))
		if errNext != nil {
			if errBatch == nil || errBatch.Error() != errNext.Error() {
				t.Fatalf("header verdicts differ: %v vs %v", errNext, errBatch)
			}
			if !errors.Is(errNext, ErrTruncated) && !errors.Is(errNext, ErrBadFormat) {
				t.Fatalf("header error %v is neither ErrTruncated nor ErrBadFormat", errNext)
			}
			return
		}
		var (
			want    []Record
			wantErr error
			rec     Record
		)
		for wantErr == nil {
			if wantErr = byNext.Next(&rec); wantErr == nil {
				want = append(want, rec)
			}
		}
		got, gotErr := drain(t, byBatch, batchLen)

		body := len(data) - headerSize
		if len(want) != body/recordSize || len(got) != len(want) {
			t.Fatalf("Next read %d records, NextBatch %d, the file holds %d", len(want), len(got), body/recordSize)
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("record %d: batch pull %+v, Next %+v", i, got[i], want[i])
			}
		}
		endErr := io.EOF
		if body%recordSize != 0 {
			endErr = errMidRecord
		}
		if wantErr != endErr || gotErr != endErr {
			t.Fatalf("%d trailing bytes: Next ended with %v, NextBatch with %v, want %v", body%recordSize, wantErr, gotErr, endErr)
		}
		if err := byNext.Next(&rec); err != endErr {
			t.Fatalf("Next did not repeat %v: %v", endErr, err)
		}
		if _, err := byBatch.NextBatch(); err != endErr {
			t.Fatalf("NextBatch did not repeat %v: %v", endErr, err)
		}
	})
}
