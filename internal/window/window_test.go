package window

import (
	"fmt"
	"io"
	"testing"

	"perfq/internal/exec"
	"perfq/internal/switchsim"
	"perfq/internal/trace"
)

// fakeRunner records the window schedule it is driven through.
type fakeRunner struct {
	fed      int64
	perClose []int64 // records per closed window
	carries  []bool
	finished int
}

func (f *fakeRunner) Feed(recs []trace.Record) { f.fed += int64(len(recs)) }

func (f *fakeRunner) CloseWindow(carry bool) (map[string]*exec.Table, []switchsim.Acc, error) {
	f.perClose = append(f.perClose, f.fed)
	f.carries = append(f.carries, carry)
	f.fed = 0
	return map[string]*exec.Table{}, []switchsim.Acc{{Valid: 1, Total: 1}}, nil
}

func (f *fakeRunner) EndFeed() { f.finished++ }

// recsAt builds one record per Tin value.
func recsAt(tins ...int64) []trace.Record {
	out := make([]trace.Record, len(tins))
	for i, tin := range tins {
		out[i] = trace.Record{Tin: tin, Tout: tin + 1, PktUniq: uint64(i)}
	}
	return out
}

// hiddenSource wraps a slice so Stream takes the generic (buffered) path
// instead of the SliceSource fast path.
type hiddenSource struct{ s trace.SliceSource }

func (h *hiddenSource) Next(rec *trace.Record) error { return h.s.Next(rec) }

func TestSpecValidate(t *testing.T) {
	for _, bad := range []Spec{{}, {Count: 10, IntervalNs: 10}, {Count: -1}} {
		if err := bad.Validate(); err == nil {
			t.Errorf("spec %+v validated", bad)
		}
	}
	for _, good := range []Spec{{Count: 1}, {IntervalNs: 5, Carry: true}} {
		if err := good.Validate(); err != nil {
			t.Errorf("spec %+v rejected: %v", good, err)
		}
	}
}

func TestSlicesByCount(t *testing.T) {
	recs := recsAt(make([]int64, 25)...)
	got := Spec{Count: 10}.Slices(recs)
	want := [][2]int{{0, 10}, {10, 20}, {20, 25}}
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("Slices = %v, want %v", got, want)
	}
	// An exact multiple produces no trailing empty window.
	got = Spec{Count: 5}.Slices(recs[:10])
	want = [][2]int{{0, 5}, {5, 10}}
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("Slices = %v, want %v", got, want)
	}
}

func TestSlicesByTimeWithGap(t *testing.T) {
	// Anchored at Tin 100. Windows of 10ns: [100,110) {100,105},
	// [110,120) {112}, [120,130) empty, [130,140) {135}.
	recs := recsAt(100, 105, 112, 135)
	got := Spec{IntervalNs: 10}.Slices(recs)
	want := [][2]int{{0, 2}, {2, 3}, {3, 3}, {3, 4}}
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("Slices = %v, want %v", got, want)
	}
}

func TestSlicesLateRecordClamped(t *testing.T) {
	// Tin 14 arrives after window 2 opened; it is clamped into it.
	recs := recsAt(0, 25, 14)
	got := Spec{IntervalNs: 10}.Slices(recs)
	want := [][2]int{{0, 1}, {1, 1}, {1, 3}}
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("Slices = %v, want %v", got, want)
	}
}

// TestStreamMatchesSlices drives the same trace through the slice fast
// path and the generic buffered path; both must deliver the Slices
// schedule, with Finisher called and window metadata filled.
func TestStreamMatchesSlices(t *testing.T) {
	tins := make([]int64, 0, 3000)
	for i := 0; i < 3000; i++ {
		tins = append(tins, int64(i)*7)
	}
	recs := recsAt(tins...)
	for _, spec := range []Spec{{Count: 700}, {IntervalNs: 1000}, {Count: 256, Carry: true}} {
		bounds := spec.Slices(recs)
		for _, viaSlice := range []bool{true, false} {
			var src trace.Source = &trace.SliceSource{Records: recs}
			if !viaSlice {
				src = &hiddenSource{s: trace.SliceSource{Records: recs}}
			}
			r := &fakeRunner{}
			var results []*Result
			n, err := Stream(src, spec, r, func(res *Result) error {
				results = append(results, res)
				return nil
			})
			if err != nil {
				t.Fatal(err)
			}
			if int(n) != len(bounds) {
				t.Fatalf("spec %v slice=%v: %d windows, want %d", spec, viaSlice, n, len(bounds))
			}
			for i, b := range bounds {
				if got, want := r.perClose[i], int64(b[1]-b[0]); got != want {
					t.Fatalf("spec %v slice=%v window %d: %d records, want %d", spec, viaSlice, i, got, want)
				}
				if results[i].Index != int64(i) || results[i].Records != int64(b[1]-b[0]) {
					t.Fatalf("result %d metadata %+v", i, results[i])
				}
				if r.carries[i] != spec.Carry {
					t.Fatalf("carry flag %v, want %v", r.carries[i], spec.Carry)
				}
				if spec.IntervalNs > 0 && results[i].EndNs-results[i].StartNs != spec.IntervalNs {
					t.Fatalf("window %d bounds %d..%d", i, results[i].StartNs, results[i].EndNs)
				}
			}
			if r.finished != 1 {
				t.Fatalf("EndFeed called %d times", r.finished)
			}
		}
	}
}

func TestStreamEmptySource(t *testing.T) {
	r := &fakeRunner{}
	n, err := Stream(&trace.SliceSource{}, Spec{Count: 10}, r, func(*Result) error {
		t.Fatal("emit on empty source")
		return nil
	})
	if err != nil || n != 0 {
		t.Fatalf("n=%d err=%v", n, err)
	}
	if r.finished != 1 {
		t.Fatal("EndFeed not called")
	}
}

func TestStreamEmitErrorAborts(t *testing.T) {
	r := &fakeRunner{}
	wantErr := io.ErrUnexpectedEOF
	n, err := Stream(&trace.SliceSource{Records: recsAt(make([]int64, 100)...)},
		Spec{Count: 10}, r, func(res *Result) error {
			if res.Index == 2 {
				return wantErr
			}
			return nil
		})
	if err != wantErr {
		t.Fatalf("err = %v, want %v", err, wantErr)
	}
	if n != 3 {
		t.Fatalf("closed %d windows before abort, want 3", n)
	}
}

func TestRing(t *testing.T) {
	r := NewRing[*Result](3)
	if _, ok := r.Last(); ok {
		t.Fatal("empty ring has a last element")
	}
	for i := 0; i < 5; i++ {
		r.Push(&Result{Index: int64(i)})
	}
	if r.Len() != 3 || r.Dropped() != 2 || r.Pushed() != 5 {
		t.Fatalf("len=%d dropped=%d pushed=%d", r.Len(), r.Dropped(), r.Pushed())
	}
	var idx []int64
	for _, res := range r.Results() {
		idx = append(idx, res.Index)
	}
	if fmt.Sprint(idx) != "[2 3 4]" {
		t.Fatalf("retained %v, want [2 3 4]", idx)
	}
	if last, ok := r.Last(); !ok || last.Index != 4 {
		t.Fatalf("Last = %v,%v", last, ok)
	}
	if NewRing[int](0).Cap() != DefaultKeep {
		t.Fatal("default capacity not applied")
	}
}

// TestStreamEmptyCarryWindowsReusePrev: an empty window (a virtual-time
// gap) must not re-run the runner's close when the previous close left
// the stores as this one would — under carry-over always, under tumbling
// once one empty window has closed on reset stores — and its emitted
// result reuses the previous tables with zeroed window-scoped accuracy.
func TestStreamEmptyCarryWindowsReusePrev(t *testing.T) {
	for _, c := range []struct {
		carry  bool
		closes int
	}{{true, 2}, {false, 3}} {
		// Windows of 10ns anchored at 0: w0 {0,5}, w1..w3 empty, w4 {45}.
		recs := recsAt(0, 5, 45)
		r := &fakeRunner{}
		var results []*Result
		n, err := Stream(&trace.SliceSource{Records: recs}, Spec{IntervalNs: 10, Carry: c.carry}, r,
			func(res *Result) error {
				results = append(results, res)
				return nil
			})
		if err != nil {
			t.Fatal(err)
		}
		if n != 5 {
			t.Fatalf("carry %v: closed %d windows, want 5", c.carry, n)
		}
		// Carry: only the two non-empty windows close on the runner.
		// Tumbling: w1 closes too (it resets what w0 left); w2, w3 reuse it.
		if len(r.perClose) != c.closes {
			t.Fatalf("carry %v: runner closed %d times, want %d", c.carry, len(r.perClose), c.closes)
		}
		for i, res := range results {
			if res.Index != int64(i) {
				t.Fatalf("carry %v: result %d has index %d", c.carry, i, res.Index)
			}
		}
		for _, i := range []int{1, 2, 3} {
			if results[i].Records != 0 {
				t.Fatalf("carry %v: empty window %d has %d records", c.carry, i, results[i].Records)
			}
			if len(results[i].Acc) != 1 || results[i].Acc[0].WinTotal != 0 || results[i].Acc[0].WinValid != 0 {
				t.Fatalf("carry %v: empty window %d window-scoped acc not zeroed: %+v", c.carry, i, results[i].Acc)
			}
			// Cumulative accuracy carries through unchanged.
			if results[i].Acc[0].Valid != results[0].Acc[0].Valid {
				t.Fatalf("carry %v: empty window %d cumulative acc diverged", c.carry, i)
			}
		}
		// w2 and w3 are the window they reuse: w0 under carry, w1 under
		// tumbling.
		from := results[c.closes-2]
		for _, i := range []int{2, 3} {
			if fmt.Sprintf("%p", results[i].Tables) != fmt.Sprintf("%p", from.Tables) {
				t.Fatalf("carry %v: empty window %d does not reuse window %d's tables", c.carry, i, from.Index)
			}
		}
	}
}
