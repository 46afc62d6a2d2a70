package perfq

import (
	"bytes"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"perfq/internal/kvstore"
	"perfq/internal/queries"
)

func TestCompileAndDescribe(t *testing.T) {
	q := MustCompile(queries.ByName("Per-flow loss rate").Source)
	if !q.LinearInState() {
		t.Error("loss rate should be linear in state")
	}
	if got := q.Results(); len(got) != 1 || got[0] != "R3" {
		t.Errorf("Results = %v", got)
	}
	var buf bytes.Buffer
	q.Describe(&buf)
	for _, frag := range []string{"R1+R2", "merge=linear", "stages:", "join",
		"state=4 words merge=linear slot=10 words coefficients=block"} {
		if !strings.Contains(buf.String(), frag) {
			t.Errorf("Describe output missing %q:\n%s", frag, buf.String())
		}
	}
}

func TestCompileErrors(t *testing.T) {
	if _, err := Compile("SELECT nosuch GROUPBY srcip"); err == nil {
		t.Error("bad query compiled")
	}
	if _, err := Compile("((("); err == nil {
		t.Error("garbage compiled")
	}
}

func TestRunMatchesGroundTruthThroughFacade(t *testing.T) {
	src := queries.ByName("Latency EWMA").Source
	collect := func() []Record {
		var recs []Record
		s := DCTrace(3, 2*time.Second)
		var r Record
		for s.Next(&r) == nil {
			recs = append(recs, r)
		}
		return recs
	}
	recs := collect()
	if len(recs) == 0 {
		t.Fatal("empty trace")
	}

	q := MustCompile(src)
	truth, err := q.GroundTruth(Records(recs))
	if err != nil {
		t.Fatal(err)
	}
	got, err := q.Run(Records(recs), WithCache(256, 8))
	if err != nil {
		t.Fatal(err)
	}
	tt, gt := truth.Result(), got.Result()
	if tt.Len() == 0 || tt.Len() != gt.Len() {
		t.Fatalf("rows: truth %d, datapath %d", tt.Len(), gt.Len())
	}
	if got.Evictions == 0 {
		t.Error("tiny cache produced no evictions; facade options not applied")
	}
}

func TestRunOptionAblation(t *testing.T) {
	q := MustCompile("SELECT COUNT GROUPBY 5tuple")
	res, err := q.Run(DCTrace(4, 2*time.Second), WithCache(128, 1), WithoutExactMerge())
	if err != nil {
		t.Fatal(err)
	}
	if res.ValidKeys == res.TotalKeys {
		t.Error("ablation left every key valid under churn")
	}
}

func TestTableFormat(t *testing.T) {
	tab := &Table{
		Schema: []string{"srcip", "count"},
		Rows:   [][]float64{{3232235777, 42}, {167772161, 7}},
	}
	var buf bytes.Buffer
	tab.Format(&buf, 1)
	out := buf.String()
	if !strings.Contains(out, "192.168.1.1") {
		t.Errorf("address not rendered: %s", out)
	}
	if !strings.Contains(out, "more rows") {
		t.Errorf("truncation marker missing: %s", out)
	}
}

func TestResultsTableLookup(t *testing.T) {
	q := MustCompile("R9 = SELECT COUNT GROUPBY qid")
	res, err := q.Run(DCTrace(5, time.Second))
	if err != nil {
		t.Fatal(err)
	}
	if res.Table("R9") == nil {
		t.Error("named table missing")
	}
	if res.Table("nope") != nil {
		t.Error("phantom table")
	}
	if res.Result().Len() == 0 {
		t.Error("qid count table empty")
	}
}

// TestValidKeysPerProgram is the regression for the known debt where
// Results.ValidKeys reported program 0 only: a two-program plan whose
// FIRST store is linear (always fully valid) and whose SECOND is
// non-linear under churn must report the invalid keys of program 1 in
// the summed headline and through the per-program accessor.
func TestValidKeysPerProgram(t *testing.T) {
	q := MustCompile(`
R1 = SELECT COUNT GROUPBY srcip
def nonmt((maxseq, nm_count), tcpseq):
    if maxseq > tcpseq:
        nm_count = nm_count + 1
    maxseq = max(maxseq, tcpseq)
R2 = SELECT 5tuple, nonmt GROUPBY 5tuple WHERE proto == 6
`)
	if got := len(q.plan.Programs); got != 2 {
		t.Fatalf("plan has %d programs, want 2 (keys must not fuse)", got)
	}
	res, err := q.Run(DCTrace(9, 2*time.Second), WithCache(128, 8))
	if err != nil {
		t.Fatal(err)
	}
	if res.Programs() != 2 {
		t.Fatalf("Programs() = %d", res.Programs())
	}
	v0, t0 := res.Accuracy(0)
	v1, t1 := res.Accuracy(1)
	if v0 != t0 || t0 == 0 {
		t.Errorf("linear program 0 accuracy %d/%d, want fully valid", v0, t0)
	}
	if v1 >= t1 {
		t.Errorf("non-linear program 1 accuracy %d/%d, want invalid keys under churn", v1, t1)
	}
	if res.ValidKeys != v0+v1 || res.TotalKeys != t0+t1 {
		t.Errorf("headline %d/%d is not the per-program sum (%d+%d)/(%d+%d)",
			res.ValidKeys, res.TotalKeys, v0, v1, t0, t1)
	}
	// The old behavior — program 0 only — would have reported all-valid.
	if res.ValidKeys == res.TotalKeys {
		t.Error("summed ValidKeys hides program 1's invalid keys")
	}
	// Out-of-range probes stay benign.
	if v, tot := res.Accuracy(99); v != 1 || tot != 1 {
		t.Errorf("Accuracy(99) = %d/%d, want 1/1", v, tot)
	}
}

// TestEvictionTotalsMatchObserver pins the Evictions/Flushed contract:
// their sum is the eviction stream an OnEvict observer saw, whichever
// driver ran the query — run-to-completion, windowed Run, Stream — on one
// datapath or across a fabric. (Windowed runs used to report Flushed = 0:
// every window close flushes, and none was counted.)
func TestEvictionTotalsMatchObserver(t *testing.T) {
	forceProcs(t) // the fabric's observers fire from its pool workers
	q := MustCompile("SELECT COUNT GROUPBY 5tuple")
	tp := equivFabric()
	layouts := []struct {
		name string
		recs []Record
		opts []RunOption
	}{
		{"datapath", churnTrace(t), []RunOption{WithCache(256, 8)}},
		{"fabric", fabricTrace(t, tp, 200), []RunOption{WithCache(256, 8), WithFabric(tp)}},
	}
	for _, lay := range layouts {
		window := WithWindow(WindowSpec{Count: int64(len(lay.recs) / 3)})
		drivers := []struct {
			name string
			run  func(opts []RunOption) (*Results, error)
		}{
			{"Run", func(opts []RunOption) (*Results, error) { return q.Run(Records(lay.recs), opts...) }},
			{"Run(WithWindow)", func(opts []RunOption) (*Results, error) {
				return q.Run(Records(lay.recs), append(opts, window)...)
			}},
			{"Stream", func(opts []RunOption) (*Results, error) {
				return q.Stream(Records(lay.recs), func(*WindowResult) error { return nil }, append(opts, window)...)
			}},
		}
		for _, d := range drivers {
			var offered atomic.Uint64
			observer := func(c *runConfig) {
				c.sw.OnEvict = func(int, *kvstore.Eviction) { offered.Add(1) }
			}
			res, err := d.run(append([]RunOption{observer}, lay.opts...))
			if err != nil {
				t.Fatalf("%s/%s: %v", lay.name, d.name, err)
			}
			if res.Evictions == 0 || res.Flushed == 0 {
				t.Errorf("%s/%s: Evictions=%d Flushed=%d; the run must produce both kinds",
					lay.name, d.name, res.Evictions, res.Flushed)
			}
			if got := res.Evictions + res.Flushed; got != offered.Load() {
				t.Errorf("%s/%s: Evictions+Flushed = %d+%d = %d, the observer saw %d",
					lay.name, d.name, res.Evictions, res.Flushed, got, offered.Load())
			}
		}
	}
}
