package obs

import (
	"bytes"
	"encoding/json"
	"strings"
	"sync"
	"testing"
)

// TestObsHistBuckets pins the power-of-two bucket boundaries: bucket 0
// is exactly {0}, bucket i holds [2^(i-1), 2^i).
func TestObsHistBuckets(t *testing.T) {
	var h Hist
	cases := []struct {
		v      uint64
		bucket int
	}{
		{0, 0},
		{1, 1},
		{2, 2}, {3, 2},
		{4, 3}, {7, 3},
		{8, 4}, {15, 4},
		{1 << 20, 21},
		{1<<20 - 1, 20},
		{^uint64(0), 64},
	}
	for _, c := range cases {
		h.Record(c.v)
	}
	var s HistSnap
	h.Snapshot(&s)
	if s.Count != uint64(len(cases)) {
		t.Fatalf("count = %d, want %d", s.Count, len(cases))
	}
	want := make(map[int]uint64)
	var wantSum uint64
	for _, c := range cases {
		want[c.bucket]++
		wantSum += c.v
	}
	if s.Sum != wantSum {
		t.Fatalf("sum = %d, want %d", s.Sum, wantSum)
	}
	for i := 0; i < HistBuckets; i++ {
		if s.Buckets[i] != want[i] {
			t.Fatalf("bucket %d = %d, want %d", i, s.Buckets[i], want[i])
		}
	}
	// Every recorded value must be <= its bucket's inclusive bound and
	// > the previous bucket's bound.
	for _, c := range cases {
		if c.v > BucketBound(c.bucket) {
			t.Fatalf("value %d above bound %d of bucket %d", c.v, BucketBound(c.bucket), c.bucket)
		}
		if c.bucket > 0 && c.v <= BucketBound(c.bucket-1) {
			t.Fatalf("value %d not above bucket %d bound %d", c.v, c.bucket-1, BucketBound(c.bucket-1))
		}
	}
}

// TestObsHistMerge merges per-shard snapshots and checks the totals,
// then checks Accumulate (the no-temporary merge used at scrape time)
// agrees.
func TestObsHistMerge(t *testing.T) {
	shards := []*Hist{new(Hist), new(Hist), new(Hist)}
	var n uint64
	for i, h := range shards {
		for v := uint64(0); v < uint64(10*(i+1)); v++ {
			h.Record(v * v)
			n++
		}
	}
	var merged HistSnap
	for _, h := range shards {
		var s HistSnap
		h.Snapshot(&s)
		merged.Merge(&s)
	}
	if merged.Count != n {
		t.Fatalf("merged count = %d, want %d", merged.Count, n)
	}
	var acc HistSnap
	for _, h := range shards {
		acc.Accumulate(h)
	}
	if acc != merged {
		t.Fatalf("Accumulate disagrees with Snapshot+Merge:\n%+v\n%+v", acc, merged)
	}
}

// TestObsHistDelta checks that a later snapshot holds an earlier one
// plus exactly what was recorded in between.
func TestObsHistDelta(t *testing.T) {
	var h Hist
	for v := uint64(1); v <= 100; v++ {
		h.Record(v)
	}
	var first HistSnap
	h.Snapshot(&first)
	for v := uint64(1); v <= 50; v++ {
		h.Record(v * 1000)
	}
	var second HistSnap
	h.Snapshot(&second)
	if n := second.Count - first.Count; n != 50 {
		t.Fatalf("delta count = %d, want 50", n)
	}
	var wantSum uint64
	for v := uint64(1); v <= 50; v++ {
		wantSum += v * 1000
	}
	if sum := second.Sum - first.Sum; sum != wantSum {
		t.Fatalf("delta sum = %d, want %d", sum, wantSum)
	}
}

// TestObsCounterStripes checks striped adds and mirror stores.
func TestObsCounterStripes(t *testing.T) {
	c := NewCounter(4)
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 1000; i++ {
				c.Inc(w)
			}
		}(w)
	}
	wg.Wait()
	if v := c.Value(); v != 4000 {
		t.Fatalf("value = %d, want 4000", v)
	}
	c.Store(0, 10) // mirror semantics: absolute per-stripe publish
	if v := c.Value(); v != 3010 {
		t.Fatalf("after store, value = %d, want 3010", v)
	}
}

// TestObsZeroAlloc is the overhead contract: counter increment,
// histogram record, and a full-registry Gather into a reused buffer
// must not allocate.
func TestObsZeroAlloc(t *testing.T) {
	c := NewCounter(2)
	if a := testing.AllocsPerRun(1000, func() { c.Inc(1) }); a != 0 {
		t.Fatalf("Counter.Inc allocates %.1f per op", a)
	}
	var h Hist
	if a := testing.AllocsPerRun(1000, func() { h.Record(12345) }); a != 0 {
		t.Fatalf("Hist.Record allocates %.1f per op", a)
	}
	var snap HistSnap
	if a := testing.AllocsPerRun(1000, func() { h.Snapshot(&snap) }); a != 0 {
		t.Fatalf("Hist.Snapshot allocates %.1f per op", a)
	}

	r := NewRegistry()
	r.CounterVal("perfq_test_total", "t", `shard="0"`, c)
	r.Gauge("perfq_test_depth", "t", "", func() float64 { return 0 })
	r.HistVal("perfq_test_ns", "t", "", &h)
	tm := NewTransportMetrics(3)
	tm.Register(r, `transport="t"`, func() int { return 0 })
	buf := r.Gather(nil)
	if a := testing.AllocsPerRun(1000, func() { buf = r.Gather(buf[:0]) }); a != 0 {
		t.Fatalf("Registry.Gather allocates %.1f per op", a)
	}
}

// TestObsRegistryRender checks the Prometheus text and JSON debug
// output shapes, plus idempotent re-registration.
func TestObsRegistryRender(t *testing.T) {
	r := NewRegistry()
	c := NewCounter(1)
	c.Add(0, 42)
	r.CounterVal("perfq_packets_total", "packets", `switch="s0"`, c)
	r.CounterVal("perfq_packets_total", "packets", `switch="s0"`, c) // replace, not duplicate
	r.Gauge("perfq_depth", "queue depth", "", func() float64 { return 7 })
	var h Hist
	h.Record(0)
	h.Record(3)
	h.Record(100)
	r.HistVal("perfq_lat_ns", "latency", "", &h)

	var b bytes.Buffer
	if err := r.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	text := b.String()
	for _, want := range []string{
		"# TYPE perfq_packets_total counter",
		`perfq_packets_total{switch="s0"} 42`,
		"# TYPE perfq_depth gauge",
		"perfq_depth 7",
		"# TYPE perfq_lat_ns histogram",
		`perfq_lat_ns_bucket{le="0"} 1`,
		`perfq_lat_ns_bucket{le="3"} 2`,
		`perfq_lat_ns_bucket{le="127"} 3`,
		`perfq_lat_ns_bucket{le="+Inf"} 3`,
		"perfq_lat_ns_sum 103",
		"perfq_lat_ns_count 3",
	} {
		if !strings.Contains(text, want) {
			t.Fatalf("missing %q in:\n%s", want, text)
		}
	}
	if strings.Count(text, `perfq_packets_total{switch="s0"}`) != 1 {
		t.Fatalf("re-registration duplicated the series:\n%s", text)
	}

	b.Reset()
	if err := r.WriteJSON(&b, map[string]string{"query": "q"}); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Metrics []struct {
			Name   string `json:"name"`
			Type   string `json:"type"`
			Series []struct {
				Labels string `json:"labels"`
			} `json:"series"`
		} `json:"metrics"`
		Extra map[string]string `json:"extra"`
	}
	if err := json.Unmarshal(b.Bytes(), &doc); err != nil {
		t.Fatalf("debug JSON does not parse: %v\n%s", err, b.String())
	}
	if len(doc.Metrics) != 3 || doc.Extra["query"] != "q" {
		t.Fatalf("unexpected debug doc: %s", b.String())
	}

	if v, ok := r.Value("perfq_packets_total"); !ok || v != 42 {
		t.Fatalf("Value(packets) = %v,%v", v, ok)
	}
	if v, ok := r.Value("perfq_lat_ns"); !ok || v != 3 {
		t.Fatalf("Value(hist) = %v,%v (want count)", v, ok)
	}
}

// TestObsSeries checks the bounded stability ring.
func TestObsSeries(t *testing.T) {
	s := NewSeries(3)
	for _, v := range []float64{0.1, 0.2, 0.3, 0.4} {
		s.Push(v)
	}
	if s.Total() != 4 {
		t.Fatalf("total = %d", s.Total())
	}
	if s.Last() != 0.4 {
		t.Fatalf("last = %v", s.Last())
	}
	got := s.Values(nil)
	want := []float64{0.2, 0.3, 0.4}
	if len(got) != len(want) {
		t.Fatalf("values = %v", got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("values = %v, want %v", got, want)
		}
	}
	if m := s.Mean(); m < 0.299 || m > 0.301 {
		t.Fatalf("mean = %v", m)
	}
}
