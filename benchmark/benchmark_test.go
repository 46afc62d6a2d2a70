package main

import (
	"encoding/json"
	"io"
	"math"
	"os"
	"testing"
)

// manifest is the part of BENCHMARK.json the self-test holds the
// program to.
type manifest struct {
	Workloads []struct{ Name, Why string }
	EndToEnd  []manifestMetric `json:"end_to_end"`
	PerLayer  []manifestMetric `json:"per_layer"`
}

type manifestMetric struct {
	Name, Unit, Better string
	Bound              float64
}

func readManifest(t *testing.T) manifest {
	t.Helper()
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var m manifest
	if err := json.Unmarshal(data, &m); err != nil {
		t.Fatal(err)
	}
	return m
}

func tinyRun(t *testing.T) (*report, []span) {
	t.Helper()
	cfg := config{seed: 12, sc: scales["tiny"], trials: 2, timed: true, traced: true, tmp: t.TempDir()}
	rep, spans, err := runBenchmark(cfg, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	return rep, spans
}

// TestTinyRun runs all six workloads and their traced runs at tiny
// scale and checks that exactly the workloads and metrics BENCHMARK.json
// names are emitted, finite, with nothing failed, over well-formed spans.
func TestTinyRun(t *testing.T) {
	m := readManifest(t)
	rep, spans := tinyRun(t)

	if len(rep.Workloads) != len(m.Workloads) {
		t.Fatalf("%d workloads run, BENCHMARK.json names %d", len(rep.Workloads), len(m.Workloads))
	}
	for i, w := range rep.Workloads {
		if w.Name != m.Workloads[i].Name || w.Why != m.Workloads[i].Why {
			t.Errorf("workload %d: %q (%q), BENCHMARK.json has %q (%q)", i, w.Name, w.Why, m.Workloads[i].Name, m.Workloads[i].Why)
		}
		if w.Failed != 0 || w.Attempted < 1 {
			t.Errorf("%s: failed=%d attempted=%d", w.Name, w.Failed, w.Attempted)
		}
		checkMetrics(t, w.Name, w.EndToEnd, resultMetrics(), true)
		checkMetrics(t, w.Name, w.PerLayer, perLayer, false)
		if v := w.EndToEnd[failedFrac.Name].Value; v != 0 {
			t.Errorf("%s: failed_frac = %v", w.Name, v)
		}
		if w.Name == "pool_stream" {
			if v := w.PerLayer["netstore.applied_frac"].Value; v != 1 {
				t.Errorf("pool_stream: netstore.applied_frac = %v", v)
			}
		}
		// The budget's rows and the residual sum to the untraced figure.
		total := w.PerLayer["bench.residual_ns_per_pkt"].Value
		for _, row := range w.Budget {
			total += row.NsPerPkt
		}
		if untraced := 1e9 / w.EndToEnd["pkts_per_s"].Value; math.Abs(total-untraced) > 1e-6*untraced {
			t.Errorf("%s: budget sums to %v ns/pkt, untraced is %v", w.Name, total, untraced)
		}
	}
	checkDefs(t, "end_to_end", m.EndToEnd, endToEnd)
	checkDefs(t, "per_layer", m.PerLayer, perLayer)
	checkSpans(t, spans, len(rep.Workloads))
}

func checkMetrics(t *testing.T, workload string, got map[string]metricValue, defs []metricDef, nonZero bool) {
	t.Helper()
	if len(got) != len(defs) {
		t.Errorf("%s: %d metrics emitted, %d defined", workload, len(got), len(defs))
	}
	for _, def := range defs {
		m, ok := got[def.Name]
		switch {
		case !ok:
			t.Errorf("%s: %s not emitted", workload, def.Name)
		case m.Unit != def.Unit:
			t.Errorf("%s: %s has unit %q, want %q", workload, def.Name, m.Unit, def.Unit)
		case math.IsNaN(m.Value) || math.IsInf(m.Value, 0):
			t.Errorf("%s: %s = %v", workload, def.Name, m.Value)
		case nonZero && def.Name != failedFrac.Name && m.Value == 0:
			t.Errorf("%s: end-to-end metric %s is 0", workload, def.Name)
		}
	}
}

func checkDefs(t *testing.T, list string, want []manifestMetric, have []metricDef) {
	t.Helper()
	if len(want) != len(have) {
		t.Fatalf("BENCHMARK.json %s has %d metrics, the program defines %d", list, len(want), len(have))
	}
	for i, def := range have {
		w := want[i]
		if w.Name != def.Name || w.Unit != def.Unit || w.Better != def.Better || w.Bound != def.Bound {
			t.Errorf("BENCHMARK.json %s[%d] = %+v, the program defines %+v", list, i, w, def)
		}
	}
}

// checkSpans: end ≥ start, parents exist and precede their children,
// children lie inside their parent, one root per workload.
func checkSpans(t *testing.T, spans []span, workloads int) {
	t.Helper()
	roots := map[string]int{}
	for i, s := range spans {
		if s.ID != i {
			t.Fatalf("span %d has id %d", i, s.ID)
		}
		if s.EndNs < s.StartNs {
			t.Errorf("span %d (%s) ends before it starts", i, s.Name)
		}
		if s.Parent == -1 {
			roots[s.Workload]++
			continue
		}
		if s.Parent < 0 || s.Parent >= i {
			t.Fatalf("span %d (%s) has parent %d", i, s.Name, s.Parent)
		}
		p := spans[s.Parent]
		if p.Workload != s.Workload {
			t.Errorf("span %d (%s) of %s has a parent of %s", i, s.Name, s.Workload, p.Workload)
		}
		if s.StartNs < p.StartNs || s.EndNs > p.EndNs {
			t.Errorf("span %d (%s) [%d,%d] lies outside its parent %s [%d,%d]", i, s.Name, s.StartNs, s.EndNs, p.Name, p.StartNs, p.EndNs)
		}
	}
	if len(roots) != workloads {
		t.Errorf("%d workloads have a root span, want %d", len(roots), workloads)
	}
	for w, n := range roots {
		if n != 1 {
			t.Errorf("%s has %d root spans", w, n)
		}
	}
}

// TestDeterministicMetrics: the two count-derived metrics repeat
// bit-for-bit across runs of one seed.
func TestDeterministicMetrics(t *testing.T) {
	a, _ := tinyRun(t)
	b, _ := tinyRun(t)
	for i := range a.Workloads {
		wa, wb := a.Workloads[i], b.Workloads[i]
		if x, y := wa.EndToEnd["valid_key_frac"].Value, wb.EndToEnd["valid_key_frac"].Value; x != y {
			t.Errorf("%s: valid_key_frac %v then %v", wa.Name, x, y)
		}
		if x, y := wa.PerLayer["kvstore.evict_frac"].Value, wb.PerLayer["kvstore.evict_frac"].Value; x != y {
			t.Errorf("%s: kvstore.evict_frac %v then %v", wa.Name, x, y)
		}
	}
}

// TestQuartiles pins summarize to Python's statistics.quantiles(n=4).
func TestQuartiles(t *testing.T) {
	s := summarize([]float64{7, 1, 3, 10, 4, 8, 2, 9, 6, 5})
	if s.Q1 != 2.75 || s.Median != 5.5 || s.Q3 != 8.25 {
		t.Errorf("quartiles %v %v %v, want 2.75 5.5 8.25", s.Q1, s.Median, s.Q3)
	}
	s = summarize([]float64{1, 2})
	if s.Q1 != 0.75 || s.Q3 != 2.25 {
		t.Errorf("two-point quartiles %v %v, want 0.75 2.25", s.Q1, s.Q3)
	}
}

func TestVerdict(t *testing.T) {
	// best builds a best-trial figure standing at value above its run's
	// quartiles; flat builds one whose trials all agree.
	best := func(q1, q3, value float64) metricValue {
		return metricValue{Value: value, summary: summary{Median: (q1 + q3) / 2, Q1: q1, Q3: q3, N: 11}}
	}
	flat := func(v float64) metricValue { return best(v, v, v) }
	pkts, alloc, valid := endToEnd[0], endToEnd[2], endToEnd[3]
	cases := []struct {
		def  metricDef
		a, b metricValue
		want string
	}{
		{pkts, best(90, 96, 100), best(89, 95, 99), verdictSame},
		{pkts, best(90, 96, 100), best(66, 70, 74), verdictWorse},
		{pkts, best(90, 96, 100), best(100, 106, 110), verdictBetter},
		{pkts, best(60, 70, 100), best(89, 95, 99), verdictUnresolved}, // a's best is a lone outlier
		{pkts, best(90, 96, 100), best(40, 50, 74), verdictUnresolved},
		{alloc, flat(1), flat(1.4), verdictSame}, // inside the absolute slack
		{alloc, flat(20), flat(23), verdictWorse},
		{valid, flat(0.7), flat(0.7), verdictSame},
		{valid, flat(0.7), flat(0.6999), verdictWorse},
	}
	for i, c := range cases {
		if got := verdict(c.def, c.a, c.b); got != c.want {
			t.Errorf("case %d (%s): %s, want %s", i, c.def.Name, got, c.want)
		}
	}
}
