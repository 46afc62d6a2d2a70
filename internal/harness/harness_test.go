package harness

import (
	"bytes"
	"strings"
	"testing"
	"time"
)

// smallFig5 keeps test runtime modest while preserving the qualitative
// shape the assertions check.
func smallFig5() Fig5Config {
	return Fig5Config{
		Seed:       2016,
		Packets:    400_000,
		SizesPairs: []int{1 << 9, 1 << 10, 1 << 11, 1 << 12},
	}
}

func TestFig5Shape(t *testing.T) {
	res, err := RunFig5(smallFig5())
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 4 {
		t.Fatalf("rows: %d", len(res.Rows))
	}
	if res.UniqueFlows == 0 || res.Packets != 400_000 {
		t.Fatalf("trace stats: %d pkts %d flows", res.Packets, res.UniqueFlows)
	}
	ratio := float64(res.Packets) / float64(res.UniqueFlows)
	// CI-scale traces are the first seconds of a capture, so the ratio
	// sits well below the minutes-scale 41; it grows with Packets.
	if ratio < 5 || ratio > 90 {
		t.Errorf("pkts/flow = %.1f, out of the plausible band", ratio)
	}

	// The figure's values on this trace (seed 2016: 40 504 flows), read off
	// the scalar cache loop the harness ran before it moved onto the
	// facade: capacity evictions per row, in GeometryLabels order. A shift
	// is a finding to report, not a number to refresh.
	if res.UniqueFlows != 40_504 {
		t.Errorf("unique flows = %d, want 40504", res.UniqueFlows)
	}
	pinned := [][3]int{
		{308_589, 294_043, 291_839},
		{263_247, 238_830, 234_852},
		{210_902, 174_860, 168_706},
		{157_517, 111_580, 104_246},
	}
	for i, row := range res.Rows {
		for j, g := range GeometryLabels {
			if want := float64(pinned[i][j]) / 400_000; row.EvictFrac[g] != want {
				t.Errorf("%d pairs %s: %.0f evictions, want %d",
					row.Pairs, g, row.EvictFrac[g]*400_000, pinned[i][j])
			}
		}
		full := row.EvictFrac["fully-associative"]
		way8 := row.EvictFrac["8-way"]
		hash := row.EvictFrac["hash-table"]
		// Geometry ordering (Figure 5's first insight).
		if !(full <= way8+1e-12 && way8 <= hash+1e-12) {
			t.Errorf("row %d: ordering violated: full=%.4f 8way=%.4f hash=%.4f", i, full, way8, hash)
		}
		// Monotone in cache size.
		if i > 0 {
			prev := res.Rows[i-1]
			for _, g := range GeometryLabels {
				if row.EvictFrac[g] > prev.EvictFrac[g]+1e-12 {
					t.Errorf("%s: eviction rate rose with cache size (%.4f -> %.4f)",
						g, prev.EvictFrac[g], row.EvictFrac[g])
				}
			}
		}
		// Right panel is a fixed rescale of the left.
		for _, g := range GeometryLabels {
			want := row.EvictFrac[g] * TypicalPktPerSec
			if row.EvictPerSec[g] != want {
				t.Errorf("evictions/s inconsistent with fraction")
			}
		}
	}

	// The paper's second insight: 8-way is close to fully associative.
	// At our scaled 32-Mbit-equivalent point the relative gap should be
	// well under 50% (the paper reports 2% at full scale).
	frac, gap, pairs := res.Headline8Way()
	if frac <= 0 || frac > 0.30 {
		t.Errorf("headline 8-way eviction fraction = %.4f at %d pairs", frac, pairs)
	}
	if gap < 0 || gap > 0.5 {
		t.Errorf("8-way vs full gap = %.3f at %d pairs", gap, pairs)
	}

	var buf bytes.Buffer
	res.Format(&buf)
	for _, frag := range []string{"Figure 5", "% evictions", "evictions/sec", "8-way"} {
		if !strings.Contains(buf.String(), frag) {
			t.Errorf("formatted output missing %q", frag)
		}
	}
}

func TestFig6Tradeoffs(t *testing.T) {
	cfg := Fig6Config{
		Seed:       63,
		Duration:   80 * time.Second,
		FlowRate:   300,
		Windows:    []time.Duration{20 * time.Second, 80 * time.Second},
		SizesPairs: []int{1 << 9, 1 << 11},
	}
	res, err := RunFig6(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 2 {
		t.Fatalf("rows: %d", len(res.Rows))
	}
	// Valid / total keys per (cache, window), pinned from the hand-wired
	// cache → backing-store loop this figure ran on before the facade.
	pinned := [][2][2]int{
		{{2_564, 5_027}, {7_570, 20_203}},
		{{4_348, 5_027}, {11_520, 20_203}},
	}
	for i, row := range res.Rows {
		for j, w := range cfg.Windows {
			if want := accuracy(pinned[i][j][0], pinned[i][j][1]); row.Accuracy[w] != want {
				t.Errorf("%d pairs, %v: accuracy %.6f, want %d/%d = %.6f",
					row.Pairs, w, row.Accuracy[w], pinned[i][j][0], pinned[i][j][1], want)
			}
		}
		short := row.Accuracy[20*time.Second]
		long := row.Accuracy[80*time.Second]
		if short < long-1e-9 {
			t.Errorf("%d pairs: accuracy should not decrease with shorter windows: 20s=%.3f 80s=%.3f",
				row.Pairs, short, long)
		}
		if short <= 0 || short > 1 || long <= 0 || long > 1 {
			t.Errorf("accuracy out of range: %v", row.Accuracy)
		}
	}
	// Bigger cache ⇒ higher (or equal) accuracy at the same window.
	if res.Rows[1].Accuracy[80*time.Second] < res.Rows[0].Accuracy[80*time.Second]-1e-9 {
		t.Errorf("accuracy fell with a larger cache: %v vs %v",
			res.Rows[1].Accuracy, res.Rows[0].Accuracy)
	}
	// The small cache at the long window must actually lose keys.
	if res.Rows[0].Accuracy[80*time.Second] > 0.999 {
		t.Errorf("no invalid keys at the small cache; experiment not exercising eviction")
	}

	var buf bytes.Buffer
	res.Format(&buf)
	if !strings.Contains(buf.String(), "Figure 6") {
		t.Error("format header missing")
	}
}

func TestFig2TableMatchesPaper(t *testing.T) {
	cfg := Fig2Config{Seed: 7, Duration: 5 * time.Second, CachePairs: 1024}
	res, err := RunFig2(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 7 {
		t.Fatalf("rows: %d", len(res.Rows))
	}
	for _, row := range res.Rows {
		if row.Err != nil {
			t.Errorf("%s: %v", row.Name, row.Err)
			continue
		}
		if row.Linear != row.PaperLinear {
			t.Errorf("%s: linear=%v, paper says %v", row.Name, row.Linear, row.PaperLinear)
		}
		if !row.Matches {
			t.Errorf("%s: datapath does not match ground truth", row.Name)
		}
		if row.ResultRows == 0 && row.Name != "High 99th percentile queue size" {
			t.Errorf("%s: empty result", row.Name)
		}
	}
	// Fusion headline: loss rate uses one store.
	for _, row := range res.Rows {
		if row.Name == "Per-flow loss rate" && row.Programs != 1 {
			t.Errorf("loss rate compiled to %d stores, want 1 (fused)", row.Programs)
		}
	}

	var buf bytes.Buffer
	res.Format(&buf)
	if !strings.Contains(buf.String(), "Per-flow loss rate") {
		t.Error("format output incomplete")
	}
}

func TestCensusAndArea(t *testing.T) {
	res, err := RunCensus(5, 200_000)
	if err != nil {
		t.Fatal(err)
	}
	if res.UniqueFlows < 1000 {
		t.Fatalf("unique flows = %d", res.UniqueFlows)
	}
	if res.OnChipBits != res.UniqueFlows*128 {
		t.Error("bits arithmetic wrong")
	}
	// The paper's 32-Mbit area headline must hold in the model: < 2.5%.
	if res.Target32MbitFraction >= 0.025 {
		t.Errorf("32-Mbit cache costs %.2f%% of the die, paper says < 2.5%%", 100*res.Target32MbitFraction)
	}
	var buf bytes.Buffer
	res.Format(&buf)
	if !strings.Contains(buf.String(), "unique 5-tuples") {
		t.Error("census format incomplete")
	}
}

func TestBackingThroughputSmoke(t *testing.T) {
	res, err := RunBackingThroughput(20_000)
	if err != nil {
		t.Fatal(err)
	}
	if res.PerSec < 50_000 {
		t.Errorf("loopback eviction sink only %.0f/s", res.PerSec)
	}
	// One eviction per flow, and the rate is over evictions the backend
	// applied: a dropped one is an error from the run, never a faster sink.
	if res.Evictions != 20_000 || res.Applied != uint64(res.Evictions) {
		t.Errorf("offered %d evictions, backend applied %d, want 20000 of each", res.Evictions, res.Applied)
	}
	var buf bytes.Buffer
	res.Format(&buf)
	if !strings.Contains(buf.String(), "evictions/s") {
		t.Error("throughput format incomplete")
	}
}

// TestNetScenario runs the network-wide loss-localization scenario at CI
// scale: the fabric must localize the incast to the receiver's leaf
// downlink (leaf0 port 0) and agree bit-for-bit with the single-datapath
// baseline on every drop table.
func TestNetScenario(t *testing.T) {
	res, err := RunNet(DefaultNet())
	if err != nil {
		t.Fatal(err)
	}
	if res.Drops == 0 {
		t.Fatal("scenario produced no drops")
	}
	if res.HotSwitch != "leaf0" || res.HotQueue != 0 {
		t.Errorf("localized %s port %d, want leaf0 port 0", res.HotSwitch, res.HotQueue)
	}
	if !res.Identical {
		t.Error("fabric drop tables diverged from the single-datapath baseline")
	}
	if res.PerSwitch[0].Switch != "leaf0" {
		t.Errorf("top drop share at %s, want leaf0", res.PerSwitch[0].Switch)
	}
	var buf bytes.Buffer
	res.Format(&buf)
	for _, want := range []string{"leaf0", "bit-identical", "congested hop"} {
		if !strings.Contains(buf.String(), want) {
			t.Errorf("report missing %q:\n%s", want, buf.String())
		}
	}
}

// TestWindowSweepKnob runs the window sweep at reduced scale and asserts
// the two directions of the epoch-length trade: carry-over accuracy
// non-increasing as windows shrink, tumbling per-window accuracy higher
// at the shortest window than at run-to-completion.
func TestWindowSweepKnob(t *testing.T) {
	cfg := DefaultWindowSweep()
	cfg.Flows = 800
	cfg.Windows = []int64{500, 5000, 0}
	res, err := RunWindowSweep(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 3 {
		t.Fatalf("rows: %d", len(res.Rows))
	}
	short, mid, all := res.Rows[0], res.Rows[1], res.Rows[2]
	if all.Windows != 1 || short.Windows <= mid.Windows {
		t.Fatalf("window counts: %d/%d/%d", short.Windows, mid.Windows, all.Windows)
	}
	if !(short.CarryAccuracy <= mid.CarryAccuracy && mid.CarryAccuracy <= all.CarryAccuracy) {
		t.Errorf("carry accuracy not monotone: %.3f %.3f %.3f",
			short.CarryAccuracy, mid.CarryAccuracy, all.CarryAccuracy)
	}
	if short.TumblingAccuracy <= all.TumblingAccuracy {
		t.Errorf("tumbling accuracy %.3f not above single-window %.3f",
			short.TumblingAccuracy, all.TumblingAccuracy)
	}
	// At run-to-completion both semantics are the same single window.
	if all.CarryAccuracy != all.TumblingAccuracy {
		t.Errorf("single-window semantics diverge: %.4f vs %.4f",
			all.CarryAccuracy, all.TumblingAccuracy)
	}
	var buf bytes.Buffer
	res.Format(&buf)
	if !strings.Contains(buf.String(), "Window sweep") {
		t.Error("report header missing")
	}
}
