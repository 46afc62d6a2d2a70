// Package harness reproduces the paper's evaluation (§4): Figure 5's
// eviction-rate curves, Figure 6's accuracy-versus-window tradeoff, the
// Figure 2 expressiveness table, the unique-flow census, and the chip-area
// headline numbers. Every experiment is deterministic given its seed.
//
// Scale: the paper replays a 157M-packet CAIDA trace against caches of
// 2^16..2^21 pairs. Defaults here replay a synthetic trace one-tenth that
// size with the flows-per-packet ratio preserved and the cache axis
// shifted down accordingly, which preserves every qualitative feature
// (geometry ordering, knee position relative to the working set). Pass
// larger Packets/sizes to approach full scale.
package harness

import (
	"fmt"
	"io"
	"math"
	"time"

	"perfq"
	"perfq/internal/chiparea"
	"perfq/internal/packet"
	"perfq/internal/trace"
	"perfq/internal/tracegen"
)

// logf writes one progress line to w; a nil w discards it.
func logf(w io.Writer, format string, args ...interface{}) {
	if w != nil {
		fmt.Fprintf(w, format+"\n", args...)
	}
}

// accuracy is valid / total backing-store keys — Figure 6's metric. A run
// that held no key has nothing invalid: 1.
func accuracy(valid, total int) float64 {
	if total == 0 {
		return 1
	}
	return float64(valid) / float64(total)
}

// Workload constants from §4's setup: a 1 GHz pipeline processing 64-byte
// packets at line rate handles 1e9 packets/s; at the datacenter average of
// 850-byte packets and 30% utilization it sees 22.6M packets/s.
const (
	LineRatePktPerSec = 1e9
	AvgPktBytes       = 850
	Utilization       = 0.30
)

// TypicalPktPerSec is the §4 figure used to convert eviction fractions to
// backing-store write rates: 22.6M average-size packets per second.
var TypicalPktPerSec = LineRatePktPerSec * Utilization * 64.0 / AvgPktBytes

// Fig5Config parameterizes the eviction-rate experiment.
type Fig5Config struct {
	// Seed and Packets define the synthetic CAIDA-like trace.
	Seed    int64
	Packets int64
	// SizesPairs lists cache capacities to sweep (pairs).
	SizesPairs []int
	// Progress, when non-nil, receives status lines.
	Progress io.Writer
}

// DefaultFig5 is the CI-scale configuration: 4M packets (≈1/40 of the
// paper's trace) against 2^11..2^16 pairs.
func DefaultFig5() Fig5Config {
	return Fig5Config{
		Seed:    2016,
		Packets: 4_000_000,
		SizesPairs: []int{
			1 << 11, 1 << 12, 1 << 13, 1 << 14, 1 << 15, 1 << 16,
		},
	}
}

// FullFig5 approximates the paper's scale: 157M packets against
// 2^16..2^21 pairs. Expect minutes of runtime.
func FullFig5() Fig5Config {
	return Fig5Config{
		Seed:    2016,
		Packets: 157_000_000,
		SizesPairs: []int{
			1 << 16, 1 << 17, 1 << 18, 1 << 19, 1 << 20, 1 << 21,
		},
	}
}

// Fig5Row is one x-axis point of Figure 5.
type Fig5Row struct {
	Pairs int
	Mbit  float64
	// EvictFrac maps geometry label → evictions / packets (left panel).
	EvictFrac map[string]float64
	// EvictPerSec maps geometry label → evictions/s at the typical
	// workload (right panel).
	EvictPerSec map[string]float64
}

// Fig5Result is the full figure.
type Fig5Result struct {
	Config      Fig5Config
	Packets     int64
	UniqueFlows int64
	Rows        []Fig5Row
	Elapsed     time.Duration
}

// GeometryLabels are the three series of Figure 5, in legend order, and
// geometryWays the WithCache ways that select each: a plain hash table,
// 8-way set-associative, fully associative.
var (
	GeometryLabels = []string{"hash-table", "8-way", "fully-associative"}
	geometryWays   = []int{1, 8, 0}
)

// flowCount is the query behind Figure 5 and the census: one counter per
// five-tuple, so a run's capacity evictions are the figure's y-axis and
// the keys its backing store ends up holding are the trace's flows.
const flowCount = "SELECT COUNT GROUPBY 5tuple"

// traceConfig builds the WAN trace config for a packet budget. The
// arrival horizon is far beyond the budget so MaxPackets always provides
// the cutoff; the result is "the first N packets of a CAIDA-like
// capture", with flows longer than the window clipped by it exactly as in
// a real capture.
func traceConfig(seed, packets int64) tracegen.Config {
	dur := time.Duration(packets/1000) * time.Second // generous horizon
	if dur < time.Minute {
		dur = time.Minute
	}
	cfg := tracegen.WANConfig(seed, dur)
	cfg.MaxPackets = packets
	return cfg
}

// flowSource replays a stored five-tuple stream as records: Figure 5
// depends only on the key sequence, so the trace is held at 14 bytes a
// packet (2.2 GB at the paper's 157M packets, where whole records would
// be 12.5 GB) and every run at every scale re-expands it, a batch at a
// time into one buffer whose other fields stay zero.
type flowSource struct {
	flows []packet.FiveTuple
	buf   [512]trace.Record
}

func setFlow(rec *trace.Record, ft *packet.FiveTuple) {
	rec.SrcIP, rec.DstIP, rec.SrcPort, rec.DstPort, rec.Proto = ft.Src, ft.Dst, ft.SrcPort, ft.DstPort, ft.Proto
}

// NextBatch implements trace.BatchSource, the pull Run takes.
func (s *flowSource) NextBatch() ([]trace.Record, error) {
	n := min(len(s.buf), len(s.flows))
	if n == 0 {
		return nil, io.EOF
	}
	for i := range s.flows[:n] {
		setFlow(&s.buf[i], &s.flows[i])
	}
	s.flows = s.flows[n:]
	return s.buf[:n], nil
}

// Next implements trace.Source.
func (s *flowSource) Next(rec *trace.Record) error {
	if len(s.flows) == 0 {
		return io.EOF
	}
	*rec = trace.Record{}
	setFlow(rec, &s.flows[0])
	s.flows = s.flows[1:]
	return nil
}

// RunFig5 runs the flow-count query over the trace's key-reference stream
// at every (geometry, size) combination, counting capacity evictions — the
// quantity both panels of Figure 5 plot.
func RunFig5(cfg Fig5Config) (*Fig5Result, error) {
	start := time.Now()
	q := perfq.MustCompile(flowCount)
	flows := make([]packet.FiveTuple, 0, cfg.Packets)
	err := trace.EachBatch(tracegen.New(traceConfig(cfg.Seed, cfg.Packets)), func(recs []trace.Record) error {
		for i := range recs {
			flows = append(flows, recs[i].FlowKey())
		}
		return nil
	})
	if err != nil {
		return nil, err
	}

	res := &Fig5Result{Config: cfg, Packets: int64(len(flows))}
	logf(cfg.Progress, "trace: %d packets", res.Packets)
	for _, pairs := range cfg.SizesPairs {
		row := Fig5Row{
			Pairs:       pairs,
			Mbit:        chiparea.BitsToMbit(chiparea.PairsToBits(int64(pairs))),
			EvictFrac:   map[string]float64{},
			EvictPerSec: map[string]float64{},
		}
		for i, label := range GeometryLabels {
			run, err := q.Run(&flowSource{flows: flows}, perfq.WithCache(pairs, geometryWays[i]))
			if err != nil {
				return nil, err
			}
			res.UniqueFlows = int64(run.TotalKeys) // the trace's flows, whatever the cache
			frac := float64(run.Evictions) / float64(res.Packets)
			row.EvictFrac[label] = frac
			row.EvictPerSec[label] = frac * TypicalPktPerSec
			logf(cfg.Progress, "  %9d pairs (%6.2f Mbit) %-18s evict%%=%.3f", pairs, row.Mbit, label, frac*100)
		}
		res.Rows = append(res.Rows, row)
	}
	res.Elapsed = time.Since(start)
	return res, nil
}

// Format renders the result as the two panels of Figure 5.
func (r *Fig5Result) Format(w io.Writer) {
	fmt.Fprintf(w, "Figure 5: eviction rates (trace: %d pkts, %d flows, %.1f pkts/flow)\n",
		r.Packets, r.UniqueFlows, float64(r.Packets)/float64(r.UniqueFlows))
	panel := func(cell string, scale float64, vals func(Fig5Row) map[string]float64) {
		fmt.Fprintf(w, "%12s %10s | %10s %10s %10s\n", "pairs", "Mbit", GeometryLabels[0], GeometryLabels[1], GeometryLabels[2])
		for _, row := range r.Rows {
			fmt.Fprintf(w, "%12d %10.2f |", row.Pairs, row.Mbit)
			for _, g := range GeometryLabels {
				fmt.Fprintf(w, cell, scale*vals(row)[g])
			}
			fmt.Fprintln(w)
		}
	}
	fmt.Fprintf(w, "\n%% evictions (fraction of packets evicting a key):\n")
	panel(" %9.3f%%", 100, func(row Fig5Row) map[string]float64 { return row.EvictFrac })
	fmt.Fprintf(w, "\nevictions/sec at the typical datacenter workload (%.1fM avg pkts/s):\n", TypicalPktPerSec/1e6)
	panel(" %9.0fK", 1e-3, func(row Fig5Row) map[string]float64 { return row.EvictPerSec })
	fmt.Fprintf(w, "\nelapsed: %v\n", r.Elapsed.Round(time.Millisecond))
}

// Headline8Way returns the 8-way eviction fraction at the row closest to
// the paper's 32-Mbit operating point (scaled), plus the gap to the fully
// associative lower bound there — the two numbers §4 quotes (3.55%,
// "within 2%").
func (r *Fig5Result) Headline8Way() (evictFrac, gapToFull float64, pairs int) {
	if len(r.Rows) == 0 {
		return 0, 0, 0
	}
	// Pick the row whose flows-per-pairs ratio is closest to the paper's
	// 3.8M / 262144.
	target := 3.8e6 / 262144.0
	best := r.Rows[0]
	bestDiff := -1.0
	for _, row := range r.Rows {
		ratio := float64(r.UniqueFlows) / float64(row.Pairs)
		diff := math.Abs(ratio - target)
		if bestDiff < 0 || diff < bestDiff {
			bestDiff, best = diff, row
		}
	}
	way8 := best.EvictFrac["8-way"]
	full := best.EvictFrac["fully-associative"]
	gap := 0.0
	if full > 0 {
		gap = (way8 - full) / full
	}
	return way8, gap, best.Pairs
}
