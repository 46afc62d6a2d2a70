package harness

import (
	"fmt"
	"io"
	"time"

	"perfq"
	"perfq/internal/chiparea"
	"perfq/internal/queries"
	"perfq/internal/trace"
	"perfq/internal/tracegen"
)

// Fig6Config parameterizes the accuracy experiment for queries that are
// not linear in state (§4, Figure 6).
type Fig6Config struct {
	Seed int64
	// Duration is the total trace length (the paper's is 5 minutes).
	Duration time.Duration
	// FlowRate scales the trace's packet volume.
	FlowRate float64
	// Windows are the query intervals to compare (the paper uses 1, 3
	// and 5 minutes).
	Windows []time.Duration
	// SizesPairs is the cache-capacity sweep (8-way geometry, as in the
	// figure).
	SizesPairs []int
	Progress   io.Writer
}

// DefaultFig6 runs a 5-simulated-minute trace at one-tenth the paper's
// flow density against proportionally scaled caches.
func DefaultFig6() Fig6Config {
	return Fig6Config{
		Seed:     63,
		Duration: 5 * time.Minute,
		FlowRate: 130,
		Windows:  []time.Duration{1 * time.Minute, 3 * time.Minute, 5 * time.Minute},
		SizesPairs: []int{
			1 << 11, 1 << 12, 1 << 13, 1 << 14, 1 << 15,
		},
	}
}

// Fig6Row is one cache size's accuracy per window length.
type Fig6Row struct {
	Pairs int
	Mbit  float64
	// Accuracy maps window length → valid keys / total keys after
	// running the query over one window of that length.
	Accuracy map[time.Duration]float64
}

// Fig6Result is the full figure.
type Fig6Result struct {
	Config  Fig6Config
	Rows    []Fig6Row
	Elapsed time.Duration
}

// windowSource ends src at the first record enqueued at or after end:
// one query window from the start of the trace.
type windowSource struct {
	src trace.Source
	end int64
}

// Next implements trace.Source.
func (s *windowSource) Next(rec *trace.Record) error {
	if err := s.src.Next(rec); err != nil {
		return err
	}
	if rec.Tin >= s.end {
		return io.EOF
	}
	return nil
}

// RunFig6 measures, for each cache size and window length, the fraction
// of keys whose value is valid (exactly one eviction epoch) when running
// the non-linear TCP non-monotonic query with an 8-way cache.
func RunFig6(cfg Fig6Config) (*Fig6Result, error) {
	start := time.Now()
	q := perfq.MustCompile(queries.ByName("TCP non-monotonic").Source)
	wcfg := tracegen.WANConfig(cfg.Seed, cfg.Duration)
	wcfg.FlowRate = cfg.FlowRate

	res := &Fig6Result{Config: cfg}
	for _, pairs := range cfg.SizesPairs {
		row := Fig6Row{
			Pairs:    pairs,
			Mbit:     chiparea.BitsToMbit(chiparea.PairsToBits(int64(pairs))),
			Accuracy: map[time.Duration]float64{},
		}
		for _, window := range cfg.Windows {
			// The paper's comparison is between *running the query over a
			// shorter interval*: evaluate one window of length `window`
			// from the start of the trace and report the fraction of
			// valid keys at its end.
			src := &windowSource{src: tracegen.New(wcfg), end: window.Nanoseconds()}
			run, err := q.Run(src, perfq.WithCache(pairs, 8))
			if err != nil {
				return nil, err
			}
			valid, total := run.Accuracy(0)
			row.Accuracy[window] = accuracy(valid, total)
			logf(cfg.Progress, "  %8d pairs (%6.2f Mbit) window=%-4v accuracy=%.1f%% (%d/%d keys)",
				pairs, row.Mbit, window, 100*row.Accuracy[window], valid, total)
		}
		res.Rows = append(res.Rows, row)
	}
	res.Elapsed = time.Since(start)
	return res, nil
}

// Format renders the figure.
func (r *Fig6Result) Format(w io.Writer) {
	fmt.Fprintf(w, "Figure 6: accuracy for a query not linear in state (TCP non-monotonic, 8-way cache)\n\n")
	fmt.Fprintf(w, "%12s %10s |", "pairs", "Mbit")
	for _, win := range r.Config.Windows {
		fmt.Fprintf(w, " %8s", win)
	}
	fmt.Fprintln(w)
	for _, row := range r.Rows {
		fmt.Fprintf(w, "%12d %10.2f |", row.Pairs, row.Mbit)
		for _, win := range r.Config.Windows {
			fmt.Fprintf(w, " %7.1f%%", 100*row.Accuracy[win])
		}
		fmt.Fprintln(w)
	}
	fmt.Fprintf(w, "\nelapsed: %v\n", r.Elapsed.Round(time.Millisecond))
}
