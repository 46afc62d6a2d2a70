package harness

import (
	"fmt"
	"io"
	"time"

	"perfq/internal/backing"
	"perfq/internal/chiparea"
	"perfq/internal/compiler"
	"perfq/internal/fold"
	"perfq/internal/kvstore"
	"perfq/internal/lang"
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
	Packets int64
	Rows    []Fig6Row
	Elapsed time.Duration
}

// nonMonotonicFold compiles the Fig. 2 "TCP non-monotonic" query and
// returns its switch fold (MergeNone) plus the key spec.
func nonMonotonicFold() (*fold.Func, *compiler.SwitchProgram, error) {
	ex := queries.ByName("TCP non-monotonic")
	chk, err := lang.Check(lang.MustParse(ex.Source))
	if err != nil {
		return nil, nil, err
	}
	plan, err := compiler.Compile(chk)
	if err != nil {
		return nil, nil, err
	}
	sp := plan.Programs[0]
	return sp.Fold, sp, nil
}

// RunFig6 measures, for each cache size and window length, the fraction
// of keys whose value is valid (exactly one eviction epoch) when running
// the non-linear TCP non-monotonic query with an 8-way cache.
func RunFig6(cfg Fig6Config) (*Fig6Result, error) {
	start := time.Now()
	logf := func(format string, args ...interface{}) {
		if cfg.Progress != nil {
			fmt.Fprintf(cfg.Progress, format+"\n", args...)
		}
	}
	foldFn, sp, err := nonMonotonicFold()
	if err != nil {
		return nil, err
	}

	res := &Fig6Result{Config: cfg}
	for _, pairs := range cfg.SizesPairs {
		row := Fig6Row{
			Pairs:    pairs,
			Mbit:     chiparea.BitsToMbit(chiparea.PairsToBits(int64(pairs))),
			Accuracy: map[time.Duration]float64{},
		}
		for _, window := range cfg.Windows {
			wcfg := tracegen.WANConfig(cfg.Seed, cfg.Duration)
			wcfg.FlowRate = cfg.FlowRate
			gen := tracegen.New(wcfg)

			store := backing.New(foldFn)
			cache, err := kvstore.New(kvstore.Config{
				Geometry: kvstore.SetAssociative(pairs, 8),
				Fold:     foldFn,
				OnEvict:  store.HandleEviction,
			})
			if err != nil {
				return nil, err
			}

			// The paper's comparison is between *running the query over a
			// shorter interval*: evaluate one window of length `window`
			// from the start of the trace and report the fraction of
			// valid keys at its end.
			var (
				rec       trace.Record
				windowEnd = window.Nanoseconds()
				n         int64
			)
			for {
				err := gen.Next(&rec)
				if err == io.EOF {
					break
				}
				if err != nil {
					return nil, err
				}
				if rec.Tin >= windowEnd {
					break
				}
				n++
				in := fold.Input{Rec: &rec}
				if !memberMatches(sp, &in) {
					continue
				}
				key := rec.FlowKey().Pack()
				cache.Process(key, &in)
			}
			cache.Flush()
			valid, total := store.Accuracy()
			res.Packets = n

			acc := 1.0
			if total > 0 {
				acc = float64(valid) / float64(total)
			}
			row.Accuracy[window] = acc
			logf("  %8d pairs (%6.2f Mbit) window=%-4v accuracy=%.1f%% (%d/%d keys)",
				pairs, row.Mbit, window, acc*100, valid, total)
		}
		res.Rows = append(res.Rows, row)
	}
	res.Elapsed = time.Since(start)
	return res, nil
}

// memberMatches applies the program's match predicates (proto == TCP for
// the non-monotonic query).
func memberMatches(sp *compiler.SwitchProgram, in *fold.Input) bool {
	for _, w := range sp.MemberWhere {
		if w == nil || w.EvalBool(in, nil) {
			return true
		}
	}
	return false
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
