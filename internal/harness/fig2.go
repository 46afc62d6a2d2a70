package harness

import (
	"fmt"
	"io"
	"math"
	"time"

	"perfq"
	"perfq/internal/queries"
	"perfq/internal/trace"
	"perfq/internal/tracegen"
)

// Fig2Config parameterizes the expressiveness/correctness table.
type Fig2Config struct {
	Seed       int64
	Duration   time.Duration
	CachePairs int
	Progress   io.Writer
}

// DefaultFig2 exercises every example on a 30-second datacenter trace with
// a deliberately small cache, so the merge machinery is on the hot path.
func DefaultFig2() Fig2Config {
	return Fig2Config{Seed: 7, Duration: 30 * time.Second, CachePairs: 4096}
}

// Fig2Row reports one example's compilation and execution outcome.
type Fig2Row struct {
	Name        string
	Linear      bool // compiler's classification
	PaperLinear bool // the paper's column
	Programs    int  // physical switch stores after fusion
	ResultRows  int
	Matches     bool    // datapath result equals ground truth (valid keys)
	Accuracy    float64 // valid/total keys (1.0 for mergeable folds)
	Evictions   uint64
	Err         error
}

// Fig2Result is the full table.
type Fig2Result struct {
	Config  Fig2Config
	Rows    []Fig2Row
	Packets int
	Elapsed time.Duration
}

// RunFig2 compiles and runs all seven Figure 2 examples over one shared
// trace, comparing the split datapath against ground truth.
func RunFig2(cfg Fig2Config) (*Fig2Result, error) {
	start := time.Now()
	tcfg := tracegen.DCConfig(cfg.Seed, cfg.Duration)
	tcfg.DropProb = 0.005
	recs, err := trace.Collect(tracegen.New(tcfg))
	if err != nil {
		return nil, err
	}

	res := &Fig2Result{Config: cfg, Packets: len(recs)}
	for _, ex := range queries.Fig2 {
		row := Fig2Row{Name: ex.Name, PaperLinear: ex.Linear}
		row.Err = func() error {
			q, err := perfq.Compile(ex.Source)
			if err != nil {
				return err
			}
			row.Linear = q.LinearInState()
			truth, err := q.GroundTruth(perfq.Records(recs))
			if err != nil {
				return err
			}
			got, err := q.Run(perfq.Records(recs), perfq.WithCache(cfg.CachePairs, 8))
			if err != nil {
				return err
			}
			row.Programs = got.Programs()
			row.Evictions = got.Evictions
			row.Accuracy = accuracy(got.Accuracy(0))
			dt := got.Table(ex.Result)
			row.ResultRows = dt.Len()
			k := q.Plan().ByName[ex.Result].NumKeyCols()
			row.Matches = tablesAgree(dt, truth.Table(ex.Result), k, ex.Linear)
			return nil
		}()
		logf(cfg.Progress, "  %-32s linear=%-5v programs=%d rows=%d match=%v",
			row.Name, row.Linear, row.Programs, row.ResultRows, row.Matches)
		res.Rows = append(res.Rows, row)
	}
	res.Elapsed = time.Since(start)
	return res, nil
}

// tablesAgree compares datapath output against ground truth: rows are
// matched on their first k key columns (k = 0 means whole-row identity,
// for plain select results whose columns are all exact) and value columns
// compared with a small relative tolerance. Linear examples must cover
// the ground truth exactly; the non-linear one must agree on every row it
// reports.
func tablesAgree(got, want *perfq.Table, k int, linear bool) bool {
	if linear && len(got.Rows) != len(want.Rows) {
		return false
	}
	if k == 0 {
		k = len(want.Schema)
	}
	wantByKey := map[string][]float64{}
	for _, r := range want.Rows {
		wantByKey[fmt.Sprint(r[:k])] = r
	}
	for _, g := range got.Rows {
		w, ok := wantByKey[fmt.Sprint(g[:k])]
		if !ok {
			return false
		}
		for i := k; i < len(g); i++ {
			if math.Abs(g[i]-w[i]) > 1e-6*math.Max(1, math.Abs(w[i])) {
				return false
			}
		}
	}
	return true
}

// Format renders the Figure 2 table.
func (r *Fig2Result) Format(w io.Writer) {
	fmt.Fprintf(w, "Figure 2: example queries (trace: %d records, cache %d pairs, 8-way)\n\n", r.Packets, r.Config.CachePairs)
	fmt.Fprintf(w, "%-32s %-8s %-8s %-8s %-9s %-10s %s\n",
		"example", "linear", "(paper)", "stores", "rows", "evictions", "matches ground truth")
	for _, row := range r.Rows {
		status := fmt.Sprintf("%v", row.Matches)
		if row.Err != nil {
			status = "ERROR: " + row.Err.Error()
		}
		if !row.Linear {
			status += fmt.Sprintf(" (accuracy %.1f%% of keys valid)", row.Accuracy*100)
		}
		fmt.Fprintf(w, "%-32s %-8v %-8v %-8d %-9d %-10d %s\n",
			row.Name, row.Linear, row.PaperLinear, row.Programs, row.ResultRows, row.Evictions, status)
	}
	fmt.Fprintf(w, "\nelapsed: %v\n", r.Elapsed.Round(time.Millisecond))
}
