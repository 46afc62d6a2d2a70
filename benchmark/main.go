// Command benchmark is perfq's end-to-end and per-layer benchmark.
//
// It generates every input from -seed, runs each workload through the
// public facade with tracing off (a closed loop with one feeder: perfq
// pulls from its source, so the offered rate is the consumption rate),
// checks every output against ground truth, then makes one traced run
// per workload in which the benchmark itself drives the layers and
// records a span around each call. See README.md.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"strings"
	"time"
)

// Trial counts. A timed figure is taken over at least minTrials trials
// after one discarded warm-up; set-up is repeated so setup_s is a median.
const (
	minTrials    = 9
	setupReps    = 5
	compileReps  = 20
	tracedTrials = 3
)

type config struct {
	seed     int64
	sc       scale
	seconds  float64
	trials   int
	traced   bool // make the traced run and report per-layer metrics
	timed    bool // report end-to-end metrics
	only     string
	out      string
	traceOut string
	tmp      string
}

func main() {
	var cfg config
	var scaleName, trace string
	var compare bool
	flag.Int64Var(&cfg.seed, "seed", 12, "input seed (12 is the development seed, 2016 the held-out one)")
	flag.StringVar(&scaleName, "scale", "full", "input scale: full or tiny")
	flag.Float64Var(&cfg.seconds, "seconds", 8, "timed seconds per workload (at least 9 trials are made regardless)")
	flag.IntVar(&cfg.trials, "trials", 0, "exact timed trials per workload, instead of -seconds")
	flag.StringVar(&trace, "trace", "both", "0: end-to-end metrics only, 1: per-layer metrics from the traced run, both")
	flag.StringVar(&cfg.only, "workload", "", "run only this workload")
	flag.StringVar(&cfg.out, "out", "", "write the results as JSON to this file")
	flag.StringVar(&cfg.traceOut, "trace-out", "", "write the traced runs' spans as JSON to this file")
	flag.StringVar(&cfg.tmp, "tmp", ".bench_build", "directory for temporary files (created; the run's own subdirectory is removed on exit)")
	flag.BoolVar(&compare, "compare", false, "compare two result files: -compare a.json b.json")
	flag.Parse()

	if compare {
		if flag.NArg() != 2 {
			fatal(errors.New("usage: -compare a.json b.json"))
		}
		worse, err := compareFiles(os.Stdout, flag.Arg(0), flag.Arg(1))
		if err != nil {
			fatal(err)
		}
		if worse {
			os.Exit(1)
		}
		return
	}
	var ok bool
	if cfg.sc, ok = scales[scaleName]; !ok {
		fatal(fmt.Errorf("unknown -scale %q", scaleName))
	}
	switch trace {
	case "0":
		cfg.timed = true
	case "1":
		cfg.traced = true
	case "both":
		cfg.timed, cfg.traced = true, true
	default:
		fatal(fmt.Errorf("unknown -trace %q", trace))
	}
	rep, spans, err := runBenchmark(cfg, os.Stdout)
	if err != nil {
		fatal(err)
	}
	if cfg.out != "" {
		data, err := json.MarshalIndent(rep, "", " ")
		if err == nil {
			err = os.WriteFile(cfg.out, append(data, '\n'), 0o644)
		}
		if err != nil {
			fatal(err)
		}
	}
	if cfg.traceOut != "" {
		if err := writeSpans(cfg.traceOut, spans); err != nil {
			fatal(err)
		}
	}
	if cfg.only != "" {
		// The driver's contract: one JSON object as the last line.
		line, err := json.Marshal(rep.Workloads[0].driverLine(cfg))
		if err != nil {
			fatal(err)
		}
		fmt.Println(string(line))
	}
	if !rep.correct() {
		os.Exit(1)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "benchmark:", err)
	os.Exit(2)
}

// report is the result file: one full set of runs.
type report struct {
	Schema    string           `json:"schema"`
	Seed      int64            `json:"seed"`
	Scale     string           `json:"scale"`
	Host      hostInfo         `json:"host"`
	Load      string           `json:"load"`
	Workloads []workloadReport `json:"workloads"`
}

type hostInfo struct {
	NProc      int    `json:"nproc"`
	GoMaxProcs int    `json:"gomaxprocs"`
	CPU        string `json:"cpu"`
	Go         string `json:"go"`
	OSArch     string `json:"os_arch"`
}

// metricValue is one reported number. End-to-end metrics carry the
// dispersion of their trials (Value is then the best trial's, see best;
// setup_s reports its median); layer metrics are single values.
type metricValue struct {
	Unit  string  `json:"unit"`
	Value float64 `json:"value"`
	summary
}

type workloadReport struct {
	Name      string                 `json:"name"`
	Why       string                 `json:"why"`
	Records   int64                  `json:"records"`
	Trials    int                    `json:"trials"`
	Attempted int64                  `json:"attempted"`
	Failed    int64                  `json:"failed"`
	EndToEnd  map[string]metricValue `json:"end_to_end,omitempty"`
	PerLayer  map[string]metricValue `json:"per_layer,omitempty"`
	// Budget is the traced run's ns/packet by span name (self time);
	// with bench.residual_ns_per_pkt it sums to the untraced figure.
	Budget []budgetRow `json:"budget,omitempty"`
}

func (r *report) correct() bool {
	for _, w := range r.Workloads {
		if w.Failed != 0 {
			return false
		}
	}
	return true
}

// driverLine is the object the driver parses from the last line.
func (w *workloadReport) driverLine(cfg config) map[string]any {
	metrics := map[string]map[string]any{}
	src := w.EndToEnd
	if !cfg.timed {
		src = w.PerLayer
	}
	for name, m := range src {
		if name == failedFrac.Name {
			continue
		}
		metrics[name] = map[string]any{"value": m.Value, "unit": m.Unit}
	}
	return map[string]any{
		// A failed verification ends the run before any result is printed.
		"correct":   w.Failed == 0,
		"attempted": w.Attempted,
		"failed":    w.Failed,
		"metrics":   metrics,
	}
}

// state is one workload's progress through a benchmark run.
type state struct {
	w       workload
	in      *inputs
	setups  []float64
	want    digest
	truthNs float64
	trials  []*outcome
	serial  []*outcome // file_shards2: the same input without WithShards
	timed   time.Duration
	ops     int64
	failed  int64
}

// runBenchmark executes the selected workloads and returns the report
// and the traced runs' spans.
func runBenchmark(cfg config, log io.Writer) (*report, []span, error) {
	if err := os.MkdirAll(cfg.tmp, 0o755); err != nil {
		return nil, nil, err
	}
	tmp, err := os.MkdirTemp(cfg.tmp, "perfq-bench-")
	if err != nil {
		return nil, nil, err
	}
	defer os.RemoveAll(tmp)

	var states []*state
	for _, w := range workloads(cfg.sc) {
		if cfg.only == "" || cfg.only == w.name {
			states = append(states, &state{w: w})
		}
	}
	if len(states) == 0 {
		return nil, nil, fmt.Errorf("unknown -workload %q", cfg.only)
	}
	fmt.Fprintf(log, "perfq benchmark: seed %d, scale %s, GOMAXPROCS %d of %d CPUs\n",
		cfg.seed, cfg.sc.name, runtime.GOMAXPROCS(0), runtime.NumCPU())
	fmt.Fprintln(log, loadModel)

	// Set-up, repeated so setup_s is a median; the last repetition's
	// inputs are the ones used. The traced-only mode sets up once.
	reps := setupReps
	if !cfg.timed {
		reps = 1
	}
	for _, s := range states {
		for i := 0; i < reps; i++ {
			s.in = nil
			runtime.GC()
			if s.in, err = s.w.setup(cfg.sc, cfg.seed, tmp); err != nil {
				return nil, nil, err
			}
			s.setups = append(s.setups, s.in.setupS)
		}
	}

	// Correctness gate: one untimed trial per workload, held to ground
	// truth in full. Timed trials are then held to its digest.
	for _, s := range states {
		out, err := s.w.run(s.in, true)
		if err != nil {
			return nil, nil, err
		}
		s.truthNs, err = s.w.verify(s.in, out)
		if out.tier != nil {
			out.tier.close()
		}
		if err != nil {
			return nil, nil, fmt.Errorf("%s: verification: %w", s.w.name, err)
		}
		s.want = out.digest(true)
	}

	// One discarded warm-up each, then timed trials interleaved
	// round-robin so a noisy stretch of a shared host is spread over all
	// workloads instead of landing on one.
	for _, s := range states {
		if _, err := s.w.run(s.in, false); err != nil {
			return nil, nil, err
		}
	}
	seconds := cfg.seconds
	if !cfg.timed {
		seconds /= 2 // the traced run only needs an untraced baseline
	}
	for {
		ran := false
		for _, s := range states {
			if s.done(cfg.trials, seconds) {
				continue
			}
			ran = true
			if err := s.trial(cfg.traced); err != nil {
				return nil, nil, err
			}
		}
		if !ran {
			break
		}
	}

	rep := &report{Schema: "perfq-bench/1", Seed: cfg.seed, Scale: cfg.sc.name, Host: host(), Load: loadModel}
	rec := newRecorder()
	for _, s := range states {
		wr := workloadReport{
			Name: s.w.name, Why: s.w.why, Records: s.in.n, Trials: len(s.trials),
			Attempted: s.ops, Failed: s.failed,
		}
		if cfg.timed {
			wr.EndToEnd = s.endToEnd()
		}
		if cfg.traced {
			if wr.PerLayer, wr.Budget, err = s.layers(rec); err != nil {
				return nil, nil, err
			}
		}
		wr.print(log)
		rep.Workloads = append(rep.Workloads, wr)
	}
	return rep, rec.spans, nil
}

const loadModel = "load: closed loop, one feeder goroutine, one process; backing pool over loopback TCP, not a real link"

func (s *state) done(trials int, seconds float64) bool {
	if trials > 0 {
		return len(s.trials) >= trials
	}
	return len(s.trials) >= minTrials && s.timed.Seconds() >= seconds
}

// trial makes one timed trial and holds it to the verified digest.
// withSerial also runs a sharded workload's input serially, for
// shard.speedup.
func (s *state) trial(withSerial bool) error {
	out, err := s.w.run(s.in, false)
	if err != nil {
		return err
	}
	ops := out.records + int64(out.books.Offered)
	s.ops += ops
	s.failed += int64(out.unrouted) + int64(out.books.Dropped)
	if got := out.digest(false); got != s.want {
		fmt.Fprintf(os.Stderr, "benchmark: %s: trial %d digest %+v, verified %+v\n", s.w.name, len(s.trials), got, s.want)
		s.failed += ops
	}
	out.tables = nil
	s.trials = append(s.trials, out)
	s.timed += out.wall
	if withSerial && s.w.shards > 1 {
		// The parallel seam's value is a ratio to the same input run
		// serially, so the serial runs are interleaved with these.
		serial := s.w
		serial.shards = 1
		base, err := serial.run(s.in, false)
		if err != nil {
			return err
		}
		base.tables = nil
		s.serial = append(s.serial, base)
	}
	return nil
}

func pktsPerS(o *outcome) float64 { return float64(o.records) / o.wall.Seconds() }

func perTrial(trials []*outcome, f func(*outcome) float64) []float64 {
	vals := make([]float64, len(trials))
	for i, o := range trials {
		vals[i] = f(o)
	}
	return vals
}

// endToEnd reduces the timed trials to the end-to-end metrics.
func (s *state) endToEnd() map[string]metricValue {
	vals := map[string][]float64{
		"pkts_per_s": perTrial(s.trials, pktsPerS),
		"close_ms_p50": perTrial(s.trials, func(o *outcome) float64 {
			if len(o.closeNs) > 0 {
				return median(o.closeNs) / 1e6
			}
			return float64(o.wall) / 1e6
		}),
		"alloc_b_per_pkt": perTrial(s.trials, func(o *outcome) float64 { return float64(o.allocB) / float64(o.records) }),
		"valid_key_frac":  perTrial(s.trials, func(o *outcome) float64 { return ratio(float64(o.valid), float64(o.total)) }),
		"setup_s":         s.setups,
		failedFrac.Name:   {ratio(float64(s.failed), float64(s.ops))},
	}
	out := map[string]metricValue{}
	for _, def := range resultMetrics() {
		sum := summarize(vals[def.Name])
		value := best(vals[def.Name], def.Better)
		if def.Median {
			value = sum.Median
		}
		out[def.Name] = metricValue{Unit: def.Unit, Value: value, summary: sum}
	}
	return out
}

func host() hostInfo {
	h := hostInfo{
		NProc: runtime.NumCPU(), GoMaxProcs: runtime.GOMAXPROCS(0),
		Go: runtime.Version(), OSArch: runtime.GOOS + "/" + runtime.GOARCH,
	}
	if data, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(data), "\n") {
			if name, ok := strings.CutPrefix(line, "model name"); ok {
				h.CPU = strings.TrimSpace(strings.TrimPrefix(strings.TrimSpace(name), ":"))
				break
			}
		}
	}
	return h
}

// print writes the workload's metrics by name with their units.
func (w *workloadReport) print(out io.Writer) {
	fmt.Fprintf(out, "\n== %s: %d records/trial, %d timed trials, %d of %d operations failed\n",
		w.Name, w.Records, w.Trials, w.Failed, w.Attempted)
	if w.EndToEnd != nil {
		for _, def := range resultMetrics() {
			m := w.EndToEnd[def.Name]
			fmt.Fprintf(out, "  %-28s %14.6g %-10s median %.6g  q1 %.6g  q3 %.6g  n %d\n",
				def.Name, m.Value, m.Unit, m.Median, m.Q1, m.Q3, m.N)
		}
	}
	if w.PerLayer != nil {
		for _, def := range perLayer {
			m := w.PerLayer[def.Name]
			fmt.Fprintf(out, "  %-28s %14.6g %s\n", def.Name, m.Value, m.Unit)
		}
		fmt.Fprintf(out, "  ns/packet budget (traced run, self time by span):\n")
		var total float64
		for _, row := range w.Budget {
			fmt.Fprintf(out, "    %-26s %10.2f  (%d calls)\n", row.Name, row.NsPerPkt, row.Calls)
			total += row.NsPerPkt
		}
		res := w.PerLayer["bench.residual_ns_per_pkt"].Value
		fmt.Fprintf(out, "    %-26s %10.2f\n", "bench.residual_ns_per_pkt", res)
		fmt.Fprintf(out, "    %-26s %10.2f  = untraced ns/packet\n", "sum", total+res)
	}
}
