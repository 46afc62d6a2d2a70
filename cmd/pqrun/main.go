// pqrun compiles a query program and runs it over a trace — a pqt record
// file or a freshly generated synthetic capture — through the full
// cache + backing-store datapath, printing each result table.
//
// With -topo the query instead runs network-wide: a topology is built
// from the spec, a deterministic workload is simulated over it
// (internal/netsim), and the query executes on the fabric — one datapath
// per switch, reconciled by the collector — with the cache budget split
// across switches.
//
// Usage:
//
//	pqrun -trace trace.pqt query.pq
//	pqrun -gen wan -duration 30s -pairs 65536 -ways 8 query.pq
//	pqrun -topo leafspine:4x2x8 -flows 400 -incast 16 query.pq
//	pqrun -window 10000 -windows-keep 8 query.pq
//	pqrun -window 10000 -metrics-addr :9090 -stats-interval 2s query.pq
//
// With -window N (or -window-time D) the query runs as a continuous
// stream of measurement windows: one summary line per window as it
// closes, a bounded ring of the last -windows-keep results, and the
// final window's tables at the end. -window-carry keeps state across
// boundaries (cumulative windows, the paper's periodic SRAM refresh)
// instead of the default independent tumbling windows.
//
// With -metrics-addr the run serves its live observability surface over
// HTTP: /metrics in Prometheus text format, /debug/perfq as a JSON
// drill-down (per-switch, per-backend series), /debug/trace with the
// sampled packet spans (per-hop latency, slowest traversals; tune with
// -trace-sample), /debug/events with the control-plane flight recorder
// (window closes, barriers, breaker and health transitions; size with
// -journal-size), and /debug/pprof for the Go profiler.
// -stats-interval logs a one-line counter summary on stderr while the
// run is live. All of it composes with every other mode, including
// -backing (pool health and drop counters appear in /metrics).
//
// SIGINT or SIGTERM ends the run as the end of the trace would: the open
// window closes, the backing pool is synced, profiles are written and the
// tables of the records read so far are printed. A second signal exits
// at once.
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/signal"
	"runtime"
	"runtime/pprof"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"perfq"
	"perfq/internal/netsim"
	"perfq/internal/topo"
	"perfq/internal/trace"
	"perfq/internal/tracegen"
)

func main() {
	var (
		tracePath  = flag.String("trace", "", "pqt trace file (overrides -gen)")
		gen        = flag.String("gen", "wan", "synthetic preset when no trace file: wan|dc")
		topoSpec   = flag.String("topo", "", "run network-wide on this topology (chain:N, leafspine:LxSxH)")
		flows      = flag.Int("flows", 200, "background flows of the -topo workload")
		incast     = flag.Int("incast", 0, "incast senders of the -topo workload (0 = none)")
		duration   = flag.Duration("duration", 10*time.Second, "synthetic capture length")
		seed       = flag.Int64("seed", 1, "synthetic trace seed")
		pairs      = flag.Int("pairs", 1<<18, "cache capacity in key-value pairs")
		ways       = flag.Int("ways", 8, "cache associativity (0 = full LRU, 1 = hash table)")
		shards     = flag.Int("shards", 1, "parallel datapath shards (1 = serial)")
		windowN    = flag.Int64("window", 0, "close a measurement window every N records (0 = single window)")
		windowT    = flag.Duration("window-time", 0, "close windows every D of virtual trace time")
		windowKeep = flag.Int("windows-keep", 8, "retained ring of window results")
		windowCar  = flag.Bool("window-carry", false, "carry state across window boundaries (cumulative)")
		backing    = flag.String("backing", "", "mirror evictions into a pool of backing stores at host1:port,host2:port,...")
		backingLoc = flag.Int("backing-local", 0, "spin up N in-process backing stores and pool over them (demo of -backing)")
		backingQD  = flag.Int("backing-queue", 1<<16, "per-backend eviction queue depth of the -backing pool (overflow drops oldest)")
		metricAddr = flag.String("metrics-addr", "", "serve live /metrics (Prometheus) and /debug/perfq (JSON) on this address, e.g. :9090")
		statsEvery = flag.Duration("stats-interval", 0, "log a one-line stats summary every D while the run is live (0 = off)")
		traceSamp  = flag.Int("trace-sample", perfq.DefaultTraceSampleExp, "sample 1 in 2^k keys for packet tracing at /debug/trace (negative = off)")
		journalN   = flag.Int("journal-size", 4096, "control-plane flight recorder capacity at /debug/events (0 = off)")
		maxRows    = flag.Int("rows", 20, "rows to print per table (0 = all)")
		truth      = flag.Bool("truth", false, "also run ground truth and report row agreement")
		cpuProfile = flag.String("cpuprofile", "", "write a CPU profile of the run to this file")
		memProfile = flag.String("memprofile", "", "write a heap profile (after the run) to this file")
	)
	flag.Parse()
	if flag.NArg() != 1 {
		fmt.Fprintln(os.Stderr, "usage: pqrun [flags] <query.pq>")
		flag.PrintDefaults()
		os.Exit(2)
	}

	// Validate the observability flags before any work happens, and bind
	// the metrics listener up front so a bad address fails immediately
	// instead of after minutes of trace generation.
	if *statsEvery < 0 {
		fail(fmt.Errorf("-stats-interval must be >= 0, got %v", *statsEvery))
	}
	var metrics *perfq.Metrics
	if *metricAddr != "" || *statsEvery > 0 {
		metrics = perfq.NewMetrics()
		metrics.SetTraceSampling(*traceSamp)
		metrics.SetJournalSize(*journalN)
	}
	start := time.Now()
	if *metricAddr != "" {
		ln, err := net.Listen("tcp", *metricAddr)
		if err != nil {
			fail(fmt.Errorf("-metrics-addr %q: %w", *metricAddr, err))
		}
		defer ln.Close()
		queryPath := flag.Arg(0)
		go http.Serve(ln, metrics.Handler(func() any {
			return map[string]any{
				"query":   queryPath,
				"uptime":  time.Since(start).String(),
				"shards":  *shards,
				"backing": *backing != "" || *backingLoc > 0,
			}
		}))
		fmt.Fprintf(os.Stderr, "pqrun: serving /metrics, /debug/perfq, /debug/trace, /debug/events, /debug/pprof on http://%s\n", ln.Addr())
	}
	if *cpuProfile != "" || *memProfile != "" {
		var cpuFile *os.File
		if *cpuProfile != "" {
			f, err := os.Create(*cpuProfile)
			if err != nil {
				fail(err)
			}
			if err := pprof.StartCPUProfile(f); err != nil {
				fail(err)
			}
			cpuFile = f
		}
		var once sync.Once
		// fail() also runs this, so profiles are flushed and usable even
		// when the run errors out partway.
		finishProfiles = func() {
			once.Do(func() {
				if cpuFile != nil {
					pprof.StopCPUProfile()
					cpuFile.Close()
				}
				if *memProfile == "" {
					return
				}
				f, err := os.Create(*memProfile)
				if err != nil {
					fmt.Fprintf(os.Stderr, "pqrun: %v\n", err)
					return
				}
				defer f.Close()
				runtime.GC() // materialize the retained heap before snapshotting
				if err := pprof.WriteHeapProfile(f); err != nil {
					fmt.Fprintf(os.Stderr, "pqrun: %v\n", err)
				}
			})
		}
		defer finishProfiles()
	}

	src, err := os.ReadFile(flag.Arg(0))
	if err != nil {
		fail(err)
	}
	q, err := perfq.Compile(string(src))
	if err != nil {
		fail(err)
	}

	// -topo: simulate the workload once, replay from memory, run on the
	// fabric. The same spec syntax drives tracegen, so a pqt trace
	// recorded there replays identically through -trace + -topo.
	var fabricTopo *topo.Topology
	var fabricRecs []trace.Record
	if *topoSpec != "" {
		tp, err := topo.ParseSpec(*topoSpec, topo.Options{})
		if err != nil {
			fail(err)
		}
		fabricTopo = tp
		if *tracePath == "" {
			fabricRecs, err = netsim.GenWorkload(tp, netsim.Workload{
				Seed: *seed, Flows: *flows, IncastSenders: *incast,
			})
			if err != nil {
				fail(err)
			}
		}
	}

	newSource := func() (perfq.Source, func(), error) {
		if fabricRecs != nil {
			return &trace.SliceSource{Records: fabricRecs}, func() {}, nil
		}
		if *tracePath != "" {
			f, err := os.Open(*tracePath)
			if err != nil {
				return nil, nil, err
			}
			r, err := trace.NewReader(f)
			if err != nil {
				f.Close()
				return nil, nil, err
			}
			return r, func() { f.Close() }, nil
		}
		var cfg tracegen.Config
		switch *gen {
		case "wan":
			cfg = tracegen.WANConfig(*seed, *duration)
		case "dc":
			cfg = tracegen.DCConfig(*seed, *duration)
		default:
			return nil, nil, fmt.Errorf("unknown preset %q", *gen)
		}
		return tracegen.New(cfg), func() {}, nil
	}

	inner, done, err := newSource()
	if err != nil {
		fail(err)
	}
	srcRecs := newStopSource(inner)
	sig := make(chan os.Signal, 2)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	go func() {
		<-sig
		fmt.Fprintln(os.Stderr, "pqrun: interrupted: ending the run at the records read so far (signal again to exit now)")
		srcRecs.Stop()
		<-sig
		fail(errors.New("interrupted again: exiting without finishing the run"))
	}()
	opts := []perfq.RunOption{perfq.WithCache(*pairs, *ways), perfq.WithShards(*shards)}
	if fabricTopo != nil {
		opts = append(opts, perfq.WithFabric(fabricTopo))
	}
	if metrics != nil {
		opts = append(opts, perfq.WithMetrics(metrics))
	}
	if *statsEvery > 0 {
		defer startStatsLogger(metrics, *statsEvery, start)()
	}

	// -backing / -backing-local: mirror the run's evictions into a
	// resilient pool of backing stores. A dead backend costs accuracy
	// (reported below), never feed latency.
	var pool *perfq.BackingPool
	if *backing != "" || *backingLoc > 0 {
		addrs := splitAddrs(*backing)
		var cluster *perfq.BackingCluster
		if *backingLoc > 0 {
			cluster, err = q.ServeBackingStores(*backingLoc)
			if err != nil {
				fail(err)
			}
			defer cluster.Close()
			addrs = append(addrs, cluster.Addrs()...)
		}
		pool, err = q.DialBackingPool(addrs, perfq.BackingPoolConfig{QueueDepth: *backingQD, Metrics: metrics})
		if err != nil {
			fail(err)
		}
		defer pool.Close()
		opts = append(opts, perfq.WithBackingPool(pool))
	}

	var res *perfq.Results
	if *windowN > 0 || *windowT > 0 {
		if *truth {
			// The final window's tables cover one window (or, with
			// -window-carry, the whole run but through the windowed
			// datapath); comparing them against a full-trace ground truth
			// would report spurious disagreement. Per-window ground truth
			// is the windowed equivalence suite's job (window_equiv_test).
			fail(fmt.Errorf("-truth is not supported together with -window/-window-time"))
		}
		spec := perfq.WindowSpec{
			Count: *windowN, Interval: *windowT,
			Carry: *windowCar, Keep: *windowKeep,
		}
		primary := ""
		if names := q.Results(); len(names) > 0 {
			primary = names[len(names)-1]
		}
		res, err = q.Stream(srcRecs, func(w *perfq.WindowResult) error {
			rows := 0
			if t := w.Result(); t != nil {
				rows = t.Len()
			}
			acc := 100.0
			if w.TotalKeys > 0 {
				acc = 100 * float64(w.ValidKeys) / float64(w.TotalKeys)
			}
			fmt.Printf("window %4d: %8d records  %s rows=%-7d evictions=%-8d keys valid %5.1f%% (%d/%d)\n",
				w.Index, w.Records, primary, rows, w.Evictions, acc, w.ValidKeys, w.TotalKeys)
			return nil
		}, append(opts, perfq.WithWindow(spec))...)
		done()
		if err != nil {
			fail(err)
		}
		fmt.Printf("\n%d windows closed, last %d retained (%d dropped from the ring)\n",
			res.WindowCount(), len(res.Windows()), res.WindowsDropped())
		fmt.Printf("== final window tables ==\n\n")
	} else {
		res, err = q.Run(srcRecs, opts...)
		done()
		if err != nil {
			fail(err)
		}
	}

	for _, name := range q.Results() {
		tab := res.Table(name)
		fmt.Printf("== %s (%d rows) ==\n", name, tab.Len())
		tab.Format(os.Stdout, *maxRows)
		fmt.Println()
	}
	fmt.Printf("cache evictions: %d; backing-store keys valid: %d/%d\n",
		res.Evictions, res.ValidKeys, res.TotalKeys)
	if pool != nil {
		if err := pool.Sync(); err != nil {
			fmt.Fprintf(os.Stderr, "pqrun: backing pool sync: %v\n", err)
		}
		up := 0
		for _, h := range pool.Healthy() {
			if h {
				up++
			}
		}
		fmt.Printf("backing pool: %d/%d backends healthy, %d evictions dropped\n  %s\n",
			up, len(pool.Addrs()), pool.DroppedEvictions(), pool.StatsLine())
	}
	if sws := res.Switches(); sws != nil {
		fmt.Printf("fabric: %d switch datapaths, %d pairs each, %d unrouted records",
			len(sws), res.SwitchPairs(), res.Unrouted())
		if res.WindowCount() == 0 {
			// Windowed runs reset the per-switch stores at every boundary,
			// so the post-run per-switch views are intentionally empty.
			fmt.Printf("; per-switch result rows:")
			for _, sw := range sws {
				n := 0
				if t := res.SwitchResult(sw); t != nil {
					n = t.Len()
				}
				fmt.Printf(" %s=%d", res.SwitchName(sw), n)
			}
		}
		fmt.Println()
	}

	if *truth && srcRecs.stopped.Load() {
		fmt.Fprintln(os.Stderr, "pqrun: -truth skipped: the run was interrupted short of the whole trace")
	} else if *truth {
		srcRecs, done, err := newSource()
		if err != nil {
			fail(err)
		}
		var gtOpts []perfq.RunOption
		if fabricTopo != nil {
			gtOpts = append(gtOpts, perfq.WithFabric(fabricTopo))
		}
		tr, err := q.GroundTruth(srcRecs, gtOpts...)
		done()
		if err != nil {
			fail(err)
		}
		for _, name := range q.Results() {
			fmt.Printf("ground truth %s: %d rows (datapath: %d)\n",
				name, tr.Table(name).Len(), res.Table(name).Len())
		}
	}
}

// stopSource is the run's record source with an off switch: once stopped
// it reports io.EOF, so a run over it ends through the code every run
// ends through. A run handed out before Stop is still delivered whole —
// an in-memory slice (-topo) is a single run, so it is never cut short.
type stopSource struct {
	src     perfq.Source
	runs    trace.BatchSource
	stopped atomic.Bool
}

func newStopSource(src perfq.Source) *stopSource {
	return &stopSource{src: src, runs: trace.Batches(src)}
}

// Stop may be called from any goroutine.
func (s *stopSource) Stop() { s.stopped.Store(true) }

func (s *stopSource) Next(rec *trace.Record) error {
	if s.stopped.Load() {
		return io.EOF
	}
	return s.src.Next(rec)
}

func (s *stopSource) NextBatch() ([]trace.Record, error) {
	if s.stopped.Load() {
		return nil, io.EOF
	}
	return s.runs.NextBatch()
}

// finishProfiles flushes active profiles; a no-op unless profiling flags
// were given. fail routes through it so os.Exit never truncates them.
var finishProfiles = func() {}

// startStatsLogger emits a one-line summary of the run's headline
// counters every interval on stderr; the returned func stops it.
func startStatsLogger(metrics *perfq.Metrics, interval time.Duration, start time.Time) func() {
	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		t := time.NewTicker(interval)
		defer t.Stop()
		last := time.Now()
		var lastPackets float64
		for {
			select {
			case <-stop:
				return
			case <-t.C:
				now := time.Now()
				packets, _ := metrics.Value("perfq_packets_total")
				pps := (packets - lastPackets) / now.Sub(last).Seconds()
				ev, _ := metrics.Value("perfq_cache_evictions_total")
				fl, _ := metrics.Value("perfq_cache_flushed_total")
				line := fmt.Sprintf("pqrun: t=%-8s packets=%.0f pps=%.0f evictions=%.0f flushed=%.0f",
					time.Since(start).Round(time.Second), packets, pps, ev, fl)
				if wins, ok := metrics.Value("perfq_windows_closed_total"); ok {
					line += fmt.Sprintf(" windows=%.0f", wins)
					if qs, qok := metrics.Quantiles("perfq_window_close_ns", 0.5, 0.99); qok {
						line += fmt.Sprintf(" close_p50=%s close_p99=%s",
							time.Duration(qs[0]).Round(time.Microsecond),
							time.Duration(qs[1]).Round(time.Microsecond))
					}
					if wd, wok := metrics.Value("perfq_windows_dropped_total"); wok && wd > 0 {
						line += fmt.Sprintf(" win_dropped=%.0f", wd)
					}
				}
				if dropped, ok := metrics.Value("perfq_pool_dropped_total"); ok {
					line += fmt.Sprintf(" pool_dropped=%.0f", dropped)
					if open, bok := metrics.Value("perfq_pool_breaker_open"); bok {
						line += fmt.Sprintf(" breakers_open=%.0f", open)
					}
				}
				fmt.Fprintln(os.Stderr, line)
				last, lastPackets = now, packets
			}
		}
	}()
	return func() { close(stop); wg.Wait() }
}

// splitAddrs parses a comma-separated -backing list, tolerating empty
// segments and whitespace.
func splitAddrs(s string) []string {
	var out []string
	for _, a := range strings.Split(s, ",") {
		if a = strings.TrimSpace(a); a != "" {
			out = append(out, a)
		}
	}
	return out
}

func fail(err error) {
	fmt.Fprintf(os.Stderr, "pqrun: %v\n", err)
	finishProfiles()
	os.Exit(1)
}
