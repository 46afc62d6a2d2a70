package perfq

// Benchmarks regenerating the paper's tables and figures (one per
// artifact) plus the hot datapath operations underneath them. The figure
// benchmarks report ns per replayed packet; absolute numbers depend on
// the host, but the relationships the paper reports (geometry ordering,
// merge overhead, backing-store feasibility) are visible directly in the
// measurements. See EXPERIMENTS.md for the full-scale reproduction runs.

import (
	"fmt"
	"io"
	"runtime"
	"testing"
	"time"

	"perfq/internal/backing"
	"perfq/internal/fabric"
	"perfq/internal/fold"
	"perfq/internal/harness"
	"perfq/internal/kvstore"
	"perfq/internal/netsim"
	"perfq/internal/netstore"
	"perfq/internal/obs"
	"perfq/internal/packet"
	"perfq/internal/queries"
	"perfq/internal/switchsim"
	"perfq/internal/topo"
	"perfq/internal/trace"
	"perfq/internal/tracegen"
)

// benchKeys materializes a key-reference stream once per process.
var benchKeys []packet.Key128

func keyStream(b *testing.B) []packet.Key128 {
	b.Helper()
	if benchKeys != nil {
		return benchKeys
	}
	cfg := tracegen.WANConfig(2016, 10*time.Minute)
	cfg.MaxPackets = 1_000_000
	gen := tracegen.New(cfg)
	var rec trace.Record
	for {
		if err := gen.Next(&rec); err == io.EOF {
			break
		}
		benchKeys = append(benchKeys, rec.FlowKey().Pack())
	}
	return benchKeys
}

// BenchmarkFig5EvictionRate replays the CAIDA-like key stream through
// each cache geometry of Figure 5 at the scaled 32-Mbit operating point;
// ns/op is the per-packet cost of the key-value store, and the reported
// evict% metric is the figure's y-axis.
func BenchmarkFig5EvictionRate(b *testing.B) {
	keys := keyStream(b)
	geoms := map[string]kvstore.Geometry{
		"hash-table":        kvstore.HashTable(1 << 14),
		"8-way":             kvstore.SetAssociative(1<<14, 8),
		"fully-associative": kvstore.FullyAssociative(1 << 14),
	}
	for name, g := range geoms {
		b.Run(name, func(b *testing.B) {
			cache, err := kvstore.New(kvstore.Config{Geometry: g, Fold: fold.Count()})
			if err != nil {
				b.Fatal(err)
			}
			in := &fold.Input{Rec: &trace.Record{}}
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				cache.Process(keys[i%len(keys)], in)
			}
			b.ReportMetric(100*cache.Stats().EvictionRate(), "evict%")
		})
	}
}

// BenchmarkFig6Accuracy runs one short window of the non-linear query
// pipeline (cache + epoch-keeping backing store); the accuracy metric is
// Figure 6's y-axis at this point.
func BenchmarkFig6Accuracy(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := harness.RunFig6(harness.Fig6Config{
			Seed: 63, Duration: 30 * time.Second, FlowRate: 300,
			Windows:    []time.Duration{30 * time.Second},
			SizesPairs: []int{1 << 10},
		})
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.ReportMetric(100*res.Rows[0].Accuracy[30*time.Second], "accuracy%")
		}
	}
}

// BenchmarkFig2Queries compiles and runs each Figure 2 example through
// the full datapath on a fixed 2-second datacenter trace; ns/op is the
// end-to-end cost per run (compile + switch + collector).
func BenchmarkFig2Queries(b *testing.B) {
	cfg := tracegen.DCConfig(7, 2*time.Second)
	cfg.DropProb = 0.005
	recs, err := trace.Collect(tracegen.New(cfg))
	if err != nil {
		b.Fatal(err)
	}
	for _, ex := range queries.Fig2 {
		b.Run(ex.Name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				q := MustCompile(ex.Source)
				res, err := q.Run(Records(recs), WithCache(1<<12, 8))
				if err != nil {
					b.Fatal(err)
				}
				if res.Table(ex.Result) == nil {
					b.Fatal("missing result")
				}
			}
			b.ReportMetric(float64(len(recs)), "records")
		})
	}
}

// withProcs pins GOMAXPROCS to min(want, NumCPU) for one sub-benchmark
// and restores it afterwards. Every multi-worker benchmark must call
// this: `go test` defaults GOMAXPROCS to whatever the process inherited,
// and the recorded BENCH_3..5.json series was silently measured at
// procs=1 — parallel overhead without parallel hardware. The real value
// lands in the JSON via the procs metric; benchjson records NumCPU
// alongside so a reader (and the CI procs check) can tell "host could
// not go wider" from "harness forgot to ask".
func withProcs(b *testing.B, want int) {
	n := min(want, runtime.NumCPU())
	if n < 1 {
		n = 1
	}
	prev := runtime.GOMAXPROCS(n)
	b.Cleanup(func() { runtime.GOMAXPROCS(prev) })
}

// BenchmarkShardedDatapath replays one trace through the datapath hot
// loop at shards ∈ {1, 2, 4, 8} and reports packets/sec — the scaling
// headline of the sharded architecture. The configured cache is the same
// TOTAL operating point at every shard count (the datapath splits it),
// so the series isolates parallelism, not extra SRAM. Each sub-benchmark
// runs at GOMAXPROCS = min(shards, NumCPU) (printed as the procs
// metric); on a single-core host the sharded runtime takes its inline
// bypass, so shard counts collapse to roughly the serial rate plus
// routing overhead.
//
// The datapath is built once and warmed for one window; each timed pass
// then feeds the whole trace, barriers, flushes into the backing tier
// and resets for the next window — the continuously-running shape of the
// windowed runtime, with materialization excluded (the windowed
// benchmark prices the close path). B/op therefore measures the
// per-packet path alone, which the arena-backed tiers keep
// allocation-free in steady state.
//
// A metrics registry is attached, so the recorded series prices the
// instrumented hot loop — the shape every production deployment runs.
// BenchmarkObsOverhead isolates what the registry itself costs.
func BenchmarkShardedDatapath(b *testing.B) {
	cfg := tracegen.DCConfig(12, 4*time.Second)
	cfg.DropProb = 0.005
	recs, err := trace.Collect(tracegen.New(cfg))
	if err != nil {
		b.Fatal(err)
	}
	q := MustCompile(queries.ByName("Latency EWMA").Source)
	for _, shards := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("shards-%d", shards), func(b *testing.B) {
			withProcs(b, shards)
			dp, err := switchsim.New(q.Plan(), switchsim.Config{
				Geometry: kvstore.SetAssociative(1<<14, 8),
				Shards:   shards,
				Metrics:  obs.NewRegistry(),
			})
			if err != nil {
				b.Fatal(err)
			}
			b.Cleanup(dp.EndFeed)
			pass := func() {
				dp.Feed(recs)
				dp.Sync()
				dp.Flush()
				dp.ResetWindow()
			}
			pass() // warm: size every cache, index and arena to the trace
			b.ReportAllocs()
			done := 0
			b.ResetTimer()
			for done < b.N {
				pass()
				done += len(recs)
			}
			b.ReportMetric(float64(done)/b.Elapsed().Seconds(), "pkts/s")
			b.ReportMetric(float64(runtime.GOMAXPROCS(0)), "procs")
		})
	}
}

// BenchmarkObsOverhead prices the observability layer itself: the
// serial datapath hot loop with and without a metrics registry
// attached. The two sub-benchmarks are identical apart from the
// registry, so their pkts/s ratio is the instrumentation overhead —
// TestInstrumentationOverhead pins it at ≤2%, and this benchmark is
// where the recorded JSON shows the measured number.
func BenchmarkObsOverhead(b *testing.B) {
	cfg := tracegen.DCConfig(12, 4*time.Second)
	cfg.DropProb = 0.005
	recs, err := trace.Collect(tracegen.New(cfg))
	if err != nil {
		b.Fatal(err)
	}
	q := MustCompile(queries.ByName("Latency EWMA").Source)
	for _, instrumented := range []bool{false, true} {
		name := "off"
		if instrumented {
			name = "on"
		}
		b.Run(name, func(b *testing.B) {
			withProcs(b, 1)
			var reg *obs.Registry
			if instrumented {
				reg = obs.NewRegistry()
			}
			dp, err := switchsim.New(q.Plan(), switchsim.Config{
				Geometry: kvstore.SetAssociative(1<<14, 8),
				Metrics:  reg,
			})
			if err != nil {
				b.Fatal(err)
			}
			b.Cleanup(dp.EndFeed)
			pass := func() {
				dp.Feed(recs)
				dp.Sync()
				dp.Flush()
				dp.ResetWindow()
			}
			pass() // warm
			b.ReportAllocs()
			done := 0
			b.ResetTimer()
			for done < b.N {
				pass()
				done += len(recs)
			}
			b.ReportMetric(float64(done)/b.Elapsed().Seconds(), "pkts/s")
		})
	}
}

// BenchmarkTraceOverhead prices the sampled-tracing layer on top of an
// already-instrumented datapath: both arms attach a registry, and the
// "on" arm additionally samples 1 in 4096 keys into trace spans and
// journals control-plane events — the full -metrics-addr production
// shape. The off/on pkts/s ratio is what tracing costs; the extended
// TestInstrumentationOverhead keeps the whole stack (registry +
// tracing + journal) within the 2% budget.
func BenchmarkTraceOverhead(b *testing.B) {
	cfg := tracegen.DCConfig(12, 4*time.Second)
	cfg.DropProb = 0.005
	recs, err := trace.Collect(tracegen.New(cfg))
	if err != nil {
		b.Fatal(err)
	}
	q := MustCompile(queries.ByName("Latency EWMA").Source)
	for _, traced := range []bool{false, true} {
		name := "off"
		if traced {
			name = "on"
		}
		b.Run(name, func(b *testing.B) {
			withProcs(b, 1)
			swCfg := switchsim.Config{
				Geometry: kvstore.SetAssociative(1<<14, 8),
				Metrics:  obs.NewRegistry(),
			}
			if traced {
				swCfg.Trace = obs.NewTracer(12, 0)
				swCfg.Journal = obs.NewJournal(obs.DefaultJournal)
			}
			dp, err := switchsim.New(q.Plan(), swCfg)
			if err != nil {
				b.Fatal(err)
			}
			b.Cleanup(dp.EndFeed)
			pass := func() {
				dp.Feed(recs)
				dp.Sync()
				dp.Flush()
				dp.ResetWindow()
			}
			pass() // warm
			b.ReportAllocs()
			done := 0
			b.ResetTimer()
			for done < b.N {
				pass()
				done += len(recs)
			}
			b.ReportMetric(float64(done)/b.Elapsed().Seconds(), "pkts/s")
		})
	}
}

// BenchmarkWindowedDatapath measures what continuous epochs cost: the
// same EWMA replay as the sharded benchmark, closed every 1k/10k/100k
// records (flush + materialize + reset per window) against the
// single-window baseline. The per-packet hot loop is untouched by
// windowing, so the delta is pure boundary overhead — it shrinks as the
// window grows, and the 100k point should sit within noise of baseline.
func BenchmarkWindowedDatapath(b *testing.B) {
	cfg := tracegen.DCConfig(12, 4*time.Second)
	cfg.DropProb = 0.005
	recs, err := trace.Collect(tracegen.New(cfg))
	if err != nil {
		b.Fatal(err)
	}
	q := MustCompile(queries.ByName("Latency EWMA").Source)
	for _, win := range []int64{0, 1_000, 10_000, 100_000} {
		name := "single-window"
		if win > 0 {
			name = fmt.Sprintf("window-%d", win)
		}
		b.Run(name, func(b *testing.B) {
			opts := []RunOption{WithCache(1<<14, 8)}
			if win > 0 {
				opts = append(opts, WithWindow(WindowSpec{Count: win, Keep: 4}))
			}
			b.ReportAllocs()
			done := 0
			windows := int64(0)
			b.ResetTimer()
			for done < b.N {
				res, err := q.Run(Records(recs), opts...)
				if err != nil {
					b.Fatal(err)
				}
				done += len(recs)
				windows += res.WindowCount()
			}
			b.ReportMetric(float64(done)/b.Elapsed().Seconds(), "pkts/s")
			b.ReportMetric(float64(windows)*float64(len(recs))/float64(done), "windows/run")
		})
	}
}

// BenchmarkFabricDatapath replays a leaf-spine fabric trace through the
// network-wide deployment — the datapath partitioned by switch behind
// one feeder, then the network-wide reconcile — serial (GOMAXPROCS 1:
// the inline router) vs one worker per switch (the parallel
// sub-benchmark runs at GOMAXPROCS = min(switches, NumCPU); with only
// one processor it degenerates to the inline path, and the procs metric
// says so). pkts/s counts records of the merged stream.
func BenchmarkFabricDatapath(b *testing.B) {
	tp := topo.LeafSpine(4, 2, 8, topo.Options{})
	recs, err := netsim.GenWorkload(tp, netsim.Workload{Seed: 12, Flows: 1200})
	if err != nil {
		b.Fatal(err)
	}
	q := MustCompile(queries.ByName("Per-flow counters").Source)
	for _, serial := range []bool{true, false} {
		name := "parallel"
		if serial {
			name = "serial"
		}
		b.Run(name, func(b *testing.B) {
			if serial {
				withProcs(b, 1)
			} else {
				withProcs(b, len(tp.SwitchIDs()))
			}
			b.ReportAllocs()
			done := 0
			b.ResetTimer()
			for done < b.N {
				fab, err := fabric.New(q.Plan(), tp, fabric.Config{
					Switch: switchsim.Config{Geometry: kvstore.SetAssociative(1<<14, 8)},
				})
				if err != nil {
					b.Fatal(err)
				}
				if err := fab.Run(Records(recs)); err != nil {
					b.Fatal(err)
				}
				if _, err := fab.Collect(); err != nil {
					b.Fatal(err)
				}
				done += len(recs)
			}
			b.ReportMetric(float64(done)/b.Elapsed().Seconds(), "pkts/s")
			b.ReportMetric(float64(runtime.GOMAXPROCS(0)), "procs")
		})
	}
}

// BenchmarkCacheUpdateExactMerge measures the per-packet cost of the
// linear-in-state machinery on a cache hit: state ← A·S+B plus the
// running product P ← A·P (the paper's extra multiply for (1-α)^N).
func BenchmarkCacheUpdateExactMerge(b *testing.B) {
	lat := fold.Bin{Op: fold.OpSub, L: fold.FieldRef(trace.FieldTout), R: fold.FieldRef(trace.FieldTin)}
	f := fold.Ewma(lat, 0.125)
	cache, err := kvstore.New(kvstore.Config{
		Geometry: kvstore.SetAssociative(1<<10, 8), Fold: f, ExactMerge: true,
	})
	if err != nil {
		b.Fatal(err)
	}
	key := packet.FiveTuple{Src: packet.Addr4{10, 0, 0, 1}, Proto: packet.ProtoTCP}.Pack()
	in := &fold.Input{Rec: &trace.Record{Tin: 10, Tout: 20}}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		cache.Process(key, in)
	}
}

// BenchmarkBackingMerge measures one eviction reconciliation (§3.2's
// merge operation, with the first-packet replay).
func BenchmarkBackingMerge(b *testing.B) {
	lat := fold.Bin{Op: fold.OpSub, L: fold.FieldRef(trace.FieldTout), R: fold.FieldRef(trace.FieldTin)}
	f := fold.Ewma(lat, 0.125)
	if err := f.EnsureCompiled(); err != nil { // no cache in front to do it
		b.Fatal(err)
	}
	store := backing.New(f)
	rec := trace.Record{Tin: 5, Tout: 17}
	ev := kvstore.Eviction{
		Key:      packet.FiveTuple{SrcPort: 1}.Pack(),
		State:    []float64{3.5},
		P:        []float64{0.25},
		FirstRec: &rec,
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		store.HandleEviction(&ev)
	}
}

// BenchmarkNetstoreThroughput streams merge-frame evictions over TCP
// loopback; ops/s here is the §4 feasibility number (the paper needs
// 802K evictions/s at the 32-Mbit point).
func BenchmarkNetstoreThroughput(b *testing.B) {
	lat := fold.Bin{Op: fold.OpSub, L: fold.FieldRef(trace.FieldTout), R: fold.FieldRef(trace.FieldTin)}
	f := fold.Ewma(lat, 0.125)
	srv, err := netstore.NewServer("127.0.0.1:0", f)
	if err != nil {
		b.Fatal(err)
	}
	defer srv.Close()
	cl, err := netstore.Dial(srv.Addr(), f)
	if err != nil {
		b.Fatal(err)
	}
	defer cl.Close()
	rec := trace.Record{Tin: 1, Tout: 2}
	ev := kvstore.Eviction{
		Key:      packet.FiveTuple{SrcPort: 9}.Pack(),
		State:    []float64{1},
		P:        []float64{0.5},
		FirstRec: &rec,
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if err := cl.HandleEviction(&ev); err != nil {
			b.Fatal(err)
		}
	}
	if err := cl.Sync(); err != nil {
		b.Fatal(err)
	}
}

// BenchmarkCompile measures frontend+compiler cost for the most complex
// example (the fused loss-rate join).
func BenchmarkCompile(b *testing.B) {
	src := queries.ByName("Per-flow loss rate").Source
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := Compile(src); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkGroundTruthPerRecord and BenchmarkDatapathPerRecord compare
// the software executor against the switch datapath per record.
func BenchmarkGroundTruthPerRecord(b *testing.B) {
	benchPerRecord(b, func(q *Query, recs []Record) error {
		_, err := q.GroundTruth(Records(recs))
		return err
	})
}

func BenchmarkDatapathPerRecord(b *testing.B) {
	benchPerRecord(b, func(q *Query, recs []Record) error {
		_, err := q.Run(Records(recs), WithCache(1<<12, 8))
		return err
	})
}

func benchPerRecord(b *testing.B, run func(*Query, []Record) error) {
	b.Helper()
	cfg := tracegen.DCConfig(9, 2*time.Second)
	recs, err := trace.Collect(tracegen.New(cfg))
	if err != nil {
		b.Fatal(err)
	}
	q := MustCompile(queries.ByName("Latency EWMA").Source)
	b.ResetTimer()
	done := 0
	for done < b.N {
		if err := run(q, recs); err != nil {
			b.Fatal(err)
		}
		done += len(recs)
	}
	b.ReportMetric(float64(len(recs)), "records/run")
}
