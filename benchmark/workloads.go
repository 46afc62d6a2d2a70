package main

import (
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"syscall"
	"time"

	"perfq"
	"perfq/internal/netsim"
	"perfq/internal/queries"
	"perfq/internal/topo"
	"perfq/internal/trace"
	"perfq/internal/tracegen"
)

// scale sizes the inputs. full is what BENCHMARK.json's numbers mean;
// tiny exists for the self-test.
type scale struct {
	name         string
	fileRecs     int // DC-preset records in the pqt file
	wanRecs      int // WAN-preset records of the in-memory workloads
	fabricFlows  int // netsim background flows over the leaf-spine fabric
	streamWindow int64
	poolWindow   int64
}

var scales = map[string]scale{
	"full": {name: "full", fileRecs: 3_000_000, wanRecs: 1_000_000, fabricFlows: 20_000,
		streamWindow: 5_000, poolWindow: 100_000},
	"tiny": {name: "tiny", fileRecs: 50_000, wanRecs: 50_000, fabricFlows: 1_200,
		streamWindow: 5_000, poolWindow: 10_000},
}

// Query programs. churnProgram pairs a linear (exactly merged) store
// with an epoch-keeping one over the same key, so valid_key_frac is a
// real number on churn_merge; fabricProgram adds a per-flow store to the
// per-queue loss pipeline so the collector merges state across switches.
var (
	ewmaProgram = queries.ByName("Latency EWMA").Source

	churnProgram = `const alpha = 0.125
def ewma(lat_est, (tin, tout)):
    lat_est = (1 - alpha) * lat_est + alpha * (tout - tin)
def nonmt((maxseq, nm_count), tcpseq):
    if maxseq > tcpseq:
        nm_count = nm_count + 1
    maxseq = max(maxseq, tcpseq)
R1 = SELECT 5tuple, ewma GROUPBY 5tuple
R2 = SELECT 5tuple, nonmt GROUPBY 5tuple WHERE proto == 6
`

	fabricProgram = queries.LossByQueue + "R4 = SELECT COUNT, SUM(pkt_len) GROUPBY 5tuple\n"
)

type inputKind int

const (
	inputFile   inputKind = iota // DC preset, written to a pqt file
	inputWAN                     // WAN preset, in memory
	inputFabric                  // netsim over LeafSpine(4, 2, 8), in memory
)

// poolQueueDepth bounds each backend's eviction queue on pool_stream.
// One 100k-record window offers ≈22k evictions per backend and emit
// syncs the pool every window, so occupancy stays under the depth and
// drops are exactly 0; at the default depth without the per-window sync
// the same load drops a noisy share of evictions, which cannot be gated.
const poolQueueDepth = 32768

// ways is the cache associativity of every workload (the paper's
// preferred geometry).
const ways = 8

// workload is one set of inputs and facade options. Every trial is a
// closed loop with one feeder: perfq pulls from the source, so the
// offered rate is the consumption rate.
type workload struct {
	name, why  string
	program    string
	input      inputKind
	cachePairs int   // WithCache(cachePairs, ways); the total budget under WithFabric
	shards     int   // WithShards when > 1
	window     int64 // > 0: Query.Stream over the benchmark's live feed, WithWindow{Count: window}
	metrics    bool  // WithMetrics(NewMetrics()), the production shape
	pool       bool  // WithBackingPool over 2 loopback backends, Sync inside emit
}

func workloads(sc scale) []workload {
	return []workload{
		{name: "file_serial", program: ewmaProgram, input: inputFile, cachePairs: 1 << 14,
			why: "pqt file on disk through trace.Reader and the per-record serial entry; cache hits ~96%, the path pqrun -trace users get"},
		{name: "file_shards2", program: ewmaProgram, input: inputFile, cachePairs: 1 << 14, shards: 2,
			why: "file_serial plus WithShards(2): router, ring transport and barrier are the only difference, so it prices the parallel seam"},
		{name: "churn_merge", program: churnProgram, input: inputWAN, cachePairs: 1 << 12,
			why: "in-memory bulk entry, two stores under ~40% evictions: kvstore eviction and backing merge/append dominate, accuracy is below 1"},
		{name: "stream_windows", program: ewmaProgram, input: inputWAN, cachePairs: 1 << 14,
			window: sc.streamWindow, metrics: true,
			why: "live feed closed every 5000 records with metrics attached: flush, materialize and reset dominate, the cache almost never evicts"},
		{name: "fabric_multi", program: fabricProgram, input: inputFabric, cachePairs: 1 << 16,
			why: "leaf-spine fabric: demux, per-switch datapaths, cross-switch state merge and the collector JOIN; low cache pressure"},
		{name: "pool_stream", program: ewmaProgram, input: inputWAN, cachePairs: 1 << 12,
			window: sc.poolWindow, pool: true,
			why: "every eviction shipped to a 2-backend pool over loopback TCP and synced per window: netstore is the bottleneck"},
	}
}

// inputs is what set-up produces from the seed; the program under test
// only ever sees these.
type inputs struct {
	q      *perfq.Query
	recs   []perfq.Record // in-memory workloads
	path   string         // file workloads
	n      int64          // records per trial
	topo   *topo.Topology // fabric workloads
	setupS float64
}

// setup generates the workload's inputs from the seed, writes the trace
// file, compiles the query and, for pool workloads, brings a backing
// tier up once — everything a user pays before the first record flows.
func (w *workload) setup(sc scale, seed int64, tmp string) (*inputs, error) {
	t0 := time.Now()
	q, err := perfq.Compile(w.program)
	if err != nil {
		return nil, fmt.Errorf("%s: compile: %w", w.name, err)
	}
	in := &inputs{q: q}
	switch w.input {
	case inputFile:
		cfg := tracegen.DCConfig(seed, time.Hour)
		cfg.DropProb = 0.005
		cfg.MaxPackets = int64(sc.fileRecs)
		in.path = filepath.Join(tmp, w.name+".pqt")
		if in.n, err = writeTrace(in.path, tracegen.New(cfg)); err != nil {
			return nil, fmt.Errorf("%s: %w", w.name, err)
		}
	case inputWAN:
		cfg := tracegen.WANConfig(seed, time.Hour)
		cfg.MaxPackets = int64(sc.wanRecs)
		in.recs = make([]perfq.Record, 0, sc.wanRecs)
		gen := tracegen.New(cfg)
		var rec perfq.Record
		for gen.Next(&rec) == nil { // the generator's only error is io.EOF
			in.recs = append(in.recs, rec)
		}
	case inputFabric:
		in.topo = topo.LeafSpine(4, 2, 8, topo.Options{})
		in.recs, err = netsim.GenWorkload(in.topo, netsim.Workload{Seed: seed, Flows: sc.fabricFlows})
		if err != nil {
			return nil, fmt.Errorf("%s: netsim: %w", w.name, err)
		}
	}
	if in.recs != nil {
		in.n = int64(len(in.recs))
	}
	if w.pool {
		b, err := startBackends(q)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", w.name, err)
		}
		b.close()
	}
	in.setupS = time.Since(t0).Seconds()
	return in, nil
}

func writeTrace(path string, src trace.Source) (n int64, err error) {
	f, err := os.Create(path)
	if err != nil {
		return 0, err
	}
	defer f.Close()
	tw, err := trace.NewWriter(f)
	if err != nil {
		return 0, err
	}
	var rec trace.Record
	for src.Next(&rec) == nil {
		if err := tw.Write(&rec); err != nil {
			return 0, err
		}
	}
	if err := tw.Flush(); err != nil {
		return 0, err
	}
	// Sync, so the kernel's writeback of this file (hundreds of MB) is
	// paid here in set-up and does not run under the timed trials.
	if err := f.Sync(); err != nil {
		return 0, err
	}
	return tw.Count(), f.Close()
}

// readTrace loads a pqt file (what the file lost to its 64-byte record
// format stays lost, so truth and replays see what the program saw).
func readTrace(path string) ([]trace.Record, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	r, err := trace.NewReader(f)
	if err != nil {
		return nil, err
	}
	return trace.Collect(r)
}

// records returns the workload's records in memory.
func (in *inputs) records() ([]trace.Record, error) {
	if in.recs != nil {
		return in.recs, nil
	}
	return readTrace(in.path)
}

// backends is a loopback backing tier: 2 servers and a dialed pool.
type backends struct {
	cluster *perfq.BackingCluster
	pool    *perfq.BackingPool
}

func startBackends(q *perfq.Query) (*backends, error) {
	cluster, err := q.ServeBackingStores(2)
	if err != nil {
		return nil, fmt.Errorf("backing servers: %w", err)
	}
	pool, err := q.DialBackingPool(cluster.Addrs(), perfq.BackingPoolConfig{QueueDepth: poolQueueDepth})
	if err != nil {
		cluster.Close()
		return nil, fmt.Errorf("backing pool: %w", err)
	}
	return &backends{cluster: cluster, pool: pool}, nil
}

func (b *backends) close() {
	b.pool.Close()
	b.cluster.Close()
}

// poolBooks is the backing tier's accounting after a trial.
type poolBooks struct {
	Offered, Acked, Dropped, Overflow, Keys uint64
}

func (b *backends) books() (poolBooks, error) {
	var pb poolBooks
	for _, bs := range b.pool.Stats() {
		if !bs.Reachable {
			return pb, fmt.Errorf("backend %s unreachable", bs.Addr)
		}
		pb.Offered += bs.Offered
		pb.Acked += bs.Acked
		pb.Dropped += bs.Dropped
		pb.Overflow += bs.Overflow
		pb.Keys += bs.Server.Keys
	}
	return pb, nil
}

// feedSource is the benchmark's live feed: a Source that is not a slice,
// so the facade takes its streaming entry. It stamps the moment it hands
// over the first record past each window boundary (or EOF) — the start
// of that window's close latency.
type feedSource struct {
	recs   []trace.Record
	pos    int
	window int
	marks  []time.Time // marks[k]: window k could first have been closed
}

func (s *feedSource) Next(rec *trace.Record) error {
	if s.pos >= len(s.recs) {
		s.marks = append(s.marks, time.Now())
		return io.EOF
	}
	if s.pos > 0 && s.pos%s.window == 0 {
		s.marks = append(s.marks, time.Now())
	}
	*rec = s.recs[s.pos]
	s.pos++
	return nil
}

// outcome is everything one facade run yields.
type outcome struct {
	records int64
	wall    time.Duration
	allocB  uint64
	cpuNs   int64
	gcs     uint32
	heapMB  float64
	closeNs []float64 // windowed: boundary → emit, per window

	windows   int64
	rows      int64 // primary-result rows (summed over windows)
	valid     int
	total     int
	evictions uint64
	unrouted  uint64
	books     poolBooks

	// tables holds every stage's table, of every window kept: all of
	// them on the verification trial, a fixed sample on timed trials.
	tables [][]*perfq.Table
	// tier is left running only on the verification trial, so the
	// backends' stores can be read back.
	tier *backends
}

// digestSampleEvery picks the windows whose tables a timed trial keeps
// for its checksum.
const digestSampleEvery = 16

// run makes one full facade run over the inputs. keepAll marks the
// verification trial: every window is retained and the backing tier is
// left up for read-back.
func (w *workload) run(in *inputs, keepAll bool) (*outcome, error) {
	opts := []perfq.RunOption{perfq.WithCache(w.cachePairs, ways)}
	if w.shards > 1 {
		opts = append(opts, perfq.WithShards(w.shards))
	}
	if in.topo != nil {
		opts = append(opts, perfq.WithFabric(in.topo))
	}
	if w.window > 0 {
		opts = append(opts, perfq.WithWindow(perfq.WindowSpec{Count: w.window, Keep: 4}))
	}
	if w.metrics {
		opts = append(opts, perfq.WithMetrics(perfq.NewMetrics()))
	}
	out := &outcome{records: in.n}
	var tier *backends
	if w.pool {
		var err error
		if tier, err = startBackends(in.q); err != nil {
			return nil, err
		}
		opts = append(opts, perfq.WithBackingPool(tier.pool))
	}
	stages := in.q.Plan().Stages

	runtime.GC()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	cpu0 := cpuTime()
	t0 := time.Now()

	var (
		res *perfq.Results
		err error
	)
	switch {
	case w.window > 0:
		feed := &feedSource{recs: in.recs, window: int(w.window)}
		res, err = in.q.Stream(feed, func(wr *perfq.WindowResult) error {
			out.closeNs = append(out.closeNs, float64(time.Since(feed.marks[wr.Index])))
			out.windows++
			out.rows += int64(wr.Result().Len())
			out.valid += wr.ValidKeys
			out.total += wr.TotalKeys
			if keepAll || wr.Index%digestSampleEvery == 0 {
				tabs := make([]*perfq.Table, len(stages))
				for i, st := range stages {
					tabs[i] = wr.Table(st.Name)
				}
				out.tables = append(out.tables, tabs)
			}
			if tier != nil {
				return tier.pool.Sync()
			}
			return nil
		}, opts...)
	case in.path != "":
		var f *os.File
		if f, err = os.Open(in.path); err != nil {
			break
		}
		var r *trace.Reader
		if r, err = trace.NewReader(f); err == nil {
			res, err = in.q.Run(r, opts...)
		}
		f.Close()
	default:
		res, err = in.q.Run(perfq.Records(in.recs), opts...)
	}
	out.wall = time.Since(t0)
	out.cpuNs = cpuTime() - cpu0
	runtime.ReadMemStats(&m1)
	if err != nil {
		if tier != nil {
			tier.close()
		}
		return nil, fmt.Errorf("%s: %w", w.name, err)
	}
	out.allocB = m1.TotalAlloc - m0.TotalAlloc
	out.gcs = m1.NumGC - m0.NumGC
	out.heapMB = float64(m1.HeapSys) / (1 << 20)
	out.evictions = res.Evictions
	out.unrouted = res.Unrouted()
	if w.window == 0 {
		out.valid, out.total = res.ValidKeys, res.TotalKeys
		out.rows = int64(res.Result().Len())
		tabs := make([]*perfq.Table, len(stages))
		for i, st := range stages {
			tabs[i] = res.Table(st.Name)
		}
		out.tables = append(out.tables, tabs)
	}
	if tier != nil {
		out.books, err = tier.books()
		if err != nil || !keepAll {
			tier.close()
		} else {
			out.tier = tier
		}
		if err != nil {
			return nil, fmt.Errorf("%s: %w", w.name, err)
		}
	}
	return out, nil
}

// cpuTime is the process's user+system CPU time in ns.
func cpuTime() int64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return ru.Utime.Nano() + ru.Stime.Nano()
}

// digest is the cheap fingerprint a timed trial is held to: it must
// equal the verified trial's, or the trial's operations count as failed.
type digest struct {
	Windows   int64
	Rows      int64
	Sum       uint64
	Evictions uint64
	Valid     int
	Total     int
}

func (o *outcome) digest(sampleOnly bool) digest {
	d := digest{Windows: o.windows, Rows: o.rows, Evictions: o.evictions, Valid: o.valid, Total: o.total}
	h := uint64(14695981039346656037)
	for k, tabs := range o.tables {
		// The verification trial keeps every window; fingerprint the
		// windows a timed trial would have kept.
		if sampleOnly && k%digestSampleEvery != 0 {
			continue
		}
		for _, t := range tabs {
			if t == nil {
				continue
			}
			for _, row := range t.Rows {
				for _, v := range row {
					h = (h ^ math.Float64bits(v)) * 1099511628211
				}
			}
		}
	}
	d.Sum = h
	return d
}
