package perfq

import (
	"bytes"
	"runtime"
	"slices"
	"strconv"
	"sync/atomic"
	"testing"

	"perfq/internal/backing"
	"perfq/internal/exec"
	"perfq/internal/kvstore"
	"perfq/internal/obs"
	"perfq/internal/switchsim"
)

// goroutineID returns the calling goroutine's id, from its stack header.
func goroutineID() uint64 {
	buf := make([]byte, 64)
	buf = buf[:runtime.Stack(buf, false)]
	buf = bytes.TrimPrefix(buf, []byte("goroutine "))
	id, _ := strconv.ParseUint(string(buf[:bytes.IndexByte(buf, ' ')]), 10, 64)
	return id
}

// setsRun is what TestProgramSetsMatchSerial compares of one run.
type setsRun struct {
	tables     map[string]*exec.Table
	accs       [][2]int
	stats      []kvstore.Stats
	stores     []backing.Stats
	books      [][8]uint64 // per program, over its backends (keys split by address): offered, acked, dropped and the servers' stats
	offFeeder  int64       // evictions delivered off the feeder's goroutine
	splits     []obs.Event // program-sets journal events
	blockRecs  float64
	packets    float64
	leftBehind bool // a goroutine still applying records once Feed returned
}

// TestProgramSetsMatchSerial pins program sets to the serial loop. A
// two-program plan — the second keyed by a digest and guarded, beside a
// select over T — is fed as one run under metrics, tracing (1 key in 16)
// and a backing pool: at GOMAXPROCS 1 as one set on the feeder, at 4 as
// two sets. Tables, accuracy, cache and store statistics, eviction totals
// and the pool's books must be identical; at 1 every eviction reaches the
// observer on the feeder's goroutine and nothing is journaled; at either
// no goroutine is still applying records once Feed returns.
func TestProgramSetsMatchSerial(t *testing.T) {
	q := MustCompile(`const alpha = 0.125
def ewma(lat_est, (tin, tout)):
    lat_est = (1 - alpha) * lat_est + alpha * (tout - tin)
def nonmt((maxseq, nm_count), tcpseq):
    if maxseq > tcpseq:
        nm_count = nm_count + 1
    maxseq = max(maxseq, tcpseq)
R1 = SELECT 5tuple, ewma GROUPBY 5tuple
R2 = SELECT srcip, dstip, srcport, dstport, proto, qid, nonmt GROUPBY srcip, dstip, srcport, dstport, proto, qid WHERE proto == 6
S = SELECT qid, tin, pkt_len WHERE pkt_len > 1400
`)
	if n := len(q.plan.Programs); n != 2 {
		t.Fatalf("plan has %d switch programs, want 2", n)
	}
	recs := churnTrace(t)
	run := func(procs int) (out setsRun) {
		atProcs(procs, func() {
			cluster, err := q.ServeBackingStores(2)
			if err != nil {
				t.Fatal(err)
			}
			defer cluster.Close()
			pool, err := q.DialBackingPool(cluster.Addrs(), BackingPoolConfig{QueueDepth: 1 << 16})
			if err != nil {
				t.Fatal(err)
			}
			defer pool.Close()
			m := NewMetrics()
			m.SetTraceSampling(4)
			feeder := goroutineID()
			var offFeeder atomic.Int64
			defer func() { out.offFeeder = offFeeder.Load() }()
			var rc runConfig
			rc.sw.OnEvict = func(int, *kvstore.Eviction) {
				if goroutineID() != feeder {
					offFeeder.Add(1)
				}
			}
			for _, o := range []RunOption{WithCache(256, 8), WithMetrics(m), WithBackingPool(pool)} {
				o(&rc)
			}
			rc.wireMetrics()
			dp, err := switchsim.New(q.plan, rc.sw)
			if err != nil {
				t.Fatal(err)
			}
			dp.Feed(recs)
			buf := make([]byte, 1<<20)
			out.leftBehind = bytes.Contains(buf[:runtime.Stack(buf, true)], []byte("perfq/internal/switchsim.(*shardState)"))
			dp.Sync()
			out.blockRecs, _ = m.Value("perfq_path_block_records_total")
			out.packets, _ = m.Value("perfq_packets_total")
			dp.EndFeed()
			dp.Flush()
			if out.tables, err = dp.Collect(); err != nil {
				t.Fatal(err)
			}
			n := len(q.plan.Programs)
			out.accs, out.stats, out.stores = accsOf(n, dp.Accuracy), dp.Stats(), dp.StoreStats()
			if err := pool.Sync(); err != nil {
				t.Fatal(err)
			}
			out.books = make([][8]uint64, n)
			for p := range out.books {
				for _, bs := range pool.StatsFor(p) {
					sv := bs.Server
					for i, v := range [8]uint64{bs.Offered, bs.Acked, bs.Dropped, sv.Keys, sv.Merges, sv.Appends, sv.Valid, sv.Total} {
						out.books[p][i] += v
					}
				}
			}
			for _, ev := range m.Events(0) {
				if ev.Kind == obs.EvProgramSets {
					out.splits = append(out.splits, ev)
				}
			}
		})
		return out
	}
	serial, sets := run(1), run(4)

	if serial.offFeeder != 0 || len(serial.splits) != 0 {
		t.Fatalf("GOMAXPROCS 1: %d evictions off the feeder, %d program-sets events; want none", serial.offFeeder, len(serial.splits))
	}
	if len(sets.splits) != 1 || sets.splits[0].A != 2 || sets.splits[0].B != 2 || sets.offFeeder == 0 {
		t.Fatalf("GOMAXPROCS 4: program-sets events %+v, %d evictions off the feeder; want one event of 2 sets over 2 programs, and some", sets.splits, sets.offFeeder)
	}
	for _, r := range []setsRun{serial, sets} {
		if r.leftBehind {
			t.Fatal("a goroutine was still in the datapath after Feed returned")
		}
		if r.blockRecs != float64(len(recs)) || r.packets != float64(len(recs)) {
			t.Fatalf("after Sync: %v block records, %v packets; want %d each", r.blockRecs, r.packets, len(recs))
		}
	}
	var evictions uint64
	for _, s := range serial.stats {
		evictions += s.Evictions
	}
	if evictions == 0 {
		t.Fatal("no capacity evictions: the cache is too large to test the merge path")
	}
	if !slices.Equal(sets.accs, serial.accs) || !slices.Equal(sets.stats, serial.stats) || !slices.Equal(sets.stores, serial.stores) ||
		!slices.Equal(sets.books, serial.books) {
		t.Fatalf("program sets: accuracy %v, stats %+v, stores %+v, pool %v\nserial: %v, %+v, %+v, %v",
			sets.accs, sets.stats, sets.stores, sets.books, serial.accs, serial.stats, serial.stores, serial.books)
	}
	for name, want := range serial.tables {
		if diff := diffRows(sets.tables[name], want, 0, nil); diff != "" {
			t.Fatalf("stage %s: %s", name, diff)
		}
	}
}
