package switchsim

import (
	"fmt"
	"runtime"
	"testing"
	"time"

	"perfq/internal/kvstore"
	"perfq/internal/trace"
	"perfq/internal/tracegen"
)

// setsPlans are BenchmarkProgramSets' two-program plans: the churn_merge
// workload's (a linear EWMA store and an epoch-keeping one, both keyed
// by the five-tuple; the second guarded) and one whose programs group by
// different keys, both linear.
var setsPlans = []struct{ name, src string }{
	{"churn", `const alpha = 0.125
def ewma(lat_est, (tin, tout)):
    lat_est = (1 - alpha) * lat_est + alpha * (tout - tin)
def nonmt((maxseq, nm_count), tcpseq):
    if maxseq > tcpseq:
        nm_count = nm_count + 1
    maxseq = max(maxseq, tcpseq)
R1 = SELECT 5tuple, ewma GROUPBY 5tuple
R2 = SELECT 5tuple, nonmt GROUPBY 5tuple WHERE proto == 6
`},
	{"two-keys", `const alpha = 0.125
def ewma(lat_est, (tin, tout)):
    lat_est = (1 - alpha) * lat_est + alpha * (tout - tin)
R1 = SELECT 5tuple, ewma GROUPBY 5tuple
R2 = SELECT srcip, COUNT, SUM(pkt_len) GROUPBY srcip
`},
}

// BenchmarkProgramSets records the crossover behind setsMinRun: 2^18
// WAN-preset records fed to a two-program datapath (churn_merge's 2^12
// pairs, 8-way) in runs of 512 … 262 144 records, at GOMAXPROCS 1 as one
// set — what the rule runs there — and at GOMAXPROCS 2 as two program
// sets whatever the run length. ns/rec is the wall time per record; the
// run length where procs=2 first beats procs=1 clearly is the crossover.
// A host with one processor skips the procs=2 arms.
func BenchmarkProgramSets(b *testing.B) {
	cfg := tracegen.WANConfig(12, time.Hour)
	cfg.MaxPackets = 1 << 18
	recs, err := trace.Collect(tracegen.New(cfg))
	if err != nil {
		b.Fatal(err)
	}
	for _, p := range setsPlans {
		plan := compilePlan(b, p.src)
		for _, run := range []int{512, 1024, 2048, 4096, 8192, 16384, 65536, 1 << 18} {
			for _, procs := range []int{1, 2} {
				b.Run(fmt.Sprintf("%s/run=%d/procs=%d", p.name, run, procs), func(b *testing.B) {
					if procs > runtime.NumCPU() {
						b.Skipf("needs %d processors", procs)
					}
					defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
					d, err := New(plan, Config{Geometry: kvstore.SetAssociative(1<<12, 8)})
					if err != nil {
						b.Fatal(err)
					}
					sh := d.shards[0]
					b.ResetTimer()
					for i := 0; i < b.N; i++ {
						for lo := 0; lo < len(recs); lo += run {
							chunk := recs[lo:min(lo+run, len(recs))]
							if procs == 1 {
								sh.processBlocks(d, chunk, sh.all)
							} else {
								d.runSets(chunk, d.programSets(setsMinRun))
							}
						}
					}
					b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(recs)), "ns/rec")
				})
			}
		}
	}
}

// TestProgramSetsPanicReachesFeeder panics in the eviction observer of
// the second program, which a split run applies on a goroutine of its
// own: Feed must re-panic it on the feeder once the other set has
// finished, holding no lock the next Feed would wait on.
func TestProgramSetsPanicReachesFeeder(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(2))
	cfg := tracegen.WANConfig(12, time.Hour)
	cfg.MaxPackets = 2 * setsMinRun
	recs, err := trace.Collect(tracegen.New(cfg))
	if err != nil {
		t.Fatal(err)
	}
	armed := true
	d, err := New(compilePlan(t, setsPlans[1].src), Config{
		Geometry: kvstore.SetAssociative(64, 8),
		OnEvict: func(prog int, _ *kvstore.Eviction) {
			if prog == 1 && armed {
				armed = false
				panic("observer")
			}
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	func() {
		defer func() {
			if p := recover(); p != "observer" {
				t.Fatalf("Feed recovered %v, want the observer's panic", p)
			}
		}()
		d.Feed(recs)
	}()
	d.Feed(recs) // a lock the panic left held would deadlock here
}
