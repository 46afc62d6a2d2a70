package perfq

// The root package's one microbenchmark. End-to-end and per-layer
// performance is recorded and compared by benchmark/ (`make bench`,
// `make bench-pairs`); what stays here is the serial-vs-parallel fabric
// split that no benchmark/ workload has an arm for and that ROADMAP item
// 1's acceptance line consumes.

import (
	"runtime"
	"testing"

	"perfq/internal/fabric"
	"perfq/internal/kvstore"
	"perfq/internal/netsim"
	"perfq/internal/queries"
	"perfq/internal/switchsim"
	"perfq/internal/topo"
)

// withProcs pins GOMAXPROCS to min(want, NumCPU) for one sub-benchmark
// and restores it afterwards. A multi-worker benchmark must call this:
// `go test` defaults GOMAXPROCS to whatever the process inherited, and a
// parallel arm measured at procs=1 prices parallel overhead without
// parallel hardware. The value actually used is reported as the procs
// metric, so a reader can tell "host could not go wider" from "harness
// forgot to ask".
func withProcs(b *testing.B, want int) {
	n := min(want, runtime.NumCPU())
	if n < 1 {
		n = 1
	}
	prev := runtime.GOMAXPROCS(n)
	b.Cleanup(func() { runtime.GOMAXPROCS(prev) })
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
