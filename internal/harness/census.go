package harness

import (
	"fmt"
	"io"
	"time"

	"perfq"
	"perfq/internal/chiparea"
	"perfq/internal/packet"
	"perfq/internal/queries"
	"perfq/internal/trace"
	"perfq/internal/tracegen"
)

// CensusResult reproduces §4's unique-flow argument: the trace's flow
// count, the SRAM needed to hold every flow on-chip, and its share of the
// reference die — the numbers motivating the split design (3.8M flows,
// 486 Mbit, 38% of the die at paper scale).
type CensusResult struct {
	Packets     int64
	UniqueFlows int64
	// OnChipBits is UniqueFlows × 128 bits.
	OnChipBits int64
	// OnChipAreaMM2 and DieFraction cost that SRAM.
	OnChipAreaMM2 float64
	DieFraction   float64
	// Target32Mbit is the area fraction of the paper's chosen 32-Mbit
	// cache (the "< 2.5%" headline).
	Target32MbitFraction float64
	Elapsed              time.Duration
}

// RunCensus counts unique 5-tuples in the synthetic trace — the keys the
// flow-count query's backing store holds after a run, its COUNT column
// summing to the packets — and prices the store-everything-on-chip
// alternative.
func RunCensus(seed, packets int64) (*CensusResult, error) {
	start := time.Now()
	q := perfq.MustCompile(flowCount)
	run, err := q.Run(tracegen.New(traceConfig(seed, packets)))
	if err != nil {
		return nil, err
	}
	var n int64
	for _, row := range run.Result().Rows {
		n += int64(row[len(row)-1])
	}
	flows := int64(run.TotalKeys)
	bits := chiparea.PairsToBits(flows)
	return &CensusResult{
		Packets:              n,
		UniqueFlows:          flows,
		OnChipBits:           bits,
		OnChipAreaMM2:        chiparea.SRAMAreaMM2(bits),
		DieFraction:          chiparea.DieFraction(bits),
		Target32MbitFraction: chiparea.DieFraction(32e6),
		Elapsed:              time.Since(start),
	}, nil
}

// Format renders the census.
func (r *CensusResult) Format(w io.Writer) {
	fmt.Fprintf(w, "Unique-flow census (%d packets):\n", r.Packets)
	fmt.Fprintf(w, "  unique 5-tuples:            %d\n", r.UniqueFlows)
	fmt.Fprintf(w, "  on-chip storage at 128b:    %.1f Mbit (%.1f mm², %.1f%% of a %.0f mm² die)\n",
		chiparea.BitsToMbit(r.OnChipBits), r.OnChipAreaMM2, 100*r.DieFraction, chiparea.ReferenceDieMM2)
	fmt.Fprintf(w, "  32-Mbit cache by contrast:  %.2f mm² (%.2f%% of the die)\n",
		chiparea.SRAMAreaMM2(32e6), 100*r.Target32MbitFraction)
	fmt.Fprintf(w, "  elapsed: %v\n", r.Elapsed.Round(time.Millisecond))
}

// BackingThroughputResult measures the networked eviction sink rate —
// §4's claim that a scale-out key-value store absorbs ~802K evictions/s.
type BackingThroughputResult struct {
	// Evictions is what the run offered the pool (capacity evictions plus
	// the end-of-run flush); Applied what its backends report applying.
	Evictions    int64
	Applied      uint64
	Elapsed      time.Duration
	PerSec       float64
	TargetPerSec float64 // 802K from the paper
}

// RunBackingThroughput runs the Latency EWMA query (linear merge, the
// most expensive frame type) over n single-packet flows through an
// 8-pair cache, so every record leaves the datapath as an eviction
// shipped to a one-backend loopback pool, and reports the rate sustained
// until the pool has settled. An eviction the pool dropped is an error,
// not a lower rate.
func RunBackingThroughput(n int64) (*BackingThroughputResult, error) {
	q := perfq.MustCompile(queries.ByName("Latency EWMA").Source)
	cluster, err := q.ServeBackingStores(1)
	if err != nil {
		return nil, err
	}
	defer cluster.Close()
	// The pool's queues drop their oldest chunk on overflow; n deep, none can.
	pool, err := q.DialBackingPool(cluster.Addrs(), perfq.BackingPoolConfig{QueueDepth: int(n)})
	if err != nil {
		return nil, err
	}
	defer pool.Close()

	recs := make([]trace.Record, n)
	for i := range recs {
		recs[i] = trace.Record{SrcIP: packet.Addr4FromUint32(uint32(i)), Proto: packet.ProtoTCP, Tin: 100, Tout: 400}
	}
	start := time.Now()
	run, err := q.Run(perfq.Records(recs), perfq.WithCache(8, 8), perfq.WithBackingPool(pool))
	if err != nil {
		return nil, err
	}
	if err := pool.Sync(); err != nil {
		return nil, err
	}
	elapsed := time.Since(start)
	offered := run.Evictions + run.Flushed
	if d := pool.DroppedEvictions(); d != 0 {
		return nil, fmt.Errorf("backing pool dropped %d of %d evictions", d, offered)
	}
	res := &BackingThroughputResult{
		Evictions:    int64(offered),
		Elapsed:      elapsed,
		PerSec:       float64(offered) / elapsed.Seconds(),
		TargetPerSec: 802_000,
	}
	for _, b := range pool.Stats() {
		res.Applied += b.Server.Applied()
	}
	return res, nil
}

// Format renders the throughput check.
func (r *BackingThroughputResult) Format(w io.Writer) {
	fmt.Fprintf(w, "Backing-store eviction throughput (TCP loopback, merge frames):\n")
	fmt.Fprintf(w, "  %d evictions in %v = %.0fK evictions/s (paper's requirement: %.0fK/s)\n",
		r.Evictions, r.Elapsed.Round(time.Millisecond), r.PerSec/1e3, r.TargetPerSec/1e3)
	// The paper sizes scale-out stores at "a few hundred thousand
	// requests per second per core"; one connection/core at that rate is
	// consistent, and the 802K/s total takes a small number of cores.
	switch {
	case r.PerSec >= r.TargetPerSec:
		fmt.Fprintf(w, "  ✓ a single connection already exceeds the 32-Mbit cache's eviction rate\n")
	case r.PerSec >= 300_000:
		fmt.Fprintf(w, "  ✓ consistent with the paper's per-core sizing; %d connections cover 802K/s\n",
			int((r.TargetPerSec+r.PerSec-1)/r.PerSec))
	default:
		fmt.Fprintf(w, "  ✗ below the paper's per-core sizing on this host\n")
	}
}
