package tracegen

import (
	"container/heap"
	"io"
	"math/rand"
	"time"

	"perfq/internal/packet"
	"perfq/internal/trace"
)

// Config describes a synthetic single-observation-point workload: flows
// arrive as a Poisson process, each flow emits a heavy-tailed number of
// packets with bursty spacing, and every packet is observed at one queue.
type Config struct {
	// Seed fixes the PRNG; identical configs produce identical traces.
	Seed int64
	// Duration is the simulated capture length. Flow arrivals stop at
	// Duration but in-flight flows drain (tails past the end are clipped).
	Duration time.Duration
	// FlowRate is the Poisson flow arrival rate in flows per second.
	FlowRate float64
	// FlowSize is the distribution of packets per flow.
	FlowSize Dist
	// PktGap is the distribution of seconds between packets of one flow.
	PktGap Dist
	// Sizes is the packet-size mix.
	Sizes PacketSizes
	// TCPFraction is the fraction of flows that are TCP (the rest UDP).
	TCPFraction float64
	// RetransmitProb is the per-packet probability that a TCP flow
	// re-sends the previous sequence number (drives the non-monotonic
	// query of Fig. 6).
	RetransmitProb float64
	// ReorderProb is the per-packet probability that a TCP packet carries
	// a sequence number ahead of order (swapped with its successor).
	ReorderProb float64
	// QID stamps every record (a single-point capture sits at one queue).
	QID trace.QueueID
	// QueueDelay is the distribution of seconds each packet spends queued
	// (tout = tin + delay). DropProb is the probability a packet is
	// dropped at the queue (tout = Infinity).
	QueueDelay Dist
	// DropProb is the probability that a packet is dropped (tout becomes
	// Infinity).
	DropProb float64
	// MaxPackets, when non-zero, truncates the trace after this many
	// packets regardless of Duration.
	MaxPackets int64
}

// WANConfig is the CAIDA-like preset, calibrated to the paper's trace
// shape: heavy-tailed flow sizes, ~85% TCP, ≈850-byte mean packets, and
// long-lived flows whose in-window packets-per-flow lands in the paper's
// range over minutes-long captures. Five simulated minutes at the default
// rate produce ≈11M packets and ≈390K flows — the paper's 157M/3.8M trace
// scaled down with the flows-per-packet ratio roughly preserved. Scale
// FlowRate and Duration to move along that axis.
func WANConfig(seed int64, duration time.Duration) Config {
	return Config{
		Seed:     seed,
		Duration: duration,
		FlowRate: 1300,
		// Mice-elephant mixture: 72% geometric mean 3, 28% bounded Pareto.
		// Calibrated so that packets/unique-flows measured over a capture
		// window of minutes lands near the paper's 41 (long flows are
		// clipped by the window, exactly as in a real capture).
		FlowSize: Mixture{
			Weights: []float64{0.65, 0.35},
			Components: []Dist{
				Geometric{M: 3},
				Pareto{Xm: 40, Alpha: 1.2, Cap: 60000},
			},
		},
		// In-flow gaps around a second with heavy spread: CAIDA 5-tuples
		// are long-lived, so at any instant far more flows are live than
		// fit in a multi-Mbit cache — the property Figures 5 and 6 rest
		// on. Packets-per-flow measured over a minutes-long window then
		// lands in the paper's range (≈41 with clipping). The synthetic
		// stream has somewhat less reference locality than CAIDA, so
		// absolute eviction rates sit above the paper's at matched
		// flows-per-pair ratios; the orderings and trends are preserved.
		PktGap:         LognormalWithMean(1.0, 2.0),
		Sizes:          DefaultPacketSizes(),
		TCPFraction:    0.85,
		RetransmitProb: 0.015,
		ReorderProb:    0.005,
		QID:            trace.MakeQueueID(1, 0),
		QueueDelay:     LognormalWithMean(20e-6, 0.8),
		DropProb:       0.0005,
	}
}

// DCConfig is a datacenter-flavored preset: smaller flows, tighter gaps,
// higher incidence of retransmission (incast pressure).
func DCConfig(seed int64, duration time.Duration) Config {
	c := WANConfig(seed, duration)
	c.FlowRate = 4000
	c.FlowSize = Mixture{
		Weights: []float64{0.8, 0.2},
		Components: []Dist{
			Geometric{M: 4},
			Pareto{Xm: 30, Alpha: 1.4, Cap: 20000},
		},
	}
	c.PktGap = LognormalWithMean(0.002, 1.2)
	c.RetransmitProb = 0.03
	c.QueueDelay = LognormalWithMean(50e-6, 1.0)
	c.DropProb = 0.002
	return c
}

// flowState is one active flow inside the generator.
type flowState struct {
	tuple     packet.FiveTuple
	remaining int64
	nextTime  int64 // ns
	seq       uint32
	prevSeq   uint32 // for retransmission
	reordered bool   // next packet already emitted out of order
}

// flowHeap orders active flows by next emit time.
type flowHeap []*flowState

func (h flowHeap) Len() int            { return len(h) }
func (h flowHeap) Less(i, j int) bool  { return h[i].nextTime < h[j].nextTime }
func (h flowHeap) Swap(i, j int)       { h[i], h[j] = h[j], h[i] }
func (h *flowHeap) Push(x interface{}) { *h = append(*h, x.(*flowState)) }
func (h *flowHeap) Pop() interface{} {
	old := *h
	n := len(old)
	x := old[n-1]
	old[n-1] = nil
	*h = old[:n-1]
	return x
}

// Generator streams records in non-decreasing timestamp order. It
// implements trace.Source.
type Generator struct {
	cfg         Config
	rng         *rand.Rand
	active      flowHeap
	nextArrival int64 // ns; < 0 when arrivals have ended
	horizon     int64 // ns
	emitted     int64
	pktUniq     uint64
	flowsMade   int64
}

// New creates a Generator for the config. Zero-valued required fields are
// given safe defaults so a bare Config{Duration: …, FlowRate: …} works.
func New(cfg Config) *Generator {
	if cfg.FlowSize == nil {
		cfg.FlowSize = Geometric{M: 20}
	}
	if cfg.PktGap == nil {
		cfg.PktGap = Exponential{M: 0.01}
	}
	if cfg.Sizes == (PacketSizes{}) {
		cfg.Sizes = DefaultPacketSizes()
	}
	if cfg.QueueDelay == nil {
		cfg.QueueDelay = Constant{V: 10e-6}
	}
	g := &Generator{
		cfg:     cfg,
		rng:     rand.New(rand.NewSource(cfg.Seed)),
		horizon: cfg.Duration.Nanoseconds(),
	}
	g.nextArrival = g.expGapNs(cfg.FlowRate)
	if cfg.FlowRate <= 0 {
		g.nextArrival = -1
	}
	return g
}

// FlowsStarted returns how many flows have been created so far.
func (g *Generator) FlowsStarted() int64 { return g.flowsMade }

func (g *Generator) expGapNs(ratePerSec float64) int64 {
	if ratePerSec <= 0 {
		return -1
	}
	gap := g.rng.ExpFloat64() / ratePerSec * 1e9
	if gap < 1 {
		gap = 1
	}
	return int64(gap)
}

// newFlow mints a flow with a fresh five-tuple.
func (g *Generator) newFlow(now int64) *flowState {
	proto := packet.ProtoUDP
	if g.rng.Float64() < g.cfg.TCPFraction {
		proto = packet.ProtoTCP
	}
	f := &flowState{
		tuple: packet.FiveTuple{
			Src:     packet.Addr4FromUint32(g.rng.Uint32()),
			Dst:     packet.Addr4FromUint32(g.rng.Uint32()),
			SrcPort: uint16(1024 + g.rng.Intn(64512)),
			DstPort: wellKnownPort(g.rng),
			Proto:   proto,
		},
		remaining: int64(g.cfg.FlowSize.Sample(g.rng)),
		nextTime:  now,
		seq:       g.rng.Uint32(),
	}
	f.prevSeq = f.seq
	if f.remaining < 1 {
		f.remaining = 1
	}
	g.flowsMade++
	return f
}

// wellKnownPort skews destination ports toward popular services.
func wellKnownPort(r *rand.Rand) uint16 {
	switch r.Intn(10) {
	case 0, 1, 2, 3:
		return 443
	case 4, 5:
		return 80
	case 6:
		return 53
	default:
		return uint16(1024 + r.Intn(64512))
	}
}

// Next implements trace.Source.
func (g *Generator) Next(rec *trace.Record) error {
	for {
		if g.cfg.MaxPackets > 0 && g.emitted >= g.cfg.MaxPackets {
			return io.EOF
		}
		// Admit any flow arrivals that precede the earliest packet emit.
		for g.nextArrival >= 0 && g.nextArrival <= g.horizon &&
			(g.active.Len() == 0 || g.nextArrival <= g.active[0].nextTime) {
			f := g.newFlow(g.nextArrival)
			heap.Push(&g.active, f)
			gap := g.expGapNs(g.cfg.FlowRate)
			if gap < 0 {
				g.nextArrival = -1
			} else {
				g.nextArrival += gap
			}
		}
		if g.nextArrival > g.horizon {
			g.nextArrival = -1
		}
		if g.active.Len() == 0 {
			if g.nextArrival < 0 {
				return io.EOF
			}
			continue
		}

		f := g.active[0]
		if f.nextTime > g.horizon {
			// Clip tails past the capture end.
			heap.Pop(&g.active)
			continue
		}
		g.emitPacket(f, rec)
		// Reschedule or retire the flow.
		f.remaining--
		if f.remaining <= 0 {
			heap.Pop(&g.active)
		} else {
			f.nextTime += int64(g.cfg.PktGap.Sample(g.rng) * 1e9)
			heap.Fix(&g.active, 0)
		}
		return nil
	}
}

// emitPacket fills rec for flow f at its scheduled time.
func (g *Generator) emitPacket(f *flowState, rec *trace.Record) {
	size := g.cfg.Sizes.Sample(g.rng)
	payload := size - packet.EthernetHeaderLen - packet.IPv4MinHeaderLen
	if f.tuple.Proto == packet.ProtoTCP {
		payload -= packet.TCPMinHeaderLen
	} else {
		payload -= packet.UDPHeaderLen
	}
	if payload < 0 {
		payload = 0
	}

	*rec = trace.Record{
		SrcIP:      f.tuple.Src,
		DstIP:      f.tuple.Dst,
		SrcPort:    f.tuple.SrcPort,
		DstPort:    f.tuple.DstPort,
		Proto:      f.tuple.Proto,
		PktLen:     uint32(size),
		PayloadLen: uint32(payload),
		PktUniq:    g.pktUniq,
		QID:        g.cfg.QID,
		Tin:        f.nextTime,
	}
	g.pktUniq++

	if f.tuple.Proto == packet.ProtoTCP {
		rec.TCPFlags = packet.TCPAck
		seq := f.seq
		switch {
		case f.reordered:
			// The successor was emitted early; now send the held-back one.
			seq = f.prevSeq
			f.reordered = false
		case g.rng.Float64() < g.cfg.RetransmitProb:
			seq = f.prevSeq // retransmission: non-monotonic sequence
		case g.rng.Float64() < g.cfg.ReorderProb:
			// Emit the next-next packet first; remember the skipped one.
			f.prevSeq = seq
			seq = seq + uint32(payload)
			f.reordered = true
			f.seq = seq
		default:
			f.prevSeq = seq
		}
		rec.TCPSeq = seq
		if !f.reordered {
			f.seq = seq + uint32(payload)
		}
	}

	if g.rng.Float64() < g.cfg.DropProb {
		rec.Tout = trace.Infinity
		rec.QSizeIn = uint32(64 * 1024) // drops occur at full queues
	} else {
		delay := int64(g.cfg.QueueDelay.Sample(g.rng) * 1e9)
		if delay < 100 {
			delay = 100
		}
		rec.Tout = rec.Tin + delay
		// A plausible queue occupancy: proportional to instantaneous delay
		// at an assumed 10 Gbit/s drain rate (1.25 bytes/ns).
		q := float64(delay) * 1.25
		if q > 16e6 {
			q = 16e6
		}
		rec.QSizeIn = uint32(q)
		out := q * (0.5 + g.rng.Float64())
		if out > 16e6 {
			out = 16e6
		}
		rec.QSizeOut = uint32(out)
	}
	g.emitted++
}
