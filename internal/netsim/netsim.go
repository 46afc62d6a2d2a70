// Package netsim is an event-driven network simulator that produces the
// paper's table T: every packet of every flow walks its routed path
// through the topology's output queues, contributing one record per queue
// with real enqueue/dequeue timestamps, queue depths and drops. It is the
// substrate for the end-to-end examples the paper motivates — localizing
// incast, measuring per-flow loss, finding high-latency flows.
package netsim

import (
	"container/heap"
	"fmt"
	"math/rand"
	"sort"

	"perfq/internal/packet"
	"perfq/internal/queue"
	"perfq/internal/topo"
	"perfq/internal/trace"
)

// Flow is one scheduled application flow.
type Flow struct {
	path topo.Path
	// remaining packets and pacing.
	remaining int
	nextTime  int64
	gapNs     int64
	pktSize   int
	seq       uint32
	tuple     packet.FiveTuple
}

// Spec describes a flow to inject.
type Spec struct {
	Src, Dst topo.NodeID
	// Packets is the number of packets to send.
	Packets int
	// PktSize is bytes per packet (default 1500).
	PktSize int
	// Start is the first packet's emission time (ns).
	Start int64
	// GapNs is the inter-packet gap; 0 means line-rate back-to-back
	// (the incast pattern).
	GapNs int64
	// Proto defaults to TCP; SrcPort/DstPort default to generated values.
	Proto            packet.Proto
	SrcPort, DstPort uint16
}

// Sim is the simulator.
type Sim struct {
	topo   *topo.Topology
	queues []*queue.Queue // one per link
	flows  flowHeap
	rng    *rand.Rand
	uniq   uint64
	recs   []trace.Record
}

// New creates a simulator over a topology.
func New(t *topo.Topology, seed int64) *Sim {
	s := &Sim{topo: t, rng: rand.New(rand.NewSource(seed))}
	s.queues = make([]*queue.Queue, len(t.Links))
	for i, l := range t.Links {
		s.queues[i] = queue.New(l.QID, l.RateBps, l.BufBytes)
	}
	return s
}

// AddFlow schedules a flow. Port defaults are deterministic per call.
func (s *Sim) AddFlow(spec Spec) error {
	if spec.Packets <= 0 {
		return fmt.Errorf("netsim: flow needs at least 1 packet")
	}
	if spec.PktSize == 0 {
		spec.PktSize = 1500
	}
	if spec.Proto == 0 {
		spec.Proto = packet.ProtoTCP
	}
	if spec.SrcPort == 0 {
		spec.SrcPort = uint16(20000 + s.rng.Intn(40000))
	}
	if spec.DstPort == 0 {
		spec.DstPort = 80
	}
	tuple := packet.FiveTuple{
		Src:     s.topo.HostAddr(spec.Src),
		Dst:     s.topo.HostAddr(spec.Dst),
		SrcPort: spec.SrcPort, DstPort: spec.DstPort,
		Proto: spec.Proto,
	}
	path, err := s.topo.Route(spec.Src, spec.Dst, tuple)
	if err != nil {
		return err
	}
	gap := spec.GapNs
	if gap <= 0 {
		// Line rate on the host uplink.
		gap = int64(float64(spec.PktSize) * 8e9 / s.topo.Links[path[0]].RateBps)
	}
	heap.Push(&s.flows, &Flow{
		path:      path,
		remaining: spec.Packets, nextTime: spec.Start,
		gapNs: gap, pktSize: spec.PktSize,
		seq: s.rng.Uint32() >> 1, tuple: tuple,
	})
	return nil
}

type flowHeap []*Flow

func (h flowHeap) Len() int            { return len(h) }
func (h flowHeap) Less(i, j int) bool  { return h[i].nextTime < h[j].nextTime }
func (h flowHeap) Swap(i, j int)       { h[i], h[j] = h[j], h[i] }
func (h *flowHeap) Push(x interface{}) { *h = append(*h, x.(*Flow)) }
func (h *flowHeap) Pop() interface{} {
	old := *h
	x := old[len(old)-1]
	*h = old[:len(old)-1]
	return x
}

// pktState is an in-flight packet.
type pktState struct {
	base trace.Record
	path topo.Path
	hop  int
	size int
}

// event is one simulator event: a packet arriving at its next hop's
// queue. seq breaks time ties deterministically (FIFO arrival order).
type event struct {
	time int64
	seq  uint64
	pkt  *pktState
}

type eventHeap []event

func (h eventHeap) Len() int { return len(h) }
func (h eventHeap) Less(i, j int) bool {
	if h[i].time != h[j].time {
		return h[i].time < h[j].time
	}
	return h[i].seq < h[j].seq
}
func (h eventHeap) Swap(i, j int)       { h[i], h[j] = h[j], h[i] }
func (h *eventHeap) Push(x interface{}) { *h = append(*h, x.(event)) }
func (h *eventHeap) Pop() interface{} {
	old := *h
	x := old[len(old)-1]
	*h = old[:len(old)-1]
	return x
}

// Run simulates all scheduled flows to completion and returns the records
// sorted by enqueue time — the table T. Events (packet-at-queue arrivals)
// are processed in global time order, so every queue sees arrivals in
// non-decreasing time.
func (s *Sim) Run() ([]trace.Record, error) {
	var events eventHeap
	var eseq uint64
	push := func(t int64, p *pktState) {
		heap.Push(&events, event{time: t, seq: eseq, pkt: p})
		eseq++
	}

	for {
		// Inject flow emissions that precede the earliest queue event.
		for s.flows.Len() > 0 && (events.Len() == 0 || s.flows[0].nextTime <= events[0].time) {
			f := s.flows[0]
			push(f.nextTime, s.makePacket(f))
			f.remaining--
			if f.remaining <= 0 {
				heap.Pop(&s.flows)
			} else {
				f.nextTime += f.gapNs
				heap.Fix(&s.flows, 0)
			}
		}
		if events.Len() == 0 {
			if s.flows.Len() == 0 {
				break
			}
			continue
		}

		ev := heap.Pop(&events).(event)
		p := ev.pkt
		li := p.path[p.hop]
		rec := p.base
		rec.Path = uint32(p.hop)
		depart, ok := s.queues[li].Offer(ev.time, p.size, &rec)
		s.recs = append(s.recs, rec)
		if ok && p.hop+1 < len(p.path) {
			p.hop++
			push(depart+s.topo.Links[li].PropDelayNs, p)
		}
	}

	sort.SliceStable(s.recs, func(i, j int) bool { return s.recs[i].Tin < s.recs[j].Tin })
	return s.recs, nil
}

// makePacket mints the next packet of a flow.
func (s *Sim) makePacket(f *Flow) *pktState {
	payload := f.pktSize - packet.EthernetHeaderLen - packet.IPv4MinHeaderLen - packet.TCPMinHeaderLen
	if payload < 0 {
		payload = 0
	}
	p := &pktState{
		base: trace.Record{
			SrcIP: f.tuple.Src, DstIP: f.tuple.Dst,
			SrcPort: f.tuple.SrcPort, DstPort: f.tuple.DstPort,
			Proto:  f.tuple.Proto,
			PktLen: uint32(f.pktSize), PayloadLen: uint32(payload),
			TCPSeq: f.seq, TCPFlags: packet.TCPAck,
			PktUniq: s.uniq,
		},
		path: f.path,
		size: f.pktSize,
	}
	s.uniq++
	f.seq += uint32(payload)
	return p
}

// Incast schedules n senders, one per distinct source host, all blasting
// burstPkts packets at the receiver starting at start — the classic
// pattern the paper's incast-localization use case targets. Hosts are
// taken from the topology in order, skipping the receiver.
func (s *Sim) Incast(receiver topo.NodeID, n, burstPkts int, start int64) error {
	hosts := s.topo.Hosts()
	added := 0
	for _, h := range hosts {
		if h == receiver {
			continue
		}
		if added >= n {
			break
		}
		if err := s.AddFlow(Spec{
			Src: h, Dst: receiver, Packets: burstPkts, Start: start, DstPort: 9000,
		}); err != nil {
			return err
		}
		added++
	}
	if added < n {
		return fmt.Errorf("netsim: topology has only %d candidate senders, need %d", added, n)
	}
	return nil
}

// Workload is the canonical fabric exercise shared by the -topo tools
// (pqrun, tracegen) and the network-wide examples: uniform-random
// background flows, optionally preceded by an incast burst at the
// topology's first host. The zero value of every field selects a
// sensible default; the same (topology, workload) pair always produces
// the same records.
type Workload struct {
	Seed int64
	// Flows is the background flow count (default 200).
	Flows int
	// MinPkts/MaxPkts bound background flow sizes (defaults 10/60).
	MinPkts, MaxPkts int
	// WindowNs spreads background flow starts (default 5ms).
	WindowNs int64
	// IncastSenders, when positive, schedules that many senders bursting
	// IncastPkts packets (default 120) at the first host.
	IncastSenders int
	IncastPkts    int
}

// GenWorkload simulates a workload over a topology and returns the
// resulting record stream (the table T).
func GenWorkload(t *topo.Topology, w Workload) ([]trace.Record, error) {
	if w.Flows == 0 {
		w.Flows = 200
	}
	if w.MinPkts == 0 {
		w.MinPkts = 10
	}
	if w.MaxPkts == 0 {
		w.MaxPkts = 60
	}
	if w.WindowNs == 0 {
		w.WindowNs = 5_000_000
	}
	if w.IncastPkts == 0 {
		w.IncastPkts = 120
	}
	s := New(t, w.Seed)
	if w.IncastSenders > 0 {
		if err := s.Incast(t.Hosts()[0], w.IncastSenders, w.IncastPkts, w.WindowNs/4); err != nil {
			return nil, err
		}
	}
	if err := s.UniformRandom(w.Flows, w.MinPkts, w.MaxPkts, w.WindowNs); err != nil {
		return nil, err
	}
	return s.Run()
}

// UniformRandom schedules n flows between uniformly random distinct host
// pairs, with sizes in [minPkts, maxPkts] and start times in [0, window).
func (s *Sim) UniformRandom(n, minPkts, maxPkts int, windowNs int64) error {
	hosts := s.topo.Hosts()
	if len(hosts) < 2 {
		return fmt.Errorf("netsim: need at least 2 hosts")
	}
	for i := 0; i < n; i++ {
		a := hosts[s.rng.Intn(len(hosts))]
		b := hosts[s.rng.Intn(len(hosts))]
		for b == a {
			b = hosts[s.rng.Intn(len(hosts))]
		}
		pkts := minPkts
		if maxPkts > minPkts {
			pkts += s.rng.Intn(maxPkts - minPkts + 1)
		}
		if err := s.AddFlow(Spec{
			Src: a, Dst: b, Packets: pkts,
			Start: s.rng.Int63n(windowNs),
			GapNs: 2000 + s.rng.Int63n(20000),
		}); err != nil {
			return err
		}
	}
	return nil
}
