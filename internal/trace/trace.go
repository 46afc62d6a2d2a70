// Package trace defines the performance-oriented record schema at the heart
// of the query system: one record per packet per queue, carrying both the
// parseable packet headers and the queue-level performance metadata
// (enqueue/dequeue timestamps, queue size, path). This is the abstract
// table T of the paper's §2:
//
//	(pkt_hdr, qid, tin, tout, qsize, pkt_path)
//
// Queries are written against this schema; switches materialize only the
// parts a compiled query needs.
package trace

import (
	"encoding/binary"
	"io"
	"math"
	"math/bits"

	"perfq/internal/packet"
)

// Infinity is the tout value assigned to dropped packets ("If a packet is
// dropped at a queue, we assign tout the value infinity").
const Infinity int64 = math.MaxInt64

// QueueID identifies a specific queue on a specific switch: the switch ID
// occupies the upper 16 bits and the queue index the lower 16.
type QueueID uint32

// MakeQueueID composes a QueueID from a switch ID and a queue index.
func MakeQueueID(switchID, queue uint16) QueueID {
	return QueueID(uint32(switchID)<<16 | uint32(queue))
}

// Switch returns the switch portion of the queue ID.
func (q QueueID) Switch() uint16 { return uint16(q >> 16) }

// Queue returns the queue-index portion of the queue ID.
func (q QueueID) Queue() uint16 { return uint16(q) }

// Record is one observation of one packet at one queue. If a packet
// traverses multiple queues, each queue contributes a separate Record with
// the same PktUniq.
type Record struct {
	// Packet headers (the parseable subset used by queries).
	SrcIP      packet.Addr4
	DstIP      packet.Addr4
	SrcPort    uint16
	DstPort    uint16
	Proto      packet.Proto
	PktLen     uint32 // wire length in bytes
	PayloadLen uint32 // transport payload length in bytes
	TCPSeq     uint32
	TCPFlags   uint8

	// PktUniq uniquely identifies the packet end-to-end (the paper leaves
	// its interpretation to operators; the simulator assigns a sequence
	// number at first transmission).
	PktUniq uint64

	// Performance metadata.
	QID      QueueID
	Tin      int64  // enqueue timestamp, ns
	Tout     int64  // dequeue timestamp, ns; Infinity if dropped
	QSizeIn  uint32 // queue length in bytes seen on enqueue (qin)
	QSizeOut uint32 // queue length in bytes seen on dequeue (qout)
	Path     uint32 // opaque path identifier (pkt_path)
}

// Dropped reports whether the packet was dropped at this queue.
func (r *Record) Dropped() bool { return r.Tout == Infinity }

// QueueingDelay returns tout-tin, or Infinity for drops.
func (r *Record) QueueingDelay() int64 {
	if r.Dropped() {
		return Infinity
	}
	return r.Tout - r.Tin
}

// FlowKey returns the record's transport five-tuple.
func (r *Record) FlowKey() packet.FiveTuple {
	return packet.FiveTuple{
		Src: r.SrcIP, Dst: r.DstIP,
		SrcPort: r.SrcPort, DstPort: r.DstPort,
		Proto: r.Proto,
	}
}

// FiveTupleKey packs the record's five-tuple as two word stores —
// byte-identical to FlowKey().Pack(). It is a leaf small enough to
// inline into per-packet loops.
func (r *Record) FiveTupleKey() (key packet.Key128) {
	key.SetWords(r.FiveTupleWords())
	return key
}

// FiveTupleWords returns FiveTupleKey as its two little-endian words
// (the port bytes land big-endian via ReverseBytes16), so a per-packet
// loop that also hashes the key (packet.HashWords) does it in registers.
func (r *Record) FiveTupleWords() (lo, hi uint64) {
	lo = uint64(binary.LittleEndian.Uint32(r.SrcIP[:])) |
		uint64(binary.LittleEndian.Uint32(r.DstIP[:]))<<32
	hi = uint64(bits.ReverseBytes16(r.SrcPort)) |
		uint64(bits.ReverseBytes16(r.DstPort))<<16 |
		uint64(r.Proto)<<32
	return lo, hi
}

// Source yields records in time order. Implementations return io.EOF from
// Next after the last record.
type Source interface {
	// Next fills rec with the next record. The *Record contents are owned
	// by the caller after return.
	Next(rec *Record) error
}

// SliceSource adapts a []Record to a Source.
type SliceSource struct {
	Records []Record
	pos     int
}

// Next implements Source.
func (s *SliceSource) Next(rec *Record) error {
	if s.pos >= len(s.Records) {
		return io.EOF
	}
	*rec = s.Records[s.pos]
	s.pos++
	return nil
}

// Reset rewinds the source to the first record.
func (s *SliceSource) Reset() { s.pos = 0 }

// NextBatch implements BatchSource: the whole unconsumed remainder, in
// place. Reset rewinds as usual.
func (s *SliceSource) NextBatch() ([]Record, error) {
	if s.pos >= len(s.Records) {
		return nil, io.EOF
	}
	rest := s.Records[s.pos:]
	s.pos = len(s.Records)
	return rest, nil
}

// Collect drains src into a slice. It is intended for tests and small
// traces; experiments stream instead.
func Collect(src Source) ([]Record, error) {
	var out []Record
	var rec Record
	for {
		err := src.Next(&rec)
		if err != nil {
			if err == io.EOF {
				return out, nil
			}
			return out, err
		}
		out = append(out, rec)
	}
}
