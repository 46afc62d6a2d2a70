package trace

import "fmt"

// FieldID identifies one column of the record schema as seen by the query
// language. All field values are surfaced to the fold VM as int64: IP
// addresses as their big-endian integer value, timestamps as nanoseconds,
// and drops as trace.Infinity.
type FieldID uint8

// The schema columns (Fig. 1 of the paper, plus the convenience accessors
// the examples use).
const (
	FieldInvalid    FieldID = iota
	FieldSrcIP              // srcip
	FieldDstIP              // dstip
	FieldSrcPort            // srcport
	FieldDstPort            // dstport
	FieldProto              // proto
	FieldPktLen             // pkt_len
	FieldPayloadLen         // payload_len
	FieldTCPSeq             // tcpseq
	FieldTCPFlags           // tcpflags
	FieldPktUniq            // pkt_uniq
	FieldQID                // qid (switch<<16 | queue)
	FieldSwitch             // switch (upper half of qid)
	FieldQueue              // queue (lower half of qid)
	FieldTin                // tin
	FieldTout               // tout (Infinity when dropped)
	FieldQin                // qin: queue length in bytes at enqueue (alias qsize)
	FieldQout               // qout: queue length in bytes at dequeue
	FieldPath               // pkt_path
	numFields
)

// NumFields is the number of valid field IDs (for dense tables indexed by
// FieldID).
const NumFields = int(numFields)

var fieldNames = [...]string{
	FieldInvalid:    "<invalid>",
	FieldSrcIP:      "srcip",
	FieldDstIP:      "dstip",
	FieldSrcPort:    "srcport",
	FieldDstPort:    "dstport",
	FieldProto:      "proto",
	FieldPktLen:     "pkt_len",
	FieldPayloadLen: "payload_len",
	FieldTCPSeq:     "tcpseq",
	FieldTCPFlags:   "tcpflags",
	FieldPktUniq:    "pkt_uniq",
	FieldQID:        "qid",
	FieldSwitch:     "switch",
	FieldQueue:      "queue",
	FieldTin:        "tin",
	FieldTout:       "tout",
	FieldQin:        "qin",
	FieldQout:       "qout",
	FieldPath:       "pkt_path",
}

// String returns the query-language name of the field.
func (f FieldID) String() string {
	if int(f) < len(fieldNames) {
		return fieldNames[f]
	}
	return fmt.Sprintf("field(%d)", uint8(f))
}

// fieldByName maps every accepted spelling (including aliases) to its ID.
var fieldByName = map[string]FieldID{
	"srcip": FieldSrcIP, "dstip": FieldDstIP,
	"srcport": FieldSrcPort, "dstport": FieldDstPort,
	"proto":   FieldProto,
	"pkt_len": FieldPktLen, "pktlen": FieldPktLen,
	"payload_len": FieldPayloadLen, "payloadlen": FieldPayloadLen,
	"tcpseq": FieldTCPSeq, "tcpflags": FieldTCPFlags,
	"pkt_uniq": FieldPktUniq, "pktuniq": FieldPktUniq,
	"qid": FieldQID, "switch": FieldSwitch, "queue": FieldQueue,
	"tin": FieldTin, "tout": FieldTout,
	"qin": FieldQin, "qsize": FieldQin, "qout": FieldQout,
	"pkt_path": FieldPath, "path": FieldPath,
}

// FieldByName resolves a query-language field name (or alias) to its ID.
func FieldByName(name string) (FieldID, bool) {
	f, ok := fieldByName[name]
	return f, ok
}

// FiveTupleFields is the expansion of the "5tuple" shorthand.
var FiveTupleFields = []FieldID{FieldSrcIP, FieldDstIP, FieldSrcPort, FieldDstPort, FieldProto}

// Field returns the value of column f for this record as an int64.
func (r *Record) Field(f FieldID) int64 {
	switch f {
	case FieldSrcIP:
		return int64(r.SrcIP.Uint32())
	case FieldDstIP:
		return int64(r.DstIP.Uint32())
	case FieldSrcPort:
		return int64(r.SrcPort)
	case FieldDstPort:
		return int64(r.DstPort)
	case FieldProto:
		return int64(r.Proto)
	case FieldPktLen:
		return int64(r.PktLen)
	case FieldPayloadLen:
		return int64(r.PayloadLen)
	case FieldTCPSeq:
		return int64(r.TCPSeq)
	case FieldTCPFlags:
		return int64(r.TCPFlags)
	case FieldPktUniq:
		return int64(r.PktUniq)
	case FieldQID:
		return int64(r.QID)
	case FieldSwitch:
		return int64(r.QID.Switch())
	case FieldQueue:
		return int64(r.QID.Queue())
	case FieldTin:
		return r.Tin
	case FieldTout:
		return r.Tout
	case FieldQin:
		return int64(r.QSizeIn)
	case FieldQout:
		return int64(r.QSizeOut)
	case FieldPath:
		return int64(r.Path)
	default:
		return 0
	}
}

// Column writes float64(recs[l].Field(f)) for every record into dst[l]:
// one switch per column, where Field switches once per record.
func Column(recs []Record, f FieldID, dst []float64) {
	dst = dst[:len(recs)]
	switch f {
	case FieldSrcIP:
		fill(recs, dst, func(r *Record) int64 { return int64(r.SrcIP.Uint32()) })
	case FieldDstIP:
		fill(recs, dst, func(r *Record) int64 { return int64(r.DstIP.Uint32()) })
	case FieldSrcPort:
		fill(recs, dst, func(r *Record) int64 { return int64(r.SrcPort) })
	case FieldDstPort:
		fill(recs, dst, func(r *Record) int64 { return int64(r.DstPort) })
	case FieldProto:
		fill(recs, dst, func(r *Record) int64 { return int64(r.Proto) })
	case FieldPktLen:
		fill(recs, dst, func(r *Record) int64 { return int64(r.PktLen) })
	case FieldPayloadLen:
		fill(recs, dst, func(r *Record) int64 { return int64(r.PayloadLen) })
	case FieldTCPSeq:
		fill(recs, dst, func(r *Record) int64 { return int64(r.TCPSeq) })
	case FieldTCPFlags:
		fill(recs, dst, func(r *Record) int64 { return int64(r.TCPFlags) })
	case FieldPktUniq:
		fill(recs, dst, func(r *Record) int64 { return int64(r.PktUniq) })
	case FieldQID:
		fill(recs, dst, func(r *Record) int64 { return int64(r.QID) })
	case FieldSwitch:
		fill(recs, dst, func(r *Record) int64 { return int64(r.QID.Switch()) })
	case FieldQueue:
		fill(recs, dst, func(r *Record) int64 { return int64(r.QID.Queue()) })
	case FieldTin:
		fill(recs, dst, func(r *Record) int64 { return r.Tin })
	case FieldTout:
		fill(recs, dst, func(r *Record) int64 { return r.Tout })
	case FieldQin:
		fill(recs, dst, func(r *Record) int64 { return int64(r.QSizeIn) })
	case FieldQout:
		fill(recs, dst, func(r *Record) int64 { return int64(r.QSizeOut) })
	case FieldPath:
		fill(recs, dst, func(r *Record) int64 { return int64(r.Path) })
	default:
		clear(dst)
	}
}

// fill is Column's loop; it and get inline into each case.
func fill(recs []Record, dst []float64, get func(*Record) int64) {
	for l := range recs {
		dst[l] = float64(get(&recs[l]))
	}
}
