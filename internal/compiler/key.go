// Package compiler assembles checked query programs, whose expressions
// package lang has already lowered to the fold IR, into executable plans:
// per-stage fold programs, grouping-key packing specs, switch/collector
// stage placement, and the paper's JOIN-of-GROUPBYs reduction to a single
// fused key-value store program (§2, §3).
package compiler

import (
	"encoding/binary"
	"fmt"

	"perfq/internal/packet"
	"perfq/internal/trace"
)

// fieldWidth is the packed byte width of each raw schema field, matching
// the natural header widths the paper's 104-bit five-tuple assumes.
var fieldWidth = [trace.NumFields]int{
	trace.FieldSrcIP: 4, trace.FieldDstIP: 4,
	trace.FieldSrcPort: 2, trace.FieldDstPort: 2,
	trace.FieldProto:  1,
	trace.FieldPktLen: 4, trace.FieldPayloadLen: 4,
	trace.FieldTCPSeq: 4, trace.FieldTCPFlags: 1,
	trace.FieldPktUniq: 8,
	trace.FieldQID:     4, trace.FieldSwitch: 2, trace.FieldQueue: 2,
	trace.FieldTin: 8, trace.FieldTout: 8,
	trace.FieldQin: 4, trace.FieldQout: 4,
	trace.FieldPath: 4,
}

// KeySpec describes how a group stage's key is formed and packed into the
// 128-bit key-value-store key.
type KeySpec struct {
	// Fields are the raw schema fields (stages over T).
	Fields []trace.FieldID
	// Cols are upstream column indices (stages over derived tables).
	Cols []int
	// Packed reports whether the field values fit in 16 bytes and are
	// therefore stored reversibly; otherwise the key is a 128-bit digest
	// and key values ride alongside (wider-key SRAM in real hardware).
	Packed bool
	// widths per component (packed mode; derived columns use 8 bytes).
	widths []int
	// fiveTuple marks the canonical GROUPBY 5tuple spec, whose packed
	// layout coincides with packet.FiveTuple.Pack — the datapath reads
	// the record's header fields directly instead of dispatching through
	// Record.Field five times per packet.
	fiveTuple bool
}

// NumComponents returns how many key values the spec extracts.
func (k *KeySpec) NumComponents() int {
	if len(k.Fields) > 0 {
		return len(k.Fields)
	}
	return len(k.Cols)
}

// newKeySpecFields builds a KeySpec over raw schema fields.
func newKeySpecFields(fields []trace.FieldID) *KeySpec {
	ks := &KeySpec{Fields: fields}
	total := 0
	for _, f := range fields {
		w := fieldWidth[f]
		if w == 0 {
			w = 8
		}
		ks.widths = append(ks.widths, w)
		total += w
	}
	ks.Packed = total <= 16
	if len(fields) == len(trace.FiveTupleFields) {
		ks.fiveTuple = true
		for i, f := range trace.FiveTupleFields {
			if fields[i] != f {
				ks.fiveTuple = false
				break
			}
		}
	}
	return ks
}

// newKeySpecCols builds a KeySpec over derived-row columns (8 bytes each).
func newKeySpecCols(cols []int) *KeySpec {
	ks := &KeySpec{Cols: cols}
	for range cols {
		ks.widths = append(ks.widths, 8)
	}
	ks.Packed = len(cols)*8 <= 16
	return ks
}

// Equal reports whether two specs form identical keys (the fusion
// precondition).
func (k *KeySpec) Equal(o *KeySpec) bool {
	if len(k.Fields) != len(o.Fields) || len(k.Cols) != len(o.Cols) {
		return false
	}
	for i := range k.Fields {
		if k.Fields[i] != o.Fields[i] {
			return false
		}
	}
	for i := range k.Cols {
		if k.Cols[i] != o.Cols[i] {
			return false
		}
	}
	return true
}

// Values extracts the key component values for a raw record (fields mode)
// into dst.
func (k *KeySpec) Values(rec *trace.Record, dst []float64) {
	for i, f := range k.Fields {
		dst[i] = float64(rec.Field(f))
	}
}

// ValuesRow extracts key components from a derived row into dst.
func (k *KeySpec) ValuesRow(row []float64, dst []float64) {
	for i, c := range k.Cols {
		dst[i] = row[c]
	}
}

// Of extracts and packs a record's key in one step — the form the
// per-packet datapath and the shard router want when they need only the
// 128-bit key, not the component values. Packed field keys skip the
// component vector entirely; the float64 round-trip is kept so the key
// bytes are bit-identical to Pack(Values(rec)) — the collector compares
// keys formed from float64 rows.
func (k *KeySpec) Of(rec *trace.Record) packet.Key128 {
	if k.fiveTuple {
		// Identical bytes to the generic packed path below: the widths
		// (4,4,2,2,1 big-endian) match FiveTuple.Pack, and all five
		// values are ≤ 32 bits so the float64 round-trip is lossless.
		// Assembled from the header fields directly (no Record.Field
		// dispatch) in a leaf helper small enough to inline.
		return rec.FiveTupleKey()
	}
	return k.ofGeneric(rec)
}

// IsFiveTuple reports whether this is the canonical 5-tuple key, for
// callers that want to pack with Record.FiveTupleKey inline instead of paying
// the Of call on a per-packet path.
func (k *KeySpec) IsFiveTuple() bool { return k.fiveTuple }

// ofGeneric is the non-5-tuple packing path.
func (k *KeySpec) ofGeneric(rec *trace.Record) packet.Key128 {
	if k.Packed && len(k.Fields) > 0 {
		var key packet.Key128
		off := 0
		for i, f := range k.Fields {
			w := k.widths[i]
			putUint(key[off:off+w], uint64(int64(float64(rec.Field(f)))), w)
			off += w
		}
		return key
	}
	nk := k.NumComponents()
	var kv [8]float64
	k.Values(rec, kv[:nk])
	return k.Pack(kv[:nk])
}

// Pack converts key component values into the cache key. Packed mode lays
// components out at their natural widths; digest mode hashes the full
// component vector into 16 bytes with two independent FNV-1a streams.
func (k *KeySpec) Pack(vals []float64) packet.Key128 {
	var key packet.Key128
	if k.Packed {
		off := 0
		for i, v := range vals {
			w := k.widths[i]
			putUint(key[off:off+w], uint64(int64(v)), w)
			off += w
		}
		return key
	}
	const (
		off1, off2        = 14695981039346656037, 0xcbf29ce484222325 ^ 0x9e3779b97f4a7c15
		prime      uint64 = 1099511628211
	)
	h1, h2 := uint64(off1), uint64(off2)
	var b [8]byte
	for _, v := range vals {
		binary.LittleEndian.PutUint64(b[:], uint64(int64(v)))
		for _, x := range b {
			h1 = (h1 ^ uint64(x)) * prime
			h2 = (h2 ^ uint64(x)) * (prime + 2)
		}
	}
	binary.LittleEndian.PutUint64(key[0:8], h1)
	binary.LittleEndian.PutUint64(key[8:16], h2)
	return key
}

// Unpack recovers key component values from a packed key. It must only be
// called when Packed is true.
func (k *KeySpec) Unpack(key packet.Key128, dst []float64) {
	if !k.Packed {
		panic("compiler: Unpack on digest-mode key")
	}
	off := 0
	for i := range k.widths {
		w := k.widths[i]
		dst[i] = float64(int64(getUint(key[off:off+w], w)))
		off += w
	}
}

func putUint(b []byte, v uint64, w int) {
	// Width-dispatched stores: the natural field widths are 1/2/4/8
	// bytes, and this runs once per key component per packet on the
	// datapath's key-packing path.
	switch w {
	case 1:
		b[0] = byte(v)
	case 2:
		binary.BigEndian.PutUint16(b, uint16(v))
	case 4:
		binary.BigEndian.PutUint32(b, uint32(v))
	case 8:
		binary.BigEndian.PutUint64(b, v)
	default:
		for i := w - 1; i >= 0; i-- {
			b[i] = byte(v)
			v >>= 8
		}
	}
}

func getUint(b []byte, w int) uint64 {
	switch w {
	case 1:
		return uint64(b[0])
	case 2:
		return uint64(binary.BigEndian.Uint16(b))
	case 4:
		return uint64(binary.BigEndian.Uint32(b))
	case 8:
		return binary.BigEndian.Uint64(b)
	}
	var v uint64
	for i := 0; i < w; i++ {
		v = v<<8 | uint64(b[i])
	}
	return v
}

// String describes the key layout.
func (k *KeySpec) String() string {
	mode := "digest"
	if k.Packed {
		mode = "packed"
	}
	if len(k.Fields) > 0 {
		names := make([]string, len(k.Fields))
		for i, f := range k.Fields {
			names[i] = f.String()
		}
		return fmt.Sprintf("key(%s; %s)", mode, join(names))
	}
	cols := make([]string, len(k.Cols))
	for i, c := range k.Cols {
		cols[i] = fmt.Sprintf("$%d", c)
	}
	return fmt.Sprintf("key(%s; %s)", mode, join(cols))
}

func join(parts []string) string {
	out := ""
	for i, p := range parts {
		if i > 0 {
			out += ","
		}
		out += p
	}
	return out
}
