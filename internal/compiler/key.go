// Package compiler assembles checked query programs, whose expressions
// package lang has already lowered to the fold IR, into executable plans:
// per-stage fold programs, grouping-key packing specs, switch/collector
// stage placement, and the paper's JOIN-of-GROUPBYs reduction to a single
// fused key-value store program (§2, §3).
package compiler

import (
	"encoding/binary"
	"fmt"
	"strings"

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
	// comps places each component in the packed key (packed mode), and
	// signed says one is 8 bytes wide, so it can unpack negative.
	comps  []keyComp
	signed bool
	// fiveTuple marks the canonical GROUPBY 5tuple spec, whose packed
	// layout coincides with packet.FiveTuple.Pack — the datapath reads
	// the record's header fields directly instead of dispatching through
	// Record.Field five times per packet, and Unpack shifts by constants.
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
	ks := &KeySpec{Fields: fields, Packed: true}
	for _, f := range fields {
		w := fieldWidth[f]
		if w == 0 {
			w = 8
		}
		ks.add(w)
	}
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
	ks := &KeySpec{Cols: cols, Packed: true}
	for range cols {
		ks.add(8)
	}
	return ks
}

// keyComp is one packed component: its first bit in k0 ‖ k1 (0 is k0's
// top bit), and how many of the 64 bits from there are not its own.
type keyComp struct{ at, drop uint }

// add lays the next component, w bytes wide, after the ones before it:
// the spec stays packed while they fit in 16 bytes.
func (k *KeySpec) add(w int) {
	at := uint(0)
	if n := len(k.comps); n > 0 {
		at = k.comps[n-1].at + 64 - k.comps[n-1].drop
	}
	k.comps = append(k.comps, keyComp{at: at, drop: uint(64 - 8*w)})
	k.Packed = k.Packed && at+uint(8*w) <= 128
	k.signed = k.signed || w == 8
}

// Signed reports whether a packed key can unpack a negative component:
// only an 8-byte one reaches its word's sign bit.
func (k *KeySpec) Signed() bool { return k.signed }

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
		// The generic path's bytes, from the header fields directly: all
		// five values are ≤ 32 bits, so the float64 round-trip is lossless.
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
		var k0, k1 uint64
		for i, f := range k.Fields {
			k0, k1 = k.comps[i].put(k0, k1, uint64(int64(float64(rec.Field(f)))))
		}
		return keyOfWords(k0, k1)
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
	if k.Packed {
		var k0, k1 uint64
		for i, v := range vals {
			k0, k1 = k.comps[i].put(k0, k1, uint64(int64(v)))
		}
		return keyOfWords(k0, k1)
	}
	var key packet.Key128
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

// Unpack recovers key component values from a packed key given as its
// two big-endian words (bytes 0–7 and 8–15). It must only be called when
// Packed is true.
func (k *KeySpec) Unpack(k0, k1 uint64, dst []float64) {
	if !k.Packed {
		panic("compiler: Unpack on digest-mode key")
	}
	if k.fiveTuple { // the five components at constant shifts
		dst = dst[:5]
		dst[0], dst[1] = float64(int64(k0>>32)), float64(int64(k0&0xffff_ffff))
		dst[2], dst[3], dst[4] = float64(int64(k1>>48)), float64(int64(k1>>32&0xffff)), float64(int64(k1>>24&0xff))
		return
	}
	for i, c := range k.comps {
		dst[i] = float64(int64(c.get(k0, k1)))
	}
}

// get reads the component out of the key's words. Shift counts masked
// to six bits compile to bare shifts; lo>>1>>(63-at) is lo>>(64-at) with
// at = 0 reading nothing.
func (c keyComp) get(k0, k1 uint64) uint64 {
	if c.at >= 64 {
		k0, k1 = k1, 0
	}
	return (k0<<(c.at&63) | k1>>1>>((63-c.at)&63)) >> (c.drop & 63)
}

// put ORs the component's low bytes into the key's words: get's inverse.
func (c keyComp) put(k0, k1, v uint64) (uint64, uint64) {
	v <<= c.drop & 63 // the low bytes, at the top
	if c.at >= 64 {
		return k0, k1 | v>>(c.at&63)
	}
	return k0 | v>>(c.at&63), k1 | v<<1<<((63-c.at)&63)
}

// keyOfWords is the key whose big-endian words are k0 and k1.
func keyOfWords(k0, k1 uint64) (key packet.Key128) {
	binary.BigEndian.PutUint64(key[0:8], k0)
	binary.BigEndian.PutUint64(key[8:16], k1)
	return key
}

// String describes the key layout.
func (k *KeySpec) String() string {
	mode := "digest"
	if k.Packed {
		mode = "packed"
	}
	var parts []string
	for _, f := range k.Fields {
		parts = append(parts, f.String())
	}
	for _, c := range k.Cols {
		parts = append(parts, fmt.Sprintf("$%d", c))
	}
	return fmt.Sprintf("key(%s; %s)", mode, strings.Join(parts, ","))
}
