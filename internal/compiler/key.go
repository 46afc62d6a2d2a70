// Package compiler assembles checked query programs, whose expressions
// package lang has already lowered to the fold IR, into executable plans:
// per-stage fold programs, grouping-key packing specs, switch/collector
// stage placement, and the paper's JOIN-of-GROUPBYs reduction to a single
// fused key-value store program (§2, §3).
package compiler

import (
	"fmt"
	"math/bits"
	"strings"

	"perfq/internal/fold"
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

// Of extracts and packs a record's key, Pack(Values(rec)) — the key the
// shard router needs; the block stage packs from columns (PackBlock).
func (k *KeySpec) Of(rec *trace.Record) packet.Key128 {
	if k.fiveTuple {
		// The generic path's bytes, from the header fields directly: all
		// five values are ≤ 32 bits, so the float64 round-trip is lossless.
		return rec.FiveTupleKey()
	}
	var kv [8]float64
	k.Values(rec, kv[:len(k.Fields)])
	return k.Pack(kv[:len(k.Fields)])
}

// IsFiveTuple reports whether this is the canonical 5-tuple key, for
// callers that want to pack with Record.FiveTupleKey inline instead of paying
// the Of call on a per-packet path.
func (k *KeySpec) IsFiveTuple() bool { return k.fiveTuple }

// The offsets and prime of digest mode's two FNV-1a streams.
const (
	digest0, digest1        = 14695981039346656037, 0xcbf29ce484222325 ^ 0x9e3779b97f4a7c15
	fnvPrime         uint64 = 1099511628211
)

// Pack converts key component values into the cache key. Packed mode lays
// components out at their natural widths; digest mode hashes the full
// component vector into 16 bytes with two FNV-1a streams.
func (k *KeySpec) Pack(vals []float64) (key packet.Key128) {
	k0, k1 := uint64(0), uint64(0)
	if !k.Packed {
		k0, k1 = digest0, digest1
	}
	for i, v := range vals {
		if k.Packed {
			k0, k1 = k.comps[i].put(k0, k1, uint64(int64(v)))
		} else {
			k0, k1 = fnv(k0, k1, uint64(int64(v)))
		}
	}
	key.SetWords(k.words(k0, k1))
	return key
}

// PackBlock sets keys[l] = Of(rec) and hashes[l] = keys[l].Hash() for the
// lanes l in mask, bit for bit, from blk's columns (blk.Lane(f)[l] =
// float64(rec.Field(f))): one loop over the lanes per component.
func (k *KeySpec) PackBlock(blk *fold.InputBlock, mask uint64, keys []packet.Key128, hashes []uint64) {
	var k0, k1 [fold.BlockSize]uint64
	for l := 0; !k.Packed && l < fold.BlockSize; l++ {
		k0[l], k1[l] = digest0, digest1
	}
	for i, f := range k.Fields {
		vals, c := blk.Lane(f), k.comps[i]
		for m := mask; m != 0; m &= m - 1 {
			l := bits.TrailingZeros64(m)
			if v := uint64(int64(vals[l])); k.Packed {
				k0[l], k1[l] = c.put(k0[l], k1[l], v)
			} else {
				k0[l], k1[l] = fnv(k0[l], k1[l], v)
			}
		}
	}
	for m := mask; m != 0; m &= m - 1 {
		l := bits.TrailingZeros64(m)
		lo, hi := k.words(k0[l], k1[l])
		keys[l].SetWords(lo, hi)
		hashes[l] = packet.HashWords(lo, hi)
	}
}

// fnv runs v's eight little-endian bytes through both FNV-1a streams.
func fnv(h0, h1, v uint64) (uint64, uint64) {
	for s := 0; s < 64; s += 8 {
		h0, h1 = (h0^v>>s&0xff)*fnvPrime, (h1^v>>s&0xff)*(fnvPrime+2)
	}
	return h0, h1
}

// words turns the words components were folded into to the key's
// (packet.Key128.SetWords): a packed key's bytes are big-endian.
func (k *KeySpec) words(k0, k1 uint64) (lo, hi uint64) {
	if k.Packed {
		return bits.ReverseBytes64(k0), bits.ReverseBytes64(k1)
	}
	return k0, k1
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
