package compiler

import (
	"encoding/binary"
	"math"
	"math/rand"
	"testing"

	"perfq/internal/packet"
	"perfq/internal/trace"
)

// putBytes and getBytes are the byte loops the word shifts replaced: the
// oracle for where each component's bytes sit in a packed key.
func putBytes(b []byte, v uint64, w int) {
	for i := w - 1; i >= 0; i-- {
		b[i] = byte(v)
		v >>= 8
	}
}

func getBytes(b []byte, w int) uint64 {
	var v uint64
	for i := 0; i < w; i++ {
		v = v<<8 | uint64(b[i])
	}
	return v
}

// drawPackedSpec draws a packed spec and its component widths: raw fields
// of total width ≤ 16 in any order (so components straddle bytes 7 and 8,
// and 8-byte ones appear), the canonical five-tuple, whose Unpack shifts
// by constants, or one or two derived columns.
func drawPackedSpec(rng *rand.Rand) (*KeySpec, []int) {
	switch rng.Intn(5) {
	case 0:
		cols := make([]int, 1+rng.Intn(2))
		for i := range cols {
			cols[i] = rng.Intn(6)
		}
		return newKeySpecCols(cols), []int{8, 8}[:len(cols)]
	case 1:
		return newKeySpecFields(trace.FiveTupleFields), []int{4, 4, 2, 2, 1}
	}
	var fields []trace.FieldID
	var widths []int
	for total := 0; len(fields) == 0 || rng.Intn(4) > 0; {
		f := trace.FieldID(1 + rng.Intn(trace.NumFields-1))
		if total+fieldWidth[f] > 16 {
			break
		}
		fields, widths = append(fields, f), append(widths, fieldWidth[f])
		total += fieldWidth[f]
	}
	return newKeySpecFields(fields), widths
}

// drawValue draws a value a w-byte component holds exactly: below 2^(8w)
// for a narrow one; for an 8-byte one any sign and at most 53 significant
// bits, so the float64 is exact, or one of the extremes.
func drawValue(rng *rand.Rand, w int) float64 {
	if w < 8 {
		return float64(rng.Uint64() >> (64 - 8*w))
	}
	switch rng.Intn(8) {
	case 0:
		return math.MinInt64
	case 1:
		return -1
	case 2:
		return 0
	}
	v := float64(rng.Int63n(1<<53) << rng.Intn(10))
	if rng.Intn(2) == 0 {
		v = -v
	}
	return v
}

// TestKeySpecWordsMatchByteLoop is the packed key's property: over drawn
// specs, Pack lays every component's bytes where the byte loop put them,
// Unpack from the key's two words returns the values bit for bit, Unpack
// of arbitrary words reads what the byte loop reads, and a spec reports
// Signed exactly when it has an 8-byte component — without one, no words
// unpack to a negative value, so the key's byte order is its rows' order.
func TestKeySpecWordsMatchByteLoop(t *testing.T) {
	rng := rand.New(rand.NewSource(33))
	var straddled, negative, fiveTuple int
	for n := 0; n < 20_000; n++ {
		ks, widths := drawPackedSpec(rng)
		if !ks.Packed {
			t.Fatalf("%v: %v bytes did not pack", ks, widths)
		}
		if ks.IsFiveTuple() {
			fiveTuple++
		}
		vals := make([]float64, len(widths))
		var want packet.Key128
		wide, off := false, 0
		for i, w := range widths {
			vals[i] = drawValue(rng, w)
			putBytes(want[off:off+w], uint64(int64(vals[i])), w)
			if off < 8 && off+w > 8 {
				straddled++
			}
			wide = wide || w == 8
			off += w
		}
		if ks.Signed() != wide {
			t.Fatalf("%v: Signed() = %v with widths %v", ks, ks.Signed(), widths)
		}
		key := ks.Pack(vals)
		if key != want {
			t.Fatalf("%v: Pack(%v) = %x, the byte loop packs %x", ks, vals, key, want)
		}
		got := make([]float64, len(widths))
		ks.Unpack(binary.BigEndian.Uint64(key[0:8]), binary.BigEndian.Uint64(key[8:16]), got)
		for i := range vals {
			if math.Float64bits(got[i]) != math.Float64bits(vals[i]) {
				t.Fatalf("%v: component %d of %v unpacks as %v", ks, i, vals, got[i])
			}
		}

		k0, k1 := rng.Uint64(), rng.Uint64()
		var raw packet.Key128
		binary.BigEndian.PutUint64(raw[0:8], k0)
		binary.BigEndian.PutUint64(raw[8:16], k1)
		ks.Unpack(k0, k1, got)
		off = 0
		for i, w := range widths {
			want := float64(int64(getBytes(raw[off:off+w], w)))
			if math.Float64bits(got[i]) != math.Float64bits(want) {
				t.Fatalf("%v: component %d of words %#x %#x unpacks as %v, the byte loop reads %v", ks, i, k0, k1, got[i], want)
			}
			if got[i] < 0 {
				negative++
				if !ks.Signed() {
					t.Fatalf("%v: component %d of words %#x %#x unpacks negative, but the spec is not Signed", ks, i, k0, k1)
				}
			}
			off += w
		}
	}
	if straddled == 0 || negative == 0 || fiveTuple == 0 {
		t.Fatalf("the draws never straddled bytes 7 and 8 (%d), unpacked a negative value (%d) or drew the five-tuple (%d)", straddled, negative, fiveTuple)
	}
}

// TestKeySpecOfMatchesPack: packing a record's fields directly gives the
// bytes Pack gives its component values, on records whose fields take
// any value.
func TestKeySpecOfMatchesPack(t *testing.T) {
	rng := rand.New(rand.NewSource(34))
	for n := 0; n < 5_000; n++ {
		ks, _ := drawPackedSpec(rng)
		if len(ks.Fields) == 0 {
			continue
		}
		rec := trace.Record{
			SrcPort: uint16(rng.Uint32()), DstPort: uint16(rng.Uint32()), Proto: 6,
			PktLen: rng.Uint32(), PayloadLen: rng.Uint32(), TCPSeq: rng.Uint32(), TCPFlags: uint8(rng.Uint32()),
			PktUniq: rng.Uint64(), QID: trace.QueueID(rng.Uint32()),
			Tin: int64(rng.Uint64()), Tout: int64(rng.Uint64()),
			QSizeIn: rng.Uint32(), QSizeOut: rng.Uint32(), Path: rng.Uint32(),
		}
		binary.BigEndian.PutUint32(rec.SrcIP[:], rng.Uint32())
		binary.BigEndian.PutUint32(rec.DstIP[:], rng.Uint32())
		vals := make([]float64, len(ks.Fields))
		ks.Values(&rec, vals)
		if got, want := ks.Of(&rec), ks.Pack(vals); got != want {
			t.Fatalf("%v: Of = %x, Pack(Values) = %x", ks, got, want)
		}
	}
}
