// Package netstore is the scale-out backing store of §3.2: the off-switch
// key-value service that absorbs cache evictions, playing the role the
// paper assigns to Memcached/Redis-class stores ("a few hundred thousand
// operations per second per core"). It speaks a compact length-prefixed
// binary protocol over TCP.
//
// Evictions are fire-and-forget — the client streams frames and TCP
// ordering guarantees the server applies them in sequence. The pool
// moves them in chunks: producers encode frames into a per-backend
// chunk, the shipper writes a chunk and a SYNC marker with one deadline
// and one write and reads the marker's reply while the server applies
// the next chunk, and the server parses and applies a run of buffered
// frames in place under one lock. So eviction throughput is bounded by
// encode, decode and merge per frame plus one write, one read and one
// reply per chunk — not by a round trip, a deadline or a lock per
// eviction (EXPERIMENTS.md "Evictions at block rate"). GET, STATS and
// SYNC are request/response. A SYNC's reply confirms everything sent
// before it, which is how flush-at-window-end is made durable before
// results are read.
package netstore

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"

	"perfq/internal/fold"
	"perfq/internal/kvstore"
	"perfq/internal/trace"
)

// Protocol constants.
const (
	Magic   = 0x50514b56 // "PQKV"
	Version = 1

	// Ops.
	opHello   = 1 // client → server: magic, version, state length m [, program]
	opMerge   = 2 // eviction with linear merge payload: state, P, first record
	opAppend  = 3 // eviction without merge payload: state (epoch semantics)
	opCombine = 4 // eviction for associative folds: state
	opGet     = 5 // key lookup → status, state
	opSync    = 6 // barrier: ack after all prior ops applied
	opStats   = 7 // → keys, merges, appends
	opReset   = 8 // drop all keys
	opMergeP  = 9 // eviction with whole-epoch product: state, P (no record)

	// Response status codes.
	StatusOK       = 0
	StatusNotFound = 1
	StatusInvalid  = 2 // key present but multi-epoch (not valid)
	StatusErr      = 0xff
)

// Protocol errors.
var (
	ErrBadFrame   = errors.New("netstore: malformed frame")
	ErrBadVersion = errors.New("netstore: protocol version mismatch")
	ErrStateLen   = errors.New("netstore: state length mismatch")
	ErrBadProgram = errors.New("netstore: unknown program index")
	ErrTooLarge   = errors.New("netstore: frame exceeds limit")
)

// maxFrame bounds a frame (16B key + 8·(m + m² ) + record ≪ 4 KiB).
const maxFrame = 4096

// helloPayload builds the HELLO body: the legacy 12-byte form for
// program 0 (wire-compatible with pre-multi-program servers), the
// 16-byte extended form otherwise.
func helloPayload(m, prog int) []byte {
	n := 12
	if prog > 0 {
		n = 16
	}
	p := make([]byte, n)
	binary.LittleEndian.PutUint32(p[0:4], Magic)
	binary.LittleEndian.PutUint32(p[4:8], Version)
	binary.LittleEndian.PutUint32(p[8:12], uint32(m))
	if prog > 0 {
		binary.LittleEndian.PutUint32(p[12:16], uint32(prog))
	}
	return p
}

// putFloats appends IEEE-754 little-endian float64s.
func putFloats(b []byte, vals []float64) []byte {
	for _, v := range vals {
		b = binary.LittleEndian.AppendUint64(b, math.Float64bits(v))
	}
	return b
}

// getFloats decodes n float64s from b, returning the remainder.
func getFloats(b []byte, dst []float64) ([]byte, error) {
	need := len(dst) * 8
	if len(b) < need {
		return nil, ErrBadFrame
	}
	for i := range dst {
		dst[i] = math.Float64frombits(binary.LittleEndian.Uint64(b[i*8:]))
	}
	return b[need:], nil
}

// frameHeader is the fixed prefix of every frame: a little-endian
// uint32 counting the op byte plus the body, then the op byte.
const frameHeader = 5

// appendFrameHeader appends the header of a frame whose body is n bytes.
func appendFrameHeader(b []byte, op byte, n int) []byte {
	b = binary.LittleEndian.AppendUint32(b, uint32(1+n))
	return append(b, op)
}

// appendFrame appends one whole frame.
func appendFrame(b []byte, op byte, payload []byte) []byte {
	return append(appendFrameHeader(b, op, len(payload)), payload...)
}

// frameSize reads a frame's total size, header included, from its
// first frameHeader bytes.
func frameSize(hdr []byte) (int, error) {
	n := binary.LittleEndian.Uint32(hdr[:4])
	if n < 1 || n > maxFrame {
		return 0, fmt.Errorf("%w: length %d", ErrTooLarge, n)
	}
	return frameHeader + int(n) - 1, nil
}

// parseFrame splits the frame at the front of b in place: its op, its
// body (aliasing b) and the bytes it occupies. size is 0 when b does
// not hold a whole frame yet.
func parseFrame(b []byte) (op byte, body []byte, size int, err error) {
	if len(b) < frameHeader {
		return 0, nil, 0, nil
	}
	size, err = frameSize(b)
	if err != nil || len(b) < size {
		return 0, nil, 0, err
	}
	return b[4], b[frameHeader:size], size, nil
}

// isEvictionOp reports whether op is one of the fire-and-forget
// eviction frames.
func isEvictionOp(op byte) bool {
	return op == opMerge || op == opMergeP || op == opAppend || op == opCombine
}

// maxEvictionFrame is the largest wire frame (header included) an
// eviction of an m-wide state can encode to: the opMerge form.
func maxEvictionFrame(m int) int {
	return frameHeader + 16 + 8*m + 8*m*m + trace.RecordSize
}

// appendEvictionFrame appends one eviction as a complete wire frame —
// header, key, state and, by the fold's merge class, the coefficient
// product and the epoch's first record. A run of such frames is what a
// chunk is; the server cannot tell it from frames written one by one.
func appendEvictionFrame(b []byte, m int, ev *kvstore.Eviction, mergeKind fold.MergeKind) []byte {
	op, n := byte(opAppend), 16+8*m
	switch {
	case mergeKind == fold.MergeLinear && ev.P != nil && ev.FirstRec != nil:
		op, n = opMerge, n+8*m*m+trace.RecordSize
	case mergeKind == fold.MergeLinear && ev.P != nil:
		op, n = opMergeP, n+8*m*m
	case mergeKind == fold.MergeAssoc:
		op = opCombine
	}
	b = appendFrameHeader(b, op, n)
	b = append(b, ev.Key[:]...)
	b = putFloats(b, ev.State[:m])
	if op == opMerge || op == opMergeP {
		b = putFloats(b, ev.P[:m*m])
	}
	if op == opMerge {
		b = append(b, make([]byte, trace.RecordSize)...)
		trace.MarshalRecord(b[len(b)-trace.RecordSize:], ev.FirstRec)
	}
	return b
}

// evictionDecoder decodes eviction frames of one m-wide program into
// storage it owns, so a connection decodes every frame it ever receives
// without allocating. The eviction it returns, and everything that
// eviction points to, is overwritten by the next decode.
type evictionDecoder struct {
	state, p []float64
	rec      trace.Record
	ev       kvstore.Eviction
}

func newEvictionDecoder(m int) *evictionDecoder {
	return &evictionDecoder{state: make([]float64, m), p: make([]float64, m*m)}
}

// decode parses one eviction frame body (the bytes after the header).
func (d *evictionDecoder) decode(op byte, body []byte) (*kvstore.Eviction, error) {
	if len(body) < 16 {
		return nil, ErrBadFrame
	}
	d.ev = kvstore.Eviction{State: d.state}
	copy(d.ev.Key[:], body[:16])
	body = body[16:]
	var err error
	if body, err = getFloats(body, d.state); err != nil {
		return nil, err
	}
	if op == opMerge || op == opMergeP {
		if body, err = getFloats(body, d.p); err != nil {
			return nil, err
		}
		d.ev.P = d.p
	}
	if op == opMerge {
		if len(body) < trace.RecordSize {
			return nil, ErrBadFrame
		}
		trace.UnmarshalRecord(body[:trace.RecordSize], &d.rec)
		d.ev.FirstRec = &d.rec
		body = body[trace.RecordSize:]
	}
	if len(body) != 0 {
		return nil, fmt.Errorf("%w: %d trailing bytes", ErrBadFrame, len(body))
	}
	return &d.ev, nil
}
