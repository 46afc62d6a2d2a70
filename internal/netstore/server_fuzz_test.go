package netstore

import (
	"bytes"
	"encoding/binary"
	"io"
	"math"
	"net"
	"testing"
	"time"

	"perfq/internal/backing"
	"perfq/internal/fold"
	"perfq/internal/kvstore"
)

// refServe is the frame loop the server ran before it parsed in place —
// a ReadFull copy per frame, the allocating decodeEviction, one apply
// per frame — reduced to what changes a store. FuzzServerFrames holds
// the server to it.
func refServe(data []byte, fs []*fold.Func, stores []*backing.Store) {
	r := bytes.NewReader(data)
	var store *backing.Store
	m := 0
	for {
		var hdr [5]byte
		if _, err := io.ReadFull(r, hdr[:]); err != nil {
			return
		}
		n, op := binary.LittleEndian.Uint32(hdr[:4]), hdr[4]
		if n < 1 || n > maxFrame {
			return
		}
		frame := make([]byte, n-1)
		if _, err := io.ReadFull(r, frame); err != nil {
			return
		}
		if store == nil && op != opHello {
			return
		}
		switch op {
		case opHello:
			prog := 0
			switch len(frame) {
			case 12:
			case 16:
				prog = int(binary.LittleEndian.Uint32(frame[12:16]))
			default:
				return
			}
			if binary.LittleEndian.Uint32(frame[0:4]) != Magic ||
				binary.LittleEndian.Uint32(frame[4:8]) != Version ||
				prog < 0 || prog >= len(fs) ||
				int(binary.LittleEndian.Uint32(frame[8:12])) != fs[prog].StateLen() {
				return
			}
			store, m = stores[prog], fs[prog].StateLen()
		case opMerge, opMergeP, opAppend, opCombine:
			ev, err := decodeEviction(op, frame, m)
			if err != nil {
				return
			}
			store.HandleEviction(&kvstore.Eviction{Key: ev.key, State: ev.state, P: ev.p, FirstRec: ev.rec})
		case opGet:
			if len(frame) != 16 {
				return
			}
		case opSync, opStats:
		case opReset:
			store.Reset()
		default:
			return
		}
	}
}

func sameFloats(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

// FuzzServerFrames feeds the server arbitrary bytes after a valid HELLO
// over net.Pipe, split across two writes. The contract is FuzzCompile's:
// never panic, never hang, bounded allocation, error or applied — the
// last two pinned by requiring the stores to end up exactly as the
// pre-chunk frame loop leaves them — and, frame by frame, the in-place
// decoder agrees with decodeEviction.
func FuzzServerFrames(f *testing.F) {
	fs := []*fold.Func{fold.Ewma(lat(), 0.25), fold.Avg(lat())} // m = 1, m = 2
	var seed []byte
	for m := 1; m <= 2; m++ {
		for _, sh := range evictionShapes(m) {
			frame := appendEvictionFrame(nil, m, &sh.ev, sh.kind)
			seed = append(seed, frame...)
			f.Add(uint8(m-1), uint16(len(frame)/2), frame)            // one frame, split mid-body
			f.Add(uint8(m-1), uint16(3), frame[:len(frame)-3])        // truncated body, split mid-header
			f.Add(uint8(2-m), uint16(0), frame)                       // the other program's width
			f.Add(uint8(m-1), uint16(0), append(frame, frame[:7]...)) // truncated second frame
		}
		f.Add(uint8(m-1), uint16(40), append(append([]byte(nil), seed...), appendFrame(nil, opSync, nil)...))
	}
	for _, n := range []uint32{0, 1, maxFrame, maxFrame + 1} {
		frame := binary.LittleEndian.AppendUint32(nil, n)
		frame = append(frame, opAppend)
		f.Add(uint8(0), uint16(2), append(frame, make([]byte, n)...))
	}
	f.Add(uint8(0), uint16(9), appendFrame(nil, opHello, helloPayload(1, 7))) // program index out of range
	f.Add(uint8(0), uint16(9), appendFrame(nil, opHello, helloPayload(2, 1))) // rebind to program 1
	for _, n := range []int{15, 16, 17} {
		get := appendFrame(nil, opGet, make([]byte, n))
		f.Add(uint8(1), uint16(6), append(get, appendFrame(nil, opStats, nil)...))
	}
	f.Add(uint8(0), uint16(0), appendFrame(appendFrame(nil, opReset, nil), 0x63, nil))

	f.Fuzz(func(t *testing.T, prog uint8, split uint16, data []byte) {
		prog %= 2
		input := appendFrame(nil, opHello, helloPayload(fs[prog].StateLen(), int(prog)))
		input = append(input, data...)

		srv, err := newServer(fs)
		if err != nil {
			t.Fatal(err)
		}
		client, server := net.Pipe()
		served := make(chan struct{})
		go func() {
			defer close(served)
			srv.serve(server)
		}()
		go io.Copy(io.Discard, client) // replies; ends when either side closes
		cut := len(input) - len(data) + int(split)%(len(data)+1)
		client.Write(input[:cut]) // errors: the server hung up on a bad frame
		client.Write(input[cut:])
		client.Close()
		select {
		case <-served:
		case <-time.After(10 * time.Second):
			t.Fatal("serve still running 10 s after its input ended")
		}

		want := []*backing.Store{backing.New(fs[0]), backing.New(fs[1])}
		refServe(input, fs, want)
		for p, w := range want {
			got := srv.stores[p]
			if got.Stats() != w.Stats() {
				t.Fatalf("program %d: store %+v, reference %+v", p, got.Stats(), w.Stats())
			}
			if w.Len() > len(data)/(frameHeader+16+8) {
				t.Fatalf("program %d: %d keys from %d bytes", p, w.Len(), len(data))
			}
			gv, gt := got.Accuracy()
			if wv, wt := w.Accuracy(); gv != wv || gt != wt {
				t.Fatalf("program %d: accuracy %d/%d, reference %d/%d", p, gv, gt, wv, wt)
			}
			for i := 0; i < w.Len(); i++ {
				key, ws, _ := w.At(i)
				if gs, _ := got.Get(key); !sameFloats(gs, ws) {
					t.Fatalf("program %d key %x: %v, reference %v", p, key, gs, ws)
				}
			}
		}

		// Frame by frame, whatever width a frame was meant for.
		for b := data; ; {
			op, body, size, err := parseFrame(b)
			if err != nil || size == 0 {
				break
			}
			b = b[size:]
			if !isEvictionOp(op) {
				continue
			}
			for m := 1; m <= 2; m++ {
				ev, err := newEvictionDecoder(m).decode(op, body)
				ref, rerr := decodeEviction(op, body, m)
				if (err == nil) != (rerr == nil) {
					t.Fatalf("op %d m=%d: in-place decoder says %v, decodeEviction %v", op, m, err, rerr)
				}
				if err != nil {
					continue
				}
				if ev.Key != ref.key || !sameFloats(ev.State, ref.state) || !sameFloats(ev.P, ref.p) ||
					(ev.FirstRec == nil) != (ref.rec == nil) || (ref.rec != nil && *ev.FirstRec != *ref.rec) {
					t.Fatalf("op %d m=%d: in-place %+v, decodeEviction %+v", op, m, ev, ref)
				}
			}
		}
	})
}
