package trace

import (
	"bytes"
	"errors"
	"io"
	"math/rand"
	"testing"
	"testing/quick"

	"perfq/internal/packet"
)

func sampleRecord(i int) Record {
	return Record{
		SrcIP:      packet.Addr4{10, 0, 0, byte(i)},
		DstIP:      packet.Addr4{10, 0, 1, byte(i * 3)},
		SrcPort:    uint16(1000 + i),
		DstPort:    443,
		Proto:      packet.ProtoTCP,
		PktLen:     1500,
		PayloadLen: 1448,
		TCPSeq:     uint32(i * 1448),
		TCPFlags:   packet.TCPAck,
		PktUniq:    uint64(i),
		QID:        MakeQueueID(3, 7),
		Tin:        int64(i) * 1000,
		Tout:       int64(i)*1000 + 500,
		QSizeIn:    uint32(i * 100),
		QSizeOut:   uint32(i * 90),
		Path:       5,
	}
}

func TestQueueID(t *testing.T) {
	q := MakeQueueID(0xabcd, 0x1234)
	if q.Switch() != 0xabcd || q.Queue() != 0x1234 {
		t.Errorf("QueueID round trip: %x %x", q.Switch(), q.Queue())
	}
}

func TestDroppedAndDelay(t *testing.T) {
	r := sampleRecord(1)
	if r.Dropped() {
		t.Error("record with finite tout reported dropped")
	}
	if got := r.QueueingDelay(); got != 500 {
		t.Errorf("QueueingDelay = %d, want 500", got)
	}
	r.Tout = Infinity
	if !r.Dropped() {
		t.Error("record with tout=Infinity not reported dropped")
	}
	if r.QueueingDelay() != Infinity {
		t.Error("dropped packet delay should be Infinity")
	}
}

func TestFieldAccessors(t *testing.T) {
	r := sampleRecord(2)
	cases := []struct {
		f    FieldID
		want int64
	}{
		{FieldSrcIP, int64(r.SrcIP.Uint32())},
		{FieldDstIP, int64(r.DstIP.Uint32())},
		{FieldSrcPort, 1002},
		{FieldDstPort, 443},
		{FieldProto, int64(packet.ProtoTCP)},
		{FieldPktLen, 1500},
		{FieldPayloadLen, 1448},
		{FieldTCPSeq, 2896},
		{FieldTCPFlags, int64(packet.TCPAck)},
		{FieldPktUniq, 2},
		{FieldQID, int64(MakeQueueID(3, 7))},
		{FieldSwitch, 3},
		{FieldQueue, 7},
		{FieldTin, 2000},
		{FieldTout, 2500},
		{FieldQin, 200},
		{FieldQout, 180},
		{FieldPath, 5},
	}
	for _, c := range cases {
		if got := r.Field(c.f); got != c.want {
			t.Errorf("Field(%v) = %d, want %d", c.f, got, c.want)
		}
	}
}

func TestFieldByNameCoversSchema(t *testing.T) {
	for f := FieldSrcIP; f < FieldID(NumFields); f++ {
		got, ok := FieldByName(f.String())
		if !ok || got != f {
			t.Errorf("FieldByName(%q) = %v,%v", f.String(), got, ok)
		}
	}
	if _, ok := FieldByName("no_such_field"); ok {
		t.Error("unknown field resolved")
	}
	// Aliases.
	if f, _ := FieldByName("qsize"); f != FieldQin {
		t.Error("qsize alias broken")
	}
}

func TestSliceSourceCollect(t *testing.T) {
	var recs []Record
	for i := 0; i < 5; i++ {
		recs = append(recs, sampleRecord(i))
	}
	src := &SliceSource{Records: recs}
	got, err := Collect(src)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 5 {
		t.Fatalf("collected %d records", len(got))
	}
	if got[3] != sampleRecord(3) {
		t.Errorf("record 3 = %+v", got[3])
	}
	src.Reset()
	var r Record
	if err := src.Next(&r); err != nil || r.PktUniq != 0 {
		t.Error("Reset did not rewind")
	}
}

func TestPQTRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	w, err := NewWriter(&buf)
	if err != nil {
		t.Fatal(err)
	}
	var want []Record
	for i := 0; i < 100; i++ {
		r := sampleRecord(i)
		if i%7 == 0 {
			r.Tout = Infinity // drops must survive serialization
		}
		want = append(want, r)
		if err := w.Write(&r); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	if w.Count() != 100 {
		t.Errorf("Count = %d", w.Count())
	}

	r, err := NewReader(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	got, err := Collect(r)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) {
		t.Fatalf("got %d records, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("record %d: got %+v want %+v", i, got[i], want[i])
		}
	}
}

func TestQuickPQTRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	f := func() bool {
		r := Record{
			SrcIP:      packet.Addr4FromUint32(rng.Uint32()),
			DstIP:      packet.Addr4FromUint32(rng.Uint32()),
			SrcPort:    uint16(rng.Uint32()),
			DstPort:    uint16(rng.Uint32()),
			Proto:      packet.Proto(rng.Uint32()),
			PktLen:     rng.Uint32(),
			PayloadLen: rng.Uint32(),
			TCPSeq:     rng.Uint32(),
			TCPFlags:   uint8(rng.Uint32()),
			PktUniq:    rng.Uint64(),
			QID:        QueueID(rng.Uint32()),
			Tin:        rng.Int63(),
			Tout:       rng.Int63(),
			QSizeIn:    rng.Uint32(),
			QSizeOut:   rng.Uint32() & 0xffffff,
			Path:       rng.Uint32() & 0xff,
		}
		var buf bytes.Buffer
		w, err := NewWriter(&buf)
		if err != nil {
			return false
		}
		if err := w.Write(&r); err != nil || w.Flush() != nil {
			return false
		}
		rd, err := NewReader(&buf)
		if err != nil {
			return false
		}
		var got Record
		if err := rd.Next(&got); err != nil {
			return false
		}
		return got == r
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestPQTBadHeader(t *testing.T) {
	if _, err := NewReader(bytes.NewReader([]byte("not a pqt file at all"))); !errors.Is(err, ErrBadFormat) {
		t.Errorf("got %v, want ErrBadFormat", err)
	}
	if _, err := NewReader(bytes.NewReader([]byte{1, 2})); !errors.Is(err, ErrTruncated) {
		t.Errorf("got %v, want ErrTruncated", err)
	}
}

func TestPQTTruncatedRecord(t *testing.T) {
	var buf bytes.Buffer
	w, _ := NewWriter(&buf)
	r := sampleRecord(0)
	w.Write(&r)
	w.Flush()
	data := buf.Bytes()[:buf.Len()-10]
	rd, err := NewReader(bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	var got Record
	if err := rd.Next(&got); !errors.Is(err, ErrTruncated) {
		t.Errorf("got %v, want ErrTruncated", err)
	}
}

func TestReaderEOF(t *testing.T) {
	var buf bytes.Buffer
	w, _ := NewWriter(&buf)
	w.Flush()
	rd, err := NewReader(&buf)
	if err != nil {
		t.Fatal(err)
	}
	var r Record
	if err := rd.Next(&r); err != io.EOF {
		t.Errorf("empty file: got %v, want io.EOF", err)
	}
}
