package pcap

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"testing"
	"testing/quick"
	"time"

	"perfq/internal/netsim"
	"perfq/internal/packet"
	"perfq/internal/topo"
	"perfq/internal/trace"
	"perfq/internal/tracegen"
)

// export is one pinned input to the pcap writer and the SHA-256 of the
// file it must produce. The digests were taken from the frame encoder
// this writer replaced; a change to any exported byte fails
// TestWriteRecordDigests.
type export struct {
	name   string
	recs   []trace.Record
	digest string
}

func exports(t *testing.T) []export {
	t.Helper()
	cfg := tracegen.DCConfig(1, 200*time.Millisecond)
	cfg.MaxPackets = 3000
	dc, err := trace.Collect(tracegen.New(cfg))
	if err != nil {
		t.Fatal(err)
	}
	sim, err := netsim.GenWorkload(topo.LeafSpine(2, 2, 4, topo.Options{}), netsim.Workload{Seed: 7, Flows: 40})
	if err != nil {
		t.Fatal(err)
	}
	// No transport header: the IPv4 header is followed by the payload.
	icmp := trace.Record{
		SrcIP: packet.Addr4{10, 0, 0, 1}, DstIP: packet.Addr4{10, 0, 0, 2},
		Proto: packet.ProtoICMP, PktLen: 98, PayloadLen: 64, Tin: 1_500_000_001,
	}
	return []export{
		{"dc", dc, "a665bebbddb20d40ca2c4defeda47779ba35adf7b6f2d803c824b346f40c0225"},
		{"netsim", sim[:2000], "08636d04952f6092006ae9037114a7b1e909509e5c8714cfc76246bef5e08a20"},
		{"icmp", []trace.Record{icmp}, "0a30a1a8b9f5da177e20a49f84fddea143c990fb254d16fba3c9880ad523de8c"},
	}
}

// write exports recs as a pcap file.
func write(t *testing.T, recs []trace.Record) []byte {
	t.Helper()
	var buf bytes.Buffer
	w, err := NewWriter(&buf)
	if err != nil {
		t.Fatal(err)
	}
	for i := range recs {
		if err := w.WriteRecord(&recs[i]); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	if w.Count() != int64(len(recs)) {
		t.Fatalf("Count = %d, want %d", w.Count(), len(recs))
	}
	return buf.Bytes()
}

func TestWriteRecordDigests(t *testing.T) {
	for _, e := range exports(t) {
		sum := sha256.Sum256(write(t, e.recs))
		if got := hex.EncodeToString(sum[:]); got != e.digest {
			t.Errorf("%s: sha256 %s, want %s", e.name, got, e.digest)
		}
	}
}

// captured is one record read back from a pcap file: its 16-byte record
// header and its captured frame.
type captured struct {
	hdr, frame []byte
}

// readBack parses a written file independently of the writer's own
// helpers, the way a pcap reader does: it checks the file header, then
// returns every record up to the end of the file.
func readBack(t *testing.T, name string, file []byte) []captured {
	t.Helper()
	if len(file) < fileHeaderLen || le.Uint32(file[0:4]) != magicNanoseconds ||
		le.Uint32(file[16:20]) != snapLen || le.Uint32(file[20:24]) != linkTypeEthernet {
		t.Fatalf("%s: file header % x", name, file[:min(len(file), fileHeaderLen)])
	}
	var recs []captured
	for off := fileHeaderLen; off < len(file); {
		if len(file)-off < recordHeaderLen {
			t.Fatalf("%s: %d bytes after record %d, short of a record header", name, len(file)-off, len(recs))
		}
		h := file[off : off+recordHeaderLen]
		end := off + recordHeaderLen + int(le.Uint32(h[8:12]))
		if end > len(file) {
			t.Fatalf("%s record %d: captured length runs %d bytes past the file", name, len(recs), end-len(file))
		}
		recs = append(recs, captured{h, file[off+recordHeaderLen : end]})
		off = end
	}
	return recs
}

func TestWriteReadRoundTrip(t *testing.T) {
	for _, e := range exports(t) {
		got := readBack(t, e.name, write(t, e.recs))
		if len(got) != len(e.recs) {
			t.Fatalf("%s: read %d records, wrote %d", e.name, len(got), len(e.recs))
		}
		for i, c := range got {
			rec := &e.recs[i]
			if ts := int64(le.Uint32(c.hdr[0:4]))*1e9 + int64(le.Uint32(c.hdr[4:8])); ts != rec.Tin {
				t.Fatalf("%s record %d: timestamp %d, want tin %d", e.name, i, ts, rec.Tin)
			}
			// A record shorter than its own headers is exported at the
			// headers' length.
			if orig := int(le.Uint32(c.hdr[12:16])); orig != max(int(rec.PktLen), len(c.frame)) {
				t.Fatalf("%s record %d: orig_len %d, pkt_len %d, frame %d bytes", e.name, i, orig, rec.PktLen, len(c.frame))
			}
		}
	}
}

// eachFrame writes every export, reads it back, and runs check on each
// frame whose record's protocol keep accepts. It fails the test if keep
// accepts none.
func eachFrame(t *testing.T, keep func(packet.Proto) bool, check func(frame []byte, rec *trace.Record) error) {
	t.Helper()
	seen := 0
	for _, e := range exports(t) {
		got := readBack(t, e.name, write(t, e.recs))
		if len(got) != len(e.recs) {
			t.Fatalf("%s: read %d records, wrote %d", e.name, len(got), len(e.recs))
		}
		for i, c := range got {
			rec := &e.recs[i]
			if !keep(rec.Proto) {
				continue
			}
			seen++
			if err := check(c.frame, rec); err != nil {
				t.Fatalf("%s record %d: %v", e.name, i, err)
			}
		}
	}
	if seen == 0 {
		t.Fatal("no export holds a frame of this shape")
	}
}

func isTCP(p packet.Proto) bool { return p == packet.ProtoTCP }
func isUDP(p packet.Proto) bool { return p == packet.ProtoUDP }

func TestWriteRecordChecksums(t *testing.T) {
	eachFrame(t, func(packet.Proto) bool { return true }, func(frame []byte, _ *trace.Record) error {
		return checkChecksums(frame)
	})
}

func TestWriteRecordTCPFrame(t *testing.T) {
	eachFrame(t, isTCP, checkFields)
}

func TestWriteRecordUDPFrame(t *testing.T) {
	eachFrame(t, isUDP, checkFields)
}

// TestWriteRecordIPv4Frame covers a record with no transport header: the
// payload follows the IPv4 header.
func TestWriteRecordIPv4Frame(t *testing.T) {
	eachFrame(t, func(p packet.Proto) bool { return !isTCP(p) && !isUDP(p) }, checkFields)
}

// checkChecksums verifies that a frame's IPv4 header checksum folds to
// zero and, for TCP or UDP, that the checksum over the pseudo-header and
// segment folds to zero.
func checkChecksums(frame []byte) error {
	const eth = packet.EthernetHeaderLen
	ip := frame[eth : eth+packet.IPv4MinHeaderLen]
	if checksum(ip, 0) != 0 {
		return fmt.Errorf("IPv4 header checksum does not verify")
	}
	if p := packet.Proto(ip[9]); !isTCP(p) && !isUDP(p) {
		return nil
	}
	seg := frame[eth+packet.IPv4MinHeaderLen:]
	pseudo := []byte{ip[12], ip[13], ip[14], ip[15], ip[16], ip[17], ip[18], ip[19],
		0, ip[9], byte(len(seg) >> 8), byte(len(seg))}
	if got := checksum(append(pseudo, seg...), 0); got != 0 {
		return fmt.Errorf("transport checksum residue %#x, want 0", got)
	}
	return nil
}

// checkFields verifies one frame's header fields against its record: the
// Ethernet type, the IPv4 addresses and protocol, the IPv4 total length
// plus the Ethernet header is the frame length, the TCP or UDP ports, the
// TCP sequence number and flags, the UDP length, and the payload length.
func checkFields(frame []byte, rec *trace.Record) error {
	const eth = packet.EthernetHeaderLen
	if be.Uint16(frame[12:14]) != etherTypeIPv4 {
		return fmt.Errorf("ethertype %#04x", be.Uint16(frame[12:14]))
	}
	ip := frame[eth : eth+packet.IPv4MinHeaderLen]
	if n := int(be.Uint16(ip[2:4])) + eth; n != len(frame) {
		return fmt.Errorf("IPv4 total length + %d = %d, frame is %d bytes", eth, n, len(frame))
	}
	if ip[9] != byte(rec.Proto) || !bytes.Equal(ip[12:16], rec.SrcIP[:]) || !bytes.Equal(ip[16:20], rec.DstIP[:]) {
		return fmt.Errorf("IPv4 header % x does not carry %v -> %v proto %v", ip, rec.SrcIP, rec.DstIP, rec.Proto)
	}
	seg := frame[eth+packet.IPv4MinHeaderLen:]
	hdr := 0
	switch rec.Proto {
	case packet.ProtoTCP:
		hdr = packet.TCPMinHeaderLen
		if be.Uint32(seg[4:8]) != rec.TCPSeq || seg[13] != rec.TCPFlags {
			return fmt.Errorf("TCP seq %d flags %#x, want %d %#x", be.Uint32(seg[4:8]), seg[13], rec.TCPSeq, rec.TCPFlags)
		}
	case packet.ProtoUDP:
		hdr = packet.UDPHeaderLen
		if int(be.Uint16(seg[4:6])) != len(seg) {
			return fmt.Errorf("UDP length %d, segment is %d bytes", be.Uint16(seg[4:6]), len(seg))
		}
	}
	if hdr > 0 && (be.Uint16(seg[0:2]) != rec.SrcPort || be.Uint16(seg[2:4]) != rec.DstPort) {
		return fmt.Errorf("ports %d > %d, want %d > %d", be.Uint16(seg[0:2]), be.Uint16(seg[2:4]), rec.SrcPort, rec.DstPort)
	}
	if payload := len(seg) - hdr; payload != int(rec.PayloadLen) {
		return fmt.Errorf("payload %d bytes, want %d", payload, rec.PayloadLen)
	}
	return nil
}

func TestSnapLenTruncation(t *testing.T) {
	rec := trace.Record{Proto: packet.ProtoUDP, PktLen: 70042, PayloadLen: 70000}
	file := write(t, []trace.Record{rec})
	h := file[fileHeaderLen : fileHeaderLen+recordHeaderLen]
	if incl := le.Uint32(h[8:12]); incl != snapLen {
		t.Errorf("captured %d bytes, want %d", incl, snapLen)
	}
	if orig := le.Uint32(h[12:16]); orig != 70042 {
		t.Errorf("orig_len = %d, want 70042", orig)
	}
	if n := len(file) - fileHeaderLen - recordHeaderLen; n != snapLen {
		t.Errorf("file holds %d frame bytes, want %d", n, snapLen)
	}
}

func TestQuickChecksumIncremental(t *testing.T) {
	// checksum(data, 0) == 0 iff data already contains its own checksum:
	// verify by inserting the computed checksum and re-checking, for random
	// even-length buffers.
	f := func(data []byte) bool {
		if len(data) < 4 {
			return true
		}
		if len(data)%2 == 1 {
			data = data[:len(data)-1]
		}
		data[0], data[1] = 0, 0
		c := checksum(data, 0)
		data[0], data[1] = byte(c>>8), byte(c)
		return checksum(data, 0) == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}
